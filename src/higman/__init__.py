"""Toolkit for Higmanian association schemes: exact spectra, four-route
uniformity checks, and uniform Cayley-scheme constructions from linked
systems of relative difference sets."""

from .quadratic import QuadraticNumber
from .groups import (FiniteGroup, GroupIsomorphism, Subgroup, build_family,
                     cosets, gre_multiply)
from .schemes import (Parabolic, SchemeTable, cayley_scheme, parabolics,
                      read_scheme, restriction, validate, wreath_product,
                      write_scheme)
from .spectral import (EigenData, KreinTensor, higmanian_eigenmatrix,
                       is_q_higmanian, krein, multiplicity_check,
                       sim_classes, spectral_data)
from .higmanian import (HigmanianParams, detect_higmanian, is_dismantlable,
                        is_uniform_by_criterion, is_uniform_by_definition,
                        uniformity_rhs, verdict_bundle)
from .constructions import (LinkedSystem, associate_group, construct_family,
                            example1_construct, example2_construct,
                            search_linked_system, search_semiregular_rds,
                            semiregular_mu_nu, table1_params, table2_params,
                            verify_dds, verify_linked_system)

__version__ = "0.1.0"
