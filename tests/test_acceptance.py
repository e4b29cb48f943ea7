"""Acceptance suite: every exit criterion as a test, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test is independent and re-times its own work where the
criterion carries a runtime bound.
"""

import itertools
import random
import time

import numpy as np

from higman.constructions import (construct_family, search_linked_system,
                                  semiregular_mu_nu)
from higman.groups import build_family, gre_multiply, isomorphisms
from higman.higmanian import (HigmanianParams, detect_higmanian,
                              is_uniform_by_criterion, verdict_bundle)
from higman.quadratic import QuadraticNumber as QN
from higman.schemes import (cayley_scheme, read_scheme, trivial_scheme,
                            wreath_product, write_scheme)
from higman.spectral import (float_eigen_oracle, krein, sim_classes,
                             spectral_data)
from conftest import cyclic_subgroups
from test_tensor_reference import ref_product_group


def _ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_table1_reproduction():
    """Linked systems with exact Table-1 parameters, associate groups
    C_3 / C_4 / C_3, in under 60 s."""
    t0 = time.perf_counter()
    targets = (
        ("Q8cp:1", "center", 2, (4, 2, 4, 2, 2, 1, 3), "C:3"),
        ("Heis:3:1", "center", 3, (9, 3, 9, 3, 3, 1, 4), "C:4"),
        ("EA:3:3", (0, 1, 2), 2, (9, 3, 9, 3, 2, 5, 2), "C:3"),
    )
    for spec, nspec, w, want, assoc_spec in targets:
        G = build_family(spec)
        N = G.center() if nspec == "center" else G.subgroup(nspec)
        system = search_linked_system(G, N, w)
        assert system is not None, f"no system found in {spec}"
        assert system.params == want
        from higman.constructions import associate_group
        assoc = associate_group(system)
        assert next(isomorphisms(assoc, build_family(assoc_spec)), None)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _ok(f"1 (Table 1 reproduction, {elapsed:.2f}s)")


def test_criterion_2_table2_reproduction():
    """Constructed Cayley schemes of orders 24, 108, 81 detected Higmanian
    with exact Table-2 parameters, in under 120 s."""
    t0 = time.perf_counter()
    targets = (
        (("q8cp", dict(r=1)), 24, (3, 4, 2, 4, 3)),
        (("heis", dict(q=3, r=1)), 108, (4, 9, 3, 18, 16)),
        (("ea", dict(q=3, r=1, j=1)), 81, (3, 9, 3, 18, 4)),
    )
    for (family, kw), order, want in targets:
        con = construct_family(family, **kw)
        assert con.result.scheme.v == order
        det = detect_higmanian(con.result.scheme)
        assert det and det.params.astuple() == want
        assert con.table1_match and con.table2_match and con.associate_match
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s"
    _ok(f"2 (Table 2 reproduction, {elapsed:.2f}s)")


def test_criterion_3_four_verdict_agreement(constructions_by_family,
                                            example1_results):
    """All four uniformity routes coincide (and are all true) on every
    constructed scheme: both recipes, all desk-scale points."""
    schemes = [c.result.scheme for c in constructions_by_family.values()]
    schemes += [r.scheme for r in example1_results]
    assert len(schemes) >= 6
    for scheme in schemes:
        bundle = verdict_bundle(scheme)  # raises on any disagreement
        assert bundle.consistent
        assert bundle.verdicts == (True, True, True, True)
        assert bundle.alt_agrees
    _ok(f"3 (four-route agreement on {len(schemes)} constructed schemes)")


def test_criterion_4_spectral_exactness(q8_construction, heis_construction):
    p24 = HigmanianParams(3, 4, 2, 4, 3)
    d24 = spectral_data(p24)
    assert (d24.P[1][2], d24.P[3][2]) == (QN(4), QN(-2))
    mults = [m.as_integer() for m in d24.multiplicities]
    assert mults == [1, 4, 9, 8, 2] and sum(mults) == 24
    assert d24.multiplicities[3] == d24.multiplicities[1] * (p24.f - 1)
    assert d24.multiplicities[4] == d24.multiplicities[0] * (p24.f - 1)

    p108 = HigmanianParams(4, 9, 3, 18, 16)
    d108 = spectral_data(p108)
    assert (d108.P[1][2], d108.P[3][2]) == (QN(9), QN(-3))
    mults = [m.as_integer() for m in d108.multiplicities]
    assert mults == [1, 18, 32, 54, 3] and sum(mults) == 108

    for con, data in ((q8_construction, d24), (heis_construction, d108)):
        res = float_eigen_oracle(
            con.result.scheme, data,
            relation_order=con.result.detection.relation_order)
        assert res.max_abs_error < 1e-8
    _ok("4 (exact spectra, oracle within 1e-8)")


def test_criterion_5_krein_structure(constructions_by_family,
                                     example1_results):
    params_list = [c.result.detection.params
                   for c in constructions_by_family.values()]
    params_list += [r.detection.params for r in example1_results]
    for params in params_list:
        data = spectral_data(params)
        kr = krein(data.P, data.multiplicities, data.valencies)
        assert kr.entry(1, 3, 4) != QN(0)
        for i, j in itertools.combinations(range(5), 2):
            vanishes = (2 in (i, j)) or (
                {i, j} & {0, 4} and {i, j} & {1, 3})
            if vanishes:
                assert kr.entry(i, j, 0) == QN(0)
                assert kr.entry(i, j, 4) == QN(0)
        assert sim_classes(frozenset({0, 4}), kr) == (
            frozenset({0, 4}), frozenset({1, 3}), frozenset({2}))
    _ok(f"5 (Krein structure on {len(params_list)} Higmanian instances)")


def test_criterion_6_product_identities(constructions_by_family):
    for con in constructions_by_family.values():
        L = con.system
        res = con.result
        P = ref_product_group(res)
        n, lam, w, mu, nu = L.n, L.lam, L.w, L.mu, L.nu
        parts = res.parts
        t = [np.bincount(part, minlength=P.order) for part in parts]

        def prod(a, b):
            return gre_multiply(P, parts[a], parts[b])

        assert (prod(1, 1) == (n - 1) * t[0] + (n - 2) * t[1]).all()
        assert (prod(1, 2) == (n - 1) * t[2]).all()
        assert (prod(2, 2) == ((n * n * lam - n) * (t[0] + t[1])
                               + (n * n * lam - 2 * n) * t[2])).all()
        assert (prod(3, 1) == t[4]).all()
        assert (prod(3, 2) == (n * lam - 1) * (t[3] + t[4])).all()
        assert (prod(3, 3) == (w * n * lam * t[0] + w * lam * t[2]
                               + (w - 1) * mu * t[3]
                               + (w - 1) * nu * t[4])).all()
    _ok(f"6 (all six product identities on "
        f"{len(constructions_by_family)} constructions)")


def test_criterion_7_property_suites(tmp_path, constructions_by_family,
                                     example1_results):
    # subset-of-subgroup rule: X H = H X = |X| H, 100 random pairs per group
    rng = random.Random(42)
    specs = ["C:4", "C:6", "EA:2:2", "EA:3:2", "Q8cp:1", "Heis:3:1",
             "GenDih:C:4", "Prod:C:2,C:4", "Q8cp:2", "EA:3:3"]
    for spec in specs:
        G = build_family(spec)
        subs = cyclic_subgroups(G)
        for _ in range(100):
            H = rng.choice(subs)
            xs = [x for x in H.elements if rng.random() < 0.5] or [G.identity]
            want = len(xs) * np.bincount(H.elements, minlength=G.order)
            assert (gre_multiply(G, xs, H.elements) == want).all()
            assert (gre_multiply(G, H.elements, xs) == want).all()

    # triangle identity on all basic-set triples of every S-ring
    partitions = [(ref_product_group(c.result), c.result.parts)
                  for c in constructions_by_family.values()]
    partitions += [(r.group, r.parts) for r in example1_results]
    for G, parts in partitions:
        sizes = [len(p) for p in parts]
        p = cayley_scheme(G, parts).p
        inv = [[frozenset(q) for q in parts].index(
            frozenset(int(G.inv[x]) for x in part)) for part in parts]
        for x, y, z in itertools.product(range(len(parts)), repeat=3):
            assert (sizes[z] * p[x, y, inv[z]]
                    == sizes[x] * p[y, z, inv[x]]
                    == sizes[y] * p[z, x, inv[y]])

    # recovered (mu, nu) realizes one of the two closed-form sign branches
    for con in constructions_by_family.values():
        L = con.system
        assert (QN(L.mu), QN(L.nu)) in semiregular_mu_nu(L.n, L.lam)
        assert L.branch in ("+", "-")

    # partition independence of phi: at least two distinct phi each
    from higman.constructions import associate_group
    from test_constructions import cayley_isomorphic
    for con in constructions_by_family.values():
        winf = associate_group(con.system)
        autos = list(isomorphisms(winf, winf))
        assert len(autos) >= 2
        cayley_isomorphic(autos[0], autos[1], con.system)  # asserts on failure

    # scheme-file round trip is byte-identical
    for i, con in enumerate(constructions_by_family.values()):
        p1 = tmp_path / f"s{i}.scheme"
        p2 = tmp_path / f"s{i}b.scheme"
        write_scheme(con.result.scheme, p1)
        write_scheme(read_scheme(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
    _ok("7 (product rule, triangle identity, (mu,nu) branches, "
        "Cayley isomorphisms, file round-trips)")


def test_criterion_8_negative_controls(capsys):
    # wreath products are not Higmanian
    w = wreath_product(trivial_scheme(2), trivial_scheme(3))
    assert not detect_higmanian(w)
    w5 = wreath_product(wreath_product(trivial_scheme(2), trivial_scheme(2)),
                        wreath_product(trivial_scheme(2), trivial_scheme(2)))
    assert w5.rank == 5 and not detect_higmanian(w5)

    # the criterion rejects a parameter tuple violating the equality
    assert not is_uniform_by_criterion(HigmanianParams(3, 4, 2, 4, 2))
    assert is_uniform_by_criterion(HigmanianParams(3, 4, 2, 4, 3))

    # tables skips the w < 2 point with the constraint note
    from higman.cli import main
    code = main(["tables"])
    out = capsys.readouterr().out
    assert code == 0
    skip_line = [ln for ln in out.splitlines()
                 if ln.startswith("ea q=2 r=1 j=1")][0]
    assert "SKIP" in skip_line and "w = p^j - 1 = 1 < 2" in skip_line
    _ok("8 (negative controls)")
