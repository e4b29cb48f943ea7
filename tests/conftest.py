import pytest

from higman.constructions import (construct_family,
                                  example1_desk_constructions,
                                  search_higmanian_cayley)
from higman.groups import build_family

DESK_POINTS = (
    ("q8cp", dict(r=1)),
    ("q8cp", dict(r=2)),
    ("heis", dict(q=3, r=1)),
    ("ea", dict(q=3, r=1, j=1)),
)


@pytest.fixture(scope="session")
def constructions_by_family():
    """All desk-scale recipe-2 pipelines, built once."""
    return {(fam, tuple(sorted(kw.items()))): construct_family(fam, **kw)
            for fam, kw in DESK_POINTS}


@pytest.fixture(scope="session")
def q8_construction(constructions_by_family):
    return constructions_by_family[("q8cp", (("r", 1),))]


@pytest.fixture(scope="session")
def heis_construction(constructions_by_family):
    return constructions_by_family[("heis", (("q", 3), ("r", 1)))]


@pytest.fixture(scope="session")
def ea_construction(constructions_by_family):
    return constructions_by_family[("ea", (("j", 1), ("q", 3), ("r", 1)))]


@pytest.fixture(scope="session")
def example1_results():
    return example1_desk_constructions()


@pytest.fixture(scope="session")
def negative_controls():
    """(partition, scheme, detection) of every Higmanian Cayley scheme the
    exhaustive search finds in four small groups."""
    return [found
            for spec in ("C:12", "Prod:C:2,C:6", "GenDih:C:6", "Prod:C:4,C:4")
            for found in search_higmanian_cayley(build_family(spec))]
