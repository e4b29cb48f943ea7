import pytest

from higman.constructions import (construct_family, example1_construct,
                                  search_semiregular_rds)
from higman.groups import FiniteGroup, GroupError, Subgroup, build_family
from higman.higmanian import detect_higmanian
from higman.schemes import Parabolic, SchemeError, cayley_scheme

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


@pytest.fixture
def computed(monkeypatch):
    """The color sets of the parabolics that compute their corank and
    their classes while the test runs, in order, one entry per compute."""
    log = {"corank": [], "class_of": []}
    for name, seen in log.items():
        prop = vars(Parabolic)[name]

        def counted(parab, func=prop.func, seen=seen):
            seen.append(parab.colors)
            return func(parab)
        monkeypatch.setattr(prop, "func", counted)
    return log


@pytest.fixture(scope="session")
def example1_results():
    """The desk-scale recipe-1 instances used by the cross-agreement suite."""
    c4 = build_family("C:4")
    e9 = build_family("EA:3:2")
    n = e9.subgroup([0, 1, 2])
    return [example1_construct(c4, c4.subgroup([0, 2]), (0, 1)),
            example1_construct(e9, n, search_semiregular_rds(e9, n)[0])]


NEGATIVE_CONTROL_GROUPS = ("C:12", "Prod:C:2,C:6", "GenDih:C:6", "Prod:C:4,C:4")


@pytest.fixture(scope="session")
def negative_control_candidates():
    """(group, parts) of every candidate partition of the exhaustive
    negative-control search, whether it spans an S-ring or not."""
    return [(G, parts) for spec in NEGATIVE_CONTROL_GROUPS
            for G in [build_family(spec)] for parts in candidate_partitions(G)]


@pytest.fixture(scope="session")
def negative_controls(negative_control_candidates):
    """((group, parts), scheme, detection) of every candidate partition
    that spans a Higmanian scheme."""
    found = []
    for G, parts in negative_control_candidates:
        try:
            scheme = cayley_scheme(G, parts)
        except SchemeError:
            continue
        det = detect_higmanian(scheme)
        if det:
            found.append(((G, parts), scheme, det))
    return found


def cyclic_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every cyclic subgroup, one closure per element, ordered by (order,
    elements)."""
    found: dict[tuple[int, ...], Subgroup] = {}
    for x in range(G.order):
        h = G.generated_subgroup([x])
        found.setdefault(h.elements, h)
    return sorted(found.values(), key=lambda h: (h.order, h.elements))


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by join-closure of the cyclic ones (order <= 128)."""
    if G.order > 128:
        raise GroupError("subgroup enumeration capped at order 128")
    pool = {h.elements: h for h in cyclic_subgroups(G)}
    grew = True
    while grew:
        grew = False
        items = list(pool.values())
        for a in items:
            for b in items:
                j = G.generated_subgroup(set(a.elements) | set(b.elements))
                if j.elements not in pool:
                    pool[j.elements] = j
                    grew = True
    return sorted(pool.values(), key=lambda h: (h.order, h.elements))


def candidate_partitions(G: FiniteGroup):
    """Every rank-5 partition {e}, L^#, U\\L, T3, T4 over a subgroup chain
    L < U < G with an inverse-closed split T3, T4 of G \\ U; at most 2^14
    splits per chain."""
    subs = all_subgroups(G)
    e = G.identity
    for L in subs:
        if L.order < 2:
            continue
        for U in subs:
            if U.order <= L.order or U.order == G.order:
                continue
            if not set(L.elements) < set(U.elements):
                continue
            if G.order % U.order or U.order % L.order:
                continue
            if G.order // U.order < 2 or U.order // L.order < 2:
                continue
            outside = [x for x in range(G.order) if x not in U.as_set]
            atoms = []
            seen: set[int] = set()
            for x in outside:
                if x in seen:
                    continue
                orbit = {x, int(G.inv[x])}
                seen |= orbit
                atoms.append(tuple(sorted(orbit)))
            if len(atoms) > 14:
                continue
            for bits in range(1, (1 << len(atoms)) - 1):
                t3 = []
                for ai, atom in enumerate(atoms):
                    if bits >> ai & 1:
                        t3.extend(atom)
                t4 = [x for x in outside if x not in set(t3)]
                if not t4:
                    continue
                yield (
                    (e,),
                    tuple(x for x in L.elements if x != e),
                    tuple(x for x in U.elements if x not in L.as_set),
                    tuple(sorted(t3)),
                    tuple(sorted(t4)),
                )
