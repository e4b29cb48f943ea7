import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from higman import constructions
from higman.constructions import (ConstructionError, associate_group,
                                  construct_family, example1_construct,
                                  example2_construct,
                                  intersection_condition, read_linked_system,
                                  search_linked_system,
                                  search_semiregular_rds, semiregular_mu_nu,
                                  table1_params, table2_params, verify_dds,
                                  verify_linked_system, write_linked_system)
from higman.groups import (GROUP_ORDER_LIMIT, FiniteGroup, GroupError,
                           GroupIsomorphism, build_family,
                           central_product_q8, gre_multiply, isomorphisms,
                           prime_power)
from higman.higmanian import verdict_bundle
from higman.quadratic import QuadraticNumber as QN
from higman.schemes import SchemeError, cayley_scheme
from conftest import cyclic_subgroups
from test_tensor_reference import ref_product_group


# -- difference sets ---------------------------------------------------------

def test_verify_dds_full_group():
    g = build_family("C:6")
    n = g.subgroup([0, 3])
    dds = verify_dds(g, n, range(6))
    assert (dds.k, dds.lambda1, dds.lambda2) == (6, 6, 6)


def test_verify_dds_c4():
    g = build_family("C:4")
    n = g.subgroup([0, 2])
    dds = verify_dds(g, n, [0, 1])
    assert (dds.m, dds.n, dds.k, dds.lambda1, dds.lambda2) == (2, 2, 2, 0, 1)
    assert dds.is_rds and dds.is_semiregular


def test_verify_dds_degenerate_singleton():
    g = build_family("C:4")
    n = g.subgroup([0, 2])
    dds = verify_dds(g, n, [0])
    assert (dds.k, dds.lambda1, dds.lambda2) == (1, 0, 0)


def test_verify_dds_rejects():
    g = build_family("C:8")
    n = g.subgroup([0, 4])
    with pytest.raises(ConstructionError, match="not constant"):
        verify_dds(g, n, [0, 1, 2])


def test_intersection_condition():
    g = build_family("C:4")
    n = g.subgroup([0, 2])
    assert intersection_condition(g, n, [0, 1])       # a transversal
    assert not intersection_condition(g, n, [0, 2])   # X = N
    assert intersection_condition(g, n, [0, 1, 2, 3])


# -- recipe 1 -----------------------------------------------------------------

def test_example1_c4(example1_results):
    res = example1_results[0]
    assert res.scheme.v == 8
    assert res.detection.params.astuple() == (2, 2, 2, 2, 0)


def test_example1_ea9(example1_results):
    res = example1_results[1]
    assert res.scheme.v == 18
    assert res.detection.params.astuple() == (2, 3, 3, 6, 0)


def test_example1_t3_t4_product_lands_inside_g(example1_results):
    # the product of the two outside parts has support inside the abelian
    # half, which is why t = 0 for this recipe
    for res in example1_results:
        GD = res.group
        half = GD.order // 2
        t3, t4 = res.parts[3:5]
        assert not gre_multiply(GD, t3, t4)[half:].any()
        assert not gre_multiply(GD, t4, t3)[half:].any()


def test_example1_rejects_bad_input():
    g = build_family("C:4")
    n = g.subgroup([0, 2])
    with pytest.raises(ConstructionError, match="intersection"):
        example1_construct(g, n, [0, 2])  # X = N fails the condition
    q8 = build_family("Q8cp:1")
    with pytest.raises(ConstructionError, match="abelian"):
        example1_construct(q8, q8.center(), [0, 2, 4, 6])


# -- mu/nu formulas ------------------------------------------------------------

def test_semiregular_mu_nu_n2():
    plus, minus = semiregular_mu_nu(2, 2)
    assert plus == (QN(3), QN(1))
    assert minus == (QN(1), QN(3))


def test_semiregular_mu_nu_n3():
    plus, minus = semiregular_mu_nu(3, 3)
    assert plus == (QN(5), QN(2))
    assert minus == (QN(1), QN(4))


def test_semiregular_mu_nu_inadmissible():
    plus, minus = semiregular_mu_nu(2, 1)  # n*lam = 2 is not a square
    for mu, nu in (plus, minus):
        assert not (mu.is_integer and nu.is_integer)


# -- linked systems --------------------------------------------------------------

def test_linked_system_params(q8_construction, heis_construction,
                              ea_construction):
    assert q8_construction.system.params == (4, 2, 4, 2, 2, 1, 3)
    assert heis_construction.system.params == (9, 3, 9, 3, 3, 1, 4)
    assert ea_construction.system.params == (9, 3, 9, 3, 2, 5, 2)
    assert q8_construction.system.branch == "-"
    assert ea_construction.system.branch == "+"


def test_product_law_explicitly(q8_construction):
    # X_a X_b = k e + lam (G - N) for b = chi(a), else mu Y + nu (G - Y)
    system = q8_construction.system
    G, N = system.group, system.forbidden
    for a, b in itertools.product(range(system.w), repeat=2):
        prod = gre_multiply(G, system.sets[a], system.sets[b])
        if b == system.chi[a]:
            want = np.full(G.order, system.lam, dtype=np.int64)
            for x in N.elements:
                want[x] = 0
            want[G.identity] = system.k
        else:
            y = set(system.sets[system.psi[(a, b)]])
            want = np.array([system.mu if x in y else system.nu
                             for x in range(G.order)], dtype=np.int64)
        assert (prod == want).all()


def test_verify_linked_system_rejects():
    g = build_family("Q8cp:1")
    n = g.center()
    rds = search_semiregular_rds(g, n)
    with pytest.raises(ConstructionError, match="w >= 2"):
        verify_linked_system(g, n, rds[:1])
    with pytest.raises(ConstructionError, match="distinct"):
        verify_linked_system(g, n, [rds[0], rds[0]])
    # two RDSs that are not inverse partners and whose product is not
    # two-level
    with pytest.raises(ConstructionError):
        verify_linked_system(g, n, [(0, 2, 4, 6), (0, 2, 4, 7)])


def test_recovered_chi_matches_inverses(heis_construction):
    system = heis_construction.system
    G = system.group
    for a, b in enumerate(system.chi):
        inv = tuple(sorted(int(G.inv[x]) for x in system.sets[a]))
        assert inv == system.sets[b]


def test_associate_groups(q8_construction, heis_construction,
                          ea_construction):
    for con, spec in ((q8_construction, "C:3"), (heis_construction, "C:4"),
                      (ea_construction, "EA:3:1")):
        assoc = associate_group(con.system)
        assert assoc.order == con.system.w + 1
        assert next(isomorphisms(assoc, build_family(spec)), None)


@pytest.mark.parametrize("call, message", [
    (lambda L: associate_group(dataclasses.replace(L, k=L.m + 1)),
     "associate group needs semiregular members"),
    (lambda L: example2_construct(dataclasses.replace(L, k=L.m + 1)),
     "recipe needs semiregular members (k = m)"),
    # both members their own inverses, and each product of the two read as
    # the first: the induced operation on {inf, 0, 1} is not associative
    (lambda L: associate_group(dataclasses.replace(
        L, psi={(0, 1): 0, (1, 0): 0}, chi=(0, 1))),
     "induced operation is not a group: associativity fails at (1,1,2)"),
])
def test_linked_system_guards(call, message):
    with pytest.raises(ConstructionError) as exc:
        call(constructions.q8cp_linked_system(1))
    assert str(exc.value) == message


# -- the forbidden subgroup of the searched families --------------------------------

@pytest.mark.parametrize("q, r", [(3, 1), (3, 2), (5, 1), (7, 1), (9, 1)])
def test_heisenberg_center_is_the_first_q_elements(q, r):
    assert build_family(f"Heis:{q}:{r}").center().elements == tuple(range(q))


# EA:7:5 has order 16,807, over GROUP_ORDER_LIMIT: p = 7 takes k = 4
@pytest.mark.parametrize("p, k", [(3, 3), (3, 5), (5, 3), (5, 5), (7, 3),
                                  (7, 4)])
def test_first_p_elements_are_the_least_cyclic_subgroup(p, k):
    G = build_family(f"EA:{p}:{k}")
    order_p = [h.elements for h in cyclic_subgroups(G) if h.order == p]
    assert order_p[0] == tuple(range(p))


def test_searched_families_forbid_the_first_q_elements(heis_construction,
                                                       ea_construction):
    for con in (heis_construction, ea_construction):
        assert con.system.forbidden.elements == tuple(range(con.q))


# -- searches ----------------------------------------------------------------------

def test_search_rds_c4():
    g = build_family("C:4")
    found = search_semiregular_rds(g, g.subgroup([0, 2]))
    assert found == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_search_rds_q8():
    g = build_family("Q8cp:1")
    found = search_semiregular_rds(g, g.center())
    assert len(found) == 16  # every transversal of the center works in Q8
    assert (0, 2, 4, 6) in found


def test_search_rds_h33_nonempty():
    g = build_family("Heis:3:1")
    found = search_semiregular_rds(g, g.center())
    assert found
    # every hit is a genuine semiregular RDS
    d = verify_dds(g, g.center(), found[0])
    assert d.is_semiregular and (d.m, d.n, d.k, d.lambda2) == (9, 3, 9, 3)


def test_search_rds_cap():
    # 2^32 transversals, past the 2^24 cap: refused before any search
    g = build_family("EA:2:6")
    n = g.subgroup([0, 1])
    with pytest.raises(ConstructionError, match=r"space 2\^32 exceeds cap"):
        search_semiregular_rds(g, n)


def test_search_rds_memory_bounded():
    # 2^20 transversals: a frontier as wide as a level would peak near 121 MB
    g = build_family("C:40")
    tracemalloc.start()
    try:
        found = search_semiregular_rds(g, g.subgroup([0, 20]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == []
    assert peak < 32 * 2 ** 20


def test_search_linked_system_none_for_impossible():
    g = build_family("C:4")
    n = g.subgroup([0, 2])
    # w = 3 closed system cannot exist here: the associate group would have
    # order 4 but there are only 4 RDSs and products do not close
    assert search_linked_system(g, n, 3) is None


def test_search_linked_system_falls_back_to_first_system():
    # no system of Heis(3,1) lies on the (5, 2) branch: one pass returns
    # the lex-first system it met instead
    g = build_family("Heis:3:1")
    found = search_linked_system(g, g.center(), 3, mu_nu=(5, 2))
    assert found is not None
    assert found.params == (9, 3, 9, 3, 3, 1, 4)
    assert found.sets == search_linked_system(g, g.center(), 3).sets


def test_construction_leaves_no_reference_cycles():
    # the searches (heis) and the isomorphism test hold no self-referencing
    # closures, so a construction is freed by reference counting alone.
    # The first call runs once for the lazy imports of the libraries.
    for family, params in (("q8cp", dict(r=2)), ("heis", dict(q=3, r=1))):
        construct_family(family, **params)
        gc.collect()
        gc.disable()
        try:
            construct_family(family, **params)
            assert gc.collect() == 0, family
        finally:
            gc.enable()


# -- the q8cp family in closed form ----------------------------------------------------

def _sign_class_system(r, c):
    """The elements of Q8cp:r with sign bit c and their inverses, through
    verify_linked_system."""
    G = central_product_q8(r)
    X = tuple(range(c, G.order, 2))
    X_inv = tuple(sorted(int(G.inv[x]) for x in X))
    return verify_linked_system(G, G.center(), sorted([X, X_inv]))


@pytest.mark.parametrize("r", [1, 2])
def test_q8cp_closed_form_equals_the_search(r):
    system = constructions.q8cp_linked_system(r)
    G = build_family(f"Q8cp:{r}")
    t1 = table1_params("q8cp", r=r)
    found = search_linked_system(G, G.center(), 2, mu_nu=(t1[5], t1[6]))
    assert system.sets == found.sets
    assert system.chi == found.chi and system.psi == found.psi
    assert system.params == found.params == t1
    assert system.branch == found.branch == "-"


@pytest.mark.parametrize("r", [1, 2, 3])
def test_q8cp_sign_constant_picks_the_branch(r):
    # c != r mod 2 is Table 1's branch; the other sign class is linked too,
    # on the + branch, with mu and nu swapped
    t1 = table1_params("q8cp", r=r)
    ours = _sign_class_system(r, 1 - r % 2)
    assert ours.params == t1 and ours.branch == "-"
    assert constructions.q8cp_linked_system(r).sets == ours.sets
    other = _sign_class_system(r, r % 2)
    assert other.branch == "+" and other.params != t1
    assert other.params == t1[:5] + (t1[6], t1[5])


def test_q8cp_closed_form_at_r4():
    system = constructions.q8cp_linked_system(4)
    assert system.params == table1_params("q8cp", r=4)
    assert system.branch == "-"


def test_example2_peak_memory():
    # recipe 2 reads its scheme off the tables of G and U, and forms its
    # products and colors in blocks: at q8cp r=4 (v = 1536) the whole
    # construction peaks under twice its int16 colors, 4.7 MB.  A 1536^2
    # int32 table of G x U alone would be 9.4 MB
    system = constructions.q8cp_linked_system(4)
    tracemalloc.start()
    try:
        result = example2_construct(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.scheme.v == 1536
    assert peak <= 2 * result.scheme.color.nbytes


@pytest.mark.parametrize("r", [1, 2, 3])
def test_q8cp_construct_runs_no_search(r, monkeypatch, computed):
    def refuse(*args, **kwargs):
        raise AssertionError("construct_family searched")
    monkeypatch.setattr(constructions, "search_semiregular_rds", refuse)
    monkeypatch.setattr(constructions, "search_linked_system", refuse)
    con = construct_family("q8cp", r=r)
    assert con.table1_match and con.table2_match and con.associate_match
    assert con.result.detection.params == table2_params("q8cp", r=r)
    assert computed["class_of"] == []  # no class is formed
    bundle = verdict_bundle(con.result.scheme)
    assert bundle.consistent and bundle.uniform


def test_oversize_family_point_refused_before_any_group(monkeypatch):
    # Q8cp:6 has order 8192, within the limit, but G x C:3 would not be
    def refuse(*args, **kwargs):
        raise AssertionError("a group was built")
    monkeypatch.setattr(constructions, "central_product_q8", refuse)
    monkeypatch.setattr(constructions, "build_family", refuse)
    for family, params in (("q8cp", dict(r=6)), ("heis", dict(q=5, r=2))):
        order = table2_params(family, **params).v
        with pytest.raises(GroupError, match=f"group order {order} exceeds "
                                             f"the limit {GROUP_ORDER_LIMIT}"):
            construct_family(family, **params)


# -- parameter tables -----------------------------------------------------------------

def test_table1_values():
    assert table1_params("q8cp", r=1) == (4, 2, 4, 2, 2, 1, 3)
    assert table1_params("heis", q=3, r=1) == (9, 3, 9, 3, 3, 1, 4)
    assert table1_params("ea", q=3, r=1, j=1) == (9, 3, 9, 3, 2, 5, 2)
    assert table1_params("q8cp", r=2) == (16, 2, 16, 8, 2, 6, 10)


def test_table2_values():
    assert table2_params("q8cp", r=1).astuple() == (3, 4, 2, 4, 3)
    assert table2_params("heis", q=3, r=1).astuple() == (4, 9, 3, 18, 16)
    assert table2_params("ea", q=3, r=1, j=1).astuple() == (3, 9, 3, 18, 4)
    assert table2_params("q8cp", r=2).astuple() == (3, 16, 2, 16, 10)


def _valid_family_points():
    """Every valid (family, q, r, j) whose group, of order q^(2r+1) with
    q = 2 for q8cp, is within GROUP_ORDER_LIMIT."""
    points = []
    for family in ("q8cp", "heis", "ea"):
        for q in [2] if family == "q8cp" else range(2, GROUP_ORDER_LIMIT):
            for r in itertools.count(1):
                if q ** (2 * r + 1) > GROUP_ORDER_LIMIT:
                    break
                for j in range(1, 15) if family == "ea" else [None]:
                    point = (family, None if family == "q8cp" else q, r, j)
                    try:
                        table1_params(*point)
                    except (ConstructionError, GroupError):
                        continue
                    points.append(point)
    return points


def test_tables_match_explicit_family_formulas():
    # the tables' explicit per-family closed forms, kept as the reference
    # for the one formula (Table 1) and recipe 2 applied to it (Table 2)
    points = _valid_family_points()
    assert len(points) == 42
    for family, q, r, j in points:
        if family == "q8cp":
            q = 2
        p, _ = prime_power(q)
        m, lam = q ** (2 * r), q ** (2 * r - 1)
        if family == "q8cp":
            t1 = (m, 2, m, lam, 2, lam - 2 ** r + 2 ** (r - 1),
                  lam + 2 ** (r - 1))
            t2 = (3, 4 ** r, 2, 4 ** r, 2 ** (r - 1) * (2 ** r + 1))
        elif family == "heis":
            t1 = (m, q, m, lam, q, lam - q ** r + q ** (r - 1),
                  lam + q ** (r - 1))
            t2 = (q + 1, m, q, m * (q - 1),
                  q ** (r - 1) * (q - 1) ** 2 * (q ** r + 1))
        else:
            t1 = (m, q, m, lam, p ** j - 1, lam + q ** r - q ** (r - 1),
                  lam - q ** (r - 1))
            t2 = (p ** j, m, q, m * (q - 1),
                  q ** (r - 1) * (q - 1) * (q ** r - 1) * (p ** j - 2))
        point = (family, None if family == "q8cp" else q, r, j)
        assert table1_params(*point) == t1, point
        assert table2_params(*point).astuple() == t2, point


def test_table_constraints():
    with pytest.raises(ConstructionError, match="odd"):
        table1_params("heis", q=2, r=1)
    with pytest.raises(ConstructionError, match="w = p\\^j - 1"):
        table1_params("ea", q=2, r=1, j=1)
    with pytest.raises(ConstructionError):
        table2_params("ea", q=3, r=1, j=2)  # j > i


@pytest.mark.parametrize("r", [0, -1, None])
@pytest.mark.parametrize("family,q,j", [("q8cp", None, None),
                                        ("heis", 3, None), ("ea", 3, 1)])
def test_rank_below_one_refused(family, q, j, r):
    # every family needs r >= 1: at r = 0 the ea formulas give fractions
    # and its group would be EA:3:1
    for build in (table1_params, table2_params, construct_family):
        with pytest.raises(ConstructionError, match=f"{family} needs r >= 1"):
            build(family, q=q, r=r, j=j)


# -- recipe 2 verification ---------------------------------------------------------------

def test_parts_are_self_inverse(q8_construction, heis_construction,
                                ea_construction):
    for con in (q8_construction, heis_construction, ea_construction):
        res = con.result
        P = ref_product_group(res)
        for part in res.parts:
            assert {int(P.inv[x]) for x in part} == set(part)


def test_part_sizes(q8_construction):
    L = q8_construction.system
    parts = q8_construction.result.parts
    assert len(parts[3]) == L.w * L.n * L.lam
    assert len(parts[4]) == L.w * L.n * L.lam * (L.n - 1)
    assert len(parts[3]) <= len(parts[4])


def test_scheme_valencies_24(q8_construction):
    scheme = q8_construction.result.scheme
    assert sorted(scheme.valencies.tolist()) == [1, 1, 6, 8, 8]


def test_triangle_identity_all_triples(q8_construction, heis_construction,
                                       ea_construction, example1_results):
    """|Z| p_XY^(Z^-1) = |X| p_YZ^(X^-1) = |Y| p_ZX^(Y^-1)."""
    partitions = [(ref_product_group(c.result), c.result.parts) for c in
                  (q8_construction, heis_construction, ea_construction)]
    partitions += [(r.group, r.parts) for r in example1_results]
    for G, parts in partitions:
        sizes = [len(p) for p in parts]
        p = cayley_scheme(G, parts).p
        inv_part = []
        for part in parts:
            inv_set = frozenset(int(G.inv[x]) for x in part)
            inv_part.append([frozenset(q) for q in parts].index(inv_set))
        r = len(parts)
        for x, y, z in itertools.product(range(r), repeat=3):
            lhs = sizes[z] * p[x, y, inv_part[z]]
            mid = sizes[x] * p[y, z, inv_part[x]]
            rhs = sizes[y] * p[z, x, inv_part[y]]
            assert lhs == mid == rhs


def test_constructed_params_satisfy_criterion(q8_construction, heis_construction,
                            ea_construction):
    # substituting the constructed parameters into the criterion forces
    # nu = (n lam -+ sqrt(n lam))/n, which the recovered nu satisfies
    for con in (q8_construction, heis_construction, ea_construction):
        L = con.system
        det = con.result.detection
        assert det.params.t == (L.n - 1) * (L.w - 1) * L.nu or \
            det.alt_params is not None
        plus, minus = semiregular_mu_nu(L.n, L.lam)
        assert QN(L.nu) in (plus[1], minus[1])


def test_example2_rejects_wrong_u(q8_construction):
    system = q8_construction.system
    c4 = build_family("C:4")
    with pytest.raises(ConstructionError, match="phi must map U"):
        example2_construct(system, GroupIsomorphism(c4, c4, (0, 1, 2, 3)))


def cayley_isomorphic(phi1, phi2, system):
    """The automorphism of G x U fixing G and twisting U by phi2^-1 phi1,
    checked to map recipe 2's parts under phi1 onto its parts under phi2:
    the scheme does not depend on phi."""
    res1, res2 = (example2_construct(system, phi) for phi in (phi1, phi2))
    twist = [phi2.map.index(phi1(u)) for u in range(phi1.source.order)]
    P = ref_product_group(res1)
    iso = GroupIsomorphism(P, P, tuple(
        g * len(twist) + t for g in range(system.group.order) for t in twist))
    assert [{iso(x) for x in p} for p in res1.parts] == \
        [set(p) for p in res2.parts]
    return iso


def test_cayley_isomorphism_two_phis(q8_construction, heis_construction,
                                     ea_construction):
    for con in (q8_construction, heis_construction, ea_construction):
        system = con.system
        winf = associate_group(system)
        autos = list(isomorphisms(winf, winf))
        assert len(autos) >= 2
        iso = cayley_isomorphic(autos[0], autos[1], system)
        assert iso.map != tuple(range(len(iso.map))) or autos[0].map == autos[1].map
        # identity phi pair gives the identity map
        ident = cayley_isomorphic(autos[0], autos[0], system)
        assert ident.map == tuple(range(len(ident.map)))


# -- file formats ---------------------------------------------------------------------------

def test_linked_system_file_roundtrip(tmp_path, q8_construction):
    system = q8_construction.system
    path = tmp_path / "sys.linked"
    write_linked_system(system, path)
    again = read_linked_system(path)
    assert again.params == system.params
    assert again.sets == system.sets
    assert again.chi == system.chi


@pytest.mark.parametrize("old, new", [(b"\n", b"\r\n"), (b"\n", b"\r"),
                                      (b" ", b"\x0b"), (b" ", b"\x0c \t"),
                                      (b"\n", b"\n\x0c\n")],
                         ids=["crlf", "cr", "vt", "ff-tab", "ff-lines"])
def test_linked_system_file_plain_layout(tmp_path, q8_construction, old, new):
    # the scheme file's plain layout: any line break and any blank
    system = q8_construction.system
    path = tmp_path / "sys.linked"
    write_linked_system(system, path)
    path.write_bytes(path.read_bytes().replace(old, new))
    again = read_linked_system(path)
    assert again.group.name == system.group.name
    assert again.forbidden.elements == system.forbidden.elements
    assert (again.params, again.sets, again.chi) == \
        (system.params, system.sets, system.chi)


def test_linked_file_errors(tmp_path):
    p = tmp_path / "bad.linked"
    p.write_text("C:4\n0 2\n")
    with pytest.raises(ConstructionError, match="short"):
        read_linked_system(p)
    p.write_text("C:4\n0 2\n2\n0 1\n0 1\n")
    with pytest.raises(ConstructionError, match="distinct"):
        read_linked_system(p)


@pytest.mark.parametrize("spec, parts, message", [
    ("C:4", [[0], [1, 3], [4]], "part element outside 0..3"),
    ("C:4", [[0], [1, 3], [-2]], "part element outside 0..3"),
    ("C:4", [[0], [1, 3]], "do not partition"),
    ("C:4", [[1], [0, 2, 3]], "identity singleton"),
    ("C:4", [[0], [1], [2, 3]], "inverse-closed"),
    ("C:5", [[0], [1, 4], [2], [3]], "not an S-ring"),
])
def test_cayley_scheme_rejects_bad_partitions(spec, parts, message):
    with pytest.raises(SchemeError, match=message):
        cayley_scheme(build_family(spec), parts)


def test_linked_system_file_needs_a_family_spec(tmp_path, q8_construction):
    # the file names its group by a family spec, so a group that no spec
    # rebuilds is refused rather than written as a file that reads back
    # as another group: an unnamed table, a name that is not a spec, and
    # Q8cp:1 with 0 and 1 swapped, which is not an automorphism
    system = q8_construction.system
    mul = build_family("Q8cp:1").mul
    same = np.arange(8)
    swap = np.array([1, 0, 2, 3, 4, 5, 6, 7])
    swapped = np.empty_like(mul)
    swapped[np.ix_(swap, swap)] = swap[mul]
    path = tmp_path / "sys.linked"
    for G, perm, message in [
            (FiniteGroup(mul), same, "has no family spec"),
            (FiniteGroup(mul, name="assoc:Q8cp:1"), same, "not a family spec"),
            (FiniteGroup(swapped, name="Q8cp:1"), swap,
             "rebuilds a different element order")]:
        N = G.subgroup(perm[list(system.forbidden.elements)])
        linked = verify_linked_system(
            G, N, [perm[list(s)] for s in system.sets])
        assert linked.params == system.params
        with pytest.raises(ConstructionError, match=message):
            write_linked_system(linked, path)
        assert not path.exists()
    # recipe 2 names its product over the abstract associate group "assoc"
    assert example2_construct(system).group_name == \
        "Prod:Q8cp:1,assoc"
