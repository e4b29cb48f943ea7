import random
import tracemalloc

import numpy as np
import pytest

from higman import groups
from higman.groups import (FiniteGroup, GroupError, GroupIsomorphism,
                           build_family, cosets, cyclic_group,
                           direct_product, elementary_abelian,
                           generalized_dihedral, gre_multiply,
                           gre_multiply_product, heisenberg_group,
                           isomorphisms, prime_power)

BUILTIN_SPECS = ["C:4", "C:6", "EA:2:2", "EA:3:2", "Q8cp:1", "Heis:3:1",
                 "GenDih:C:4", "Prod:C:2,C:4"]


def test_cyclic_group():
    c4 = build_family("C:4")
    assert c4.order == 4 and c4.is_abelian()
    assert c4.element_orders() == [1, 4, 2, 4]


def test_cyclic_table_reduced_in_place(monkeypatch):
    # the sum table is reduced in place, so forming C:2048's table holds one
    # n x n int32 array, not two; the group check is stubbed out, so only
    # the table arithmetic is measured
    monkeypatch.setattr(groups, "FiniteGroup", lambda mul, **kw: mul)
    tracemalloc.start()
    try:
        mul = cyclic_group(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mul[2047, 3] == 2 and mul.dtype == np.int32
    assert peak <= 1.25 * mul.nbytes


def test_q8():
    q8 = build_family("Q8cp:1")
    z = q8.center()
    assert q8.order == 8 and z.order == 2
    involutions = [x for x in range(8) if q8.element_order(x) == 2]
    assert involutions == [1] and 1 in z
    assert not q8.is_abelian()


def test_heisenberg_3_3():
    # order 27, exponent 3, center of order 3
    h = heisenberg_group(3, 1)
    assert h.order == 27
    assert h.center().order == 3
    assert max(h.element_orders()) == 3


def test_heisenberg_prime_power():
    h = heisenberg_group(4, 1)
    assert h.order == 64 and h.center().order == 4
    with pytest.raises(GroupError):
        heisenberg_group(6, 1)


def test_q8cp_quadratic_form():
    # g^2 is the sign Q(axes) of the sum of r copies of the anisotropic
    # form x0^2 + x0 x1 + x1^2 on F_2^2.  Its Arf invariant is r mod 2, so
    # Q is of minus type for odd r and of plus type for even r, and has
    # 2^(2r-1) + (-1)^r 2^(r-1) zeros: each zero gives the elements +-g
    # with g^2 = e
    for r, involutions in [(1, 2), (2, 20), (3, 56), (4, 272)]:
        g = build_family(f"Q8cp:{r}")
        assert g.order == 2 ** (2 * r + 1)
        assert g.center().elements == (0, 1)
        squares = g.mul[np.arange(g.order), np.arange(g.order)]
        assert set(squares.tolist()) == {0, 1}
        zeros = 2 ** (2 * r - 1) + (-1) ** r * 2 ** (r - 1)
        assert (squares == g.identity).sum() == 2 * zeros == involutions


def test_q8cp_table_memory():
    # the cocycle is XORed into the one n x n table, so Q8cp:5 peaks
    # below 2.5 times its 16 MiB int32 table, the group check included
    tracemalloc.start()
    try:
        g = build_family("Q8cp:5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.mul.nbytes == 16 << 20
    assert peak <= 2.5 * g.mul.nbytes


def test_generalized_dihedral():
    d8 = build_family("GenDih:C:4")
    assert d8.order == 8 and not d8.is_abelian()
    # u inverts the inner group and every outer element is an involution
    for g in range(4, 8):
        assert d8.element_order(g) == 2
    with pytest.raises(GroupError):
        generalized_dihedral(build_family("Q8cp:1"))


def test_product_and_nested_specs():
    g = build_family("Prod:Heis:3:1,C:4")
    assert g.order == 108
    g2 = build_family("Prod:C:2,Prod:C:2,C:2")
    assert g2.order == 8
    assert next(isomorphisms(g2, elementary_abelian(2, 3)), None)


def test_build_family_errors():
    with pytest.raises(GroupError):
        build_family("EA:4:2")  # 4 is not prime
    with pytest.raises(GroupError):
        build_family("Heis:6:1")  # not a prime power
    with pytest.raises(GroupError):
        build_family("GenDih:Q8cp:1")  # non-abelian inner group
    with pytest.raises(GroupError, match="unknown family spec"):
        build_family("Nope:3")
    with pytest.raises(GroupError, match="cannot parse product spec"):
        build_family("Prod:C:2,Nope:3")
    # numbers are 1 to 18 ASCII digits: no sign, blank, underscore or
    # other digit, and none past int64
    for spec in ["C:+4", "C: 4", "C:4_0", "C:\u0664", "EA:3:+2", "C:-4",
                 "C:" + "0" * 18 + "4", "Q8cp:" + "1" * 5000]:
        with pytest.raises(GroupError, match="bad spec, expected"):
            build_family(spec)


@pytest.mark.parametrize("spec", ["GenDih:" * 1200 + "C:2",
                                  "Prod:C:1," * 1200 + "C:1"],
                         ids=["GenDih", "Prod"])
def test_build_family_refuses_deep_specs(spec):
    # 1,200 levels would pass Python's recursion limit
    with pytest.raises(GroupError, match="more than 32 GenDih and Prod"):
        build_family(spec)


def test_build_family_at_the_head_limit():
    assert build_family("GenDih:" * 4 + "Prod:C:1," * 28 + "C:2").order == 32


def test_product_spec_split_once(monkeypatch):
    # the left factor of a Prod spec ends at the first comma with as many
    # Prod heads before it as commas; trying every comma would call
    # build_family exponentially often on this unparseable spec
    calls = []
    build = groups.build_family

    def counted(spec):
        calls.append(spec)
        assert len(calls) < 1000, "build_family called too often"
        return build(spec)

    monkeypatch.setattr(groups, "build_family", counted)
    with pytest.raises(GroupError, match="cannot parse product spec"):
        counted("Prod:" * 10 + "C:1," * 20 + "C:1")
    assert len(calls) <= 1 + 2 * 10  # the spec, and two sides per head
    calls.clear()
    assert counted("Prod:Prod:C:2,C:3,Prod:C:5,GenDih:C:3").order == 180
    assert calls[1:] == ["Prod:C:2,C:3", "C:2", "C:3", "Prod:C:5,GenDih:C:3",
                         "C:5", "GenDih:C:3", "C:3"]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    # trial division stops at sqrt(q)
    assert prime_power(1000000007) == (1000000007, 1)
    assert prime_power(3 ** 20) == (3, 20)
    for bad in (1, 6, 12, 100, 1000003 * 1000033):
        with pytest.raises(GroupError):
            prime_power(bad)


def test_large_group_spot_checked():
    # associativity is decided exactly at every order, here by Light's test
    # on the single generator 1; the table is a valid group
    g = cyclic_group(600)
    assert g.order == 600 and g.identity == 0
    assert g.element_order(1) == 600


def test_bad_tables_rejected():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [0, 1]])  # no identity
    # non-associative Latin square (order 5 loop)
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError):
        FiniteGroup(loop)


def test_subgroup_validation():
    c6 = cyclic_group(6)
    h = c6.subgroup([0, 2, 4])
    assert h.order == 3
    with pytest.raises(GroupError):
        c6.subgroup([0, 2])  # not closed
    with pytest.raises(GroupError):
        c6.subgroup([2, 4])  # missing identity


def test_cosets():
    q8 = build_family("Q8cp:1")
    z = q8.center()
    blocks = cosets(q8, z)
    assert len(blocks) == 4 and all(len(b) == 2 for b in blocks)
    assert cosets(q8, q8.subgroup(range(8))) == [tuple(range(8))]
    triv = q8.subgroup([0])
    assert cosets(q8, triv) == [(x,) for x in range(8)]


def test_gre_identities():
    q8 = build_family("Q8cp:1")
    xs = [0, 2, 4, 6]
    indicator = np.bincount(xs, minlength=8)
    # {e} is the unit on both sides
    assert (gre_multiply(q8, [q8.identity], xs) == indicator).all()
    assert (gre_multiply(q8, xs, [q8.identity]) == indicator).all()
    # X * X^(-1) for the (4,2,4,2)-RDS {1,i,j,k}: 4e + 2(G - N)
    prod = gre_multiply(q8, xs, q8.inv[xs])
    expect = np.full(8, 2, dtype=np.int64)
    expect[0], expect[1] = 4, 0
    assert prod.dtype == np.int64 and (prod == expect).all()
    # repeated elements count once per occurrence; empty sets give zero
    assert (gre_multiply(q8, xs + xs, [0]) == 2 * indicator).all()
    assert (gre_multiply(q8, [], xs) == 0).all()


def test_isomorphisms():
    c4 = cyclic_group(4)
    ea = elementary_abelian(2, 2)
    assert next(isomorphisms(c4, ea), None) is None
    assert next(isomorphisms(build_family("GenDih:C:2"), ea), None)
    c3 = cyclic_group(3)
    assert len(list(isomorphisms(c3, c3))) == 2
    assert len(list(isomorphisms(c4, c4))) == 2


def test_isomorphism_validation():
    c4 = cyclic_group(4)
    with pytest.raises(GroupError):
        GroupIsomorphism(c4, c4, (0, 2, 1, 3))  # not a homomorphism


@pytest.mark.parametrize("mul, message", [
    (np.zeros((0, 0), dtype=int), "square, not empty"),
    (np.zeros((2, 3), dtype=int), "square, not empty"),
    ([[0, 1], [1, -1]], "out of range"),
    ([[0, 1], [1, 2]], "out of range"),
])
def test_table_shape_and_range_rejected(mul, message):
    with pytest.raises(GroupError, match=message):
        FiniteGroup(mul)


# -- the exact group check, against the per-element loops it replaced ----------

def _loop_group_check(mul):
    """Identity and inverses of a table by scanning each element, and
    associativity over all triples; raises GroupError with the messages of
    FiniteGroup."""
    mul = np.asarray(mul)
    n = len(mul)
    rng = np.arange(n)
    ids = [i for i in range(n)
           if (mul[i] == rng).all() and (mul[:, i] == rng).all()]
    if len(ids) != 1:
        raise GroupError("table has no two-sided identity")
    e = ids[0]
    xs, ys = np.nonzero(mul == e)
    inv = np.full(n, -1)
    for x, y in zip(xs, ys):
        if mul[y, x] != e:
            continue
        if inv[x] not in (-1, y):
            raise GroupError(f"element {x} has two inverses")
        inv[x] = y
    if (inv < 0).any():
        raise GroupError("some element has no two-sided inverse")
    for i in range(n):
        if not (mul[mul[i], :] == mul[i][mul]).all():
            j, k = np.argwhere(mul[mul[i], :] != mul[i][mul])[0]
            raise GroupError(f"associativity fails at ({i},{j},{k})")
    return e, inv


def _bfs_closure(G, gens):
    """The subgroup generated by gens, by breadth-first search."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (int(G.mul[x, g]), int(G.mul[g, x])):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def _loop_generating_sequence(G):
    gens = []
    closure = {G.identity}
    for x in range(G.order):
        if x not in closure:
            gens.append(x)
            closure = set(_bfs_closure(G, gens))
            if len(closure) == G.order:
                break
    return gens


def _intercalate(n, a, c):
    """C:n with the 2x2 subsquare at rows a, a+n/2 and columns c, c+n/2
    swapped: still a Latin square with identity 0."""
    mul = np.add.outer(np.arange(n), np.arange(n)) % n
    rows, cols = [a, a + n // 2], [c, c + n // 2]
    mul[np.ix_(rows, cols)] = mul[np.ix_(rows, cols)][::-1]
    return mul


_LOOP5 = [[0, 1, 2, 3, 4],
          [1, 0, 3, 4, 2],
          [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1],
          [4, 3, 1, 2, 0]]


def _check_tables():
    tables = {spec: build_family(spec).mul for spec in BUILTIN_SPECS}
    tables["loop5"] = np.array(_LOOP5)
    # the loop times C:3: the first generator (0,1) passes Light's test and
    # the second, (1,0), fails
    tables["loop5xC3"] = (np.array(_LOOP5)[:, None, :, None] * 3
                          + cyclic_group(3).mul[None, :, None, :]
                          ).reshape(15, 15)
    tables["no-identity"] = np.array([[0, 1], [0, 1]])
    tables["left-identity-only"] = np.array([[0, 1], [0, 0]])
    tables["right-identity-only"] = np.array([[0, 0], [1, 0]])
    tables["no-inverse"] = np.array([[0, 1], [1, 1]])
    tables["two-inverses"] = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    for n in range(4, 65, 2):
        for a, c in ((1, 1), (1, n // 2 - 1), (n // 4, 1)):
            tables[f"C:{n} swap {a},{c}"] = _intercalate(n, a, c)
    return tables


def _assert_genuine_witness(mul, message):
    x, g, y = map(int, message.split("(")[1].rstrip(")").split(","))
    assert mul[mul[x, g], y] != mul[x, mul[g, y]]


@pytest.mark.parametrize("name, mul", sorted(_check_tables().items()))
def test_exact_check_matches_full_loop(name, mul):
    try:
        want = _loop_group_check(mul)
    except GroupError as exc:
        with pytest.raises(GroupError) as got:
            FiniteGroup(mul)
        if "associativity" in str(exc):
            assert str(got.value).startswith("associativity fails at (")
            _assert_genuine_witness(mul, str(got.value))
        else:
            assert str(got.value) == str(exc)
        return
    G = FiniteGroup(mul)
    assert G.identity == want[0]
    assert (G.inv == want[1]).all()


def test_inverse_faults_found_in_a_later_block():
    # the inverse scan takes rows 0-872 and 873-1199 of C:1200 in two
    # blocks; both faults sit in the second
    two = np.add.outer(np.arange(1200), np.arange(1200)) % 1200
    none = two.copy()
    two[[900, 1000], [1000, 900]] = 0
    none[1100, 100] = 1
    for mul, message in [(two, "element 900 has two inverses"),
                         (none, "some element has no two-sided inverse")]:
        for check in (_loop_group_check, FiniteGroup):
            with pytest.raises(GroupError) as exc:
                check(mul)
            assert str(exc.value) == message


def test_intercalate_600_rejected():
    # a Latin square with identity 0 and unique inverses; 9,536 of its 600^3
    # triples are not associative, so a 1000-triple sample misses them
    mul = _intercalate(600, 1, 1)
    with pytest.raises(GroupError, match="associativity fails") as exc:
        FiniteGroup(mul)
    _assert_genuine_witness(mul, str(exc.value))


def test_blocked_check_names_a_later_row():
    # at order 2048 the rows are compared in blocks of 512; the first
    # failure sits in the second block
    mul = _intercalate(2048, 1000, 3)
    with pytest.raises(GroupError, match="associativity fails") as exc:
        FiniteGroup(mul)
    assert int(str(exc.value).split("(")[1].split(",")[0]) >= 512
    _assert_genuine_witness(mul, str(exc.value))


FAMILY_SPECS = ["C:1", "C:12", "EA:2:4", "EA:3:3", "Heis:2:1", "Heis:2:2",
                "Heis:3:1", "Heis:4:1", "Q8cp:1", "Q8cp:2", "GenDih:C:6",
                "GenDih:EA:3:2", "Prod:C:2,C:4", "Prod:Heis:3:1,C:4",
                "Prod:Q8cp:1,C:3"]


def test_cosets_and_isomorphism_guards():
    G, H = build_family("C:4"), build_family("C:4")
    with pytest.raises(GroupError) as exc:
        cosets(G, H.subgroup([0, 2]))
    assert str(exc.value) == "subgroup belongs to a different group"
    with pytest.raises(GroupError) as exc:
        GroupIsomorphism(G, G, (0, 0, 1, 2))
    assert str(exc.value) == "map is not a bijection"


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_generators_and_closure_match_search(spec):
    G = build_family(spec)
    assert list(G.generators) == _loop_generating_sequence(G)
    assert len(G.generators) <= (G.order - 1).bit_length()
    for x in range(G.order):
        assert G.generated_subgroup([x]).elements == _bfs_closure(G, [x])
    rng = random.Random(3)
    for _ in range(20):
        gens = rng.sample(range(G.order), min(G.order, 2))
        assert G.generated_subgroup(gens).elements == _bfs_closure(G, gens)


def _relabelled(G, perm):
    """G with element x renamed perm[x], checked as a new table."""
    perm = np.asarray(perm)
    mul = np.empty_like(G.mul)
    mul[np.ix_(perm, perm)] = perm[G.mul]
    return FiniteGroup(mul, name=f"{G.name}'")


def _assert_matches_checked(P):
    G = FiniteGroup(P.mul)
    assert P.mul.dtype == P.inv.dtype == np.int32
    assert not P.mul.flags.writeable and not P.inv.flags.writeable
    assert (P.mul == G.mul).all() and P.identity == G.identity
    assert (P.inv == G.inv).all() and P.generators == G.generators


PRODUCT_SPECS = ["Prod:C:2,C:4", "Prod:C:2,C:2", "Prod:C:2,Prod:C:2,C:2",
                 "Prod:C:2,C:6", "Prod:C:4,C:4", "Prod:Heis:3:1,C:4",
                 "Prod:Q8cp:1,C:3", "Prod:Heis:3:2,C:4"]


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
def test_product_specs_match_checked_constructor(spec):
    _assert_matches_checked(build_family(spec))


def test_derived_products_match_checked_constructor():
    q8, s3 = build_family("Q8cp:1"), build_family("GenDih:C:3")
    made = [direct_product(q8, q8), direct_product(build_family("Q8cp:2"), q8)]
    assert [P.order for P in made] == [64, 256]
    # identities away from index 0, and non-abelian factors on both sides
    c3r = _relabelled(cyclic_group(3), [2, 0, 1])
    q8r = _relabelled(q8, [5, 3, 0, 7, 1, 6, 2, 4])
    assert c3r.identity == 2 and q8r.identity == 5
    for A, B in [(c3r, q8r), (q8r, c3r), (q8r, q8r), (q8, s3), (s3, q8r)]:
        made.append(direct_product(A, B))
    for P in made:
        _assert_matches_checked(P)


def test_gre_multiply_product_matches_the_product_table(monkeypatch):
    # the counts on A x B from the factors' tables, in blocks of one row
    # of xs, of a few and of all, are those of the materialized table:
    # identities away from index 0, non-abelian factors on either side,
    # repeated elements and empty sides
    rng = random.Random(3)
    q8r = _relabelled(build_family("Q8cp:1"), [5, 3, 0, 7, 1, 6, 2, 4])
    s3 = build_family("GenDih:C:3")
    for A, B in [(q8r, s3), (s3, q8r), (cyclic_group(5), cyclic_group(1)),
                 (cyclic_group(1), s3)]:
        P = direct_product(A, B)
        for size in (0, 1, 7, 30, 30, 30):
            xs = [rng.randrange(P.order) for _ in range(size)]
            ys = [rng.randrange(P.order) for _ in range(rng.randrange(40))]
            want = gre_multiply(P, xs, ys)
            for entries in (1, 50, groups.BLOCK_ENTRIES):
                monkeypatch.setattr(groups, "BLOCK_ENTRIES", entries)
                assert (gre_multiply_product(A, B, xs, ys) == want).all()
            monkeypatch.undo()


def test_recipe2_products_match_checked_constructor(constructions_by_family):
    # imported here: test_tensor_reference imports this module
    from test_tensor_reference import ref_product_group
    for con in constructions_by_family.values():
        _assert_matches_checked(ref_product_group(con.result))


@pytest.mark.parametrize("spec, gens", [
    ("C:4", (1, 4, 12, 36, 108, 324)),
    ("EA:2:2", (1, 2, 4, 12, 36, 108, 324))])
def test_product_generators_computed_on_first_use(monkeypatch, spec, gens):
    A, B = build_family("Heis:3:2"), build_family(spec)
    calls = []
    closure = groups._closure

    def counting(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(groups, "_closure", counting)
    P = direct_product(A, B)
    assert not calls
    assert P.generators == gens
    assert calls


def test_group_check_transients_bounded():
    # the identity and inverse scans, Light's test and each closure compare
    # blocks of at most 2^20 entries; one n x n bool would be 16.8 MB here.
    # x*y = x + y + 1 mod n puts the identity, n - 1, in the last block.
    idx = np.arange(4096, dtype=np.int32)
    mul = (idx[:, None] + idx + 1) % 4096
    tracemalloc.start()
    try:
        G = FiniteGroup(mul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.identity == 4095 and G.generators == (0,)
    assert (G.inv == (-idx - 2) % 4096).all()
    assert peak <= 12 * 10 ** 6


def test_closure_gathers_every_block():
    # R = K u Kg, with K = 1 x C:768 at indices 0-767 and Kg at 768-1535,
    # is multiplied in row blocks of 682.  The first block lies in K, so
    # only the products of the later blocks, which reach into Kg, leave R.
    G = build_family("Prod:C:3,C:768")
    assert len(groups._closure(G.mul, range(1536))) == G.order
