import dataclasses
import random

import numpy as np
import pytest

from higman import constructions
from higman.constructions import construct_family
from higman.groups import build_family
from higman.higmanian import (HigmanianParams, NotHigmanianError,
                              detect_higmanian, is_dismantlable,
                              is_uniform_by_criterion,
                              is_uniform_by_definition, uniformity_rhs,
                              verdict_bundle)
from higman.quadratic import QuadraticNumber as QN
from higman.schemes import (SchemeError, SchemeTable, cayley_scheme,
                            nontrivial_parabolics, restriction,
                            trivial_scheme, validate, wreath_product)
from conftest import DESK_POINTS
from test_schemes import nested_blocks, traced_peak
from test_tensor_reference import classes_of, wreath_checked


def rank5_wreath():
    w3 = wreath_product(trivial_scheme(2), trivial_scheme(2))
    return wreath_product(w3, wreath_product(trivial_scheme(2),
                                             trivial_scheme(2)))


def test_params_validation():
    assert HigmanianParams(3, 4, 2, 4, 3).v == 24
    with pytest.raises(ValueError):
        HigmanianParams(1, 4, 2, 4, 3)
    with pytest.raises(ValueError):
        HigmanianParams(3, 4, 2, 2, 3)  # k < mn - k
    with pytest.raises(ValueError):
        HigmanianParams(3, 4, 2, 9, 3)  # k > mn
    with pytest.raises(ValueError, match="k < mn"):
        HigmanianParams(3, 2, 2, 4, 0)  # k = mn leaves n_T = 0


def test_detect_rejects_wrong_rank():
    det = detect_higmanian(trivial_scheme(6))
    assert not det and "rank" in det.reason


def test_detect_rejects_triple_wreath():
    w = wreath_product(wreath_product(trivial_scheme(2), trivial_scheme(2)),
                       trivial_scheme(2))
    assert w.rank == 4
    det = detect_higmanian(w)
    assert not det


def test_detect_rejects_rank5_wreath():
    # the rank-5 wreath has more than two nontrivial parabolics, and the
    # reason names the count
    w = rank5_wreath()
    assert w.rank == 5 and w.is_symmetric()
    count = len(nontrivial_parabolics(w))
    assert count > 2
    det = detect_higmanian(w)
    assert not det
    assert det.reason == \
        f"{count} nontrivial parabolics, a Higmanian scheme has exactly 2"


def test_strict_flag_on_extra_parabolic_scheme():
    # the rank-5 wreath has more than two nontrivial parabolics; the strict
    # and lax modes that once parted on such a scheme are gone, since no
    # ordered pair of its parabolics forms the chain the lax mode sought:
    # rejecting on the count loses nothing
    w = rank5_wreath()
    parabolics = nontrivial_parabolics(w)
    assert len(parabolics) > 2
    assert not any(E.colors < F.colors and len(E.colors) == 2
                   and len(F.colors) == 3 and F.corank == 2
                   and E.corank == 3
                   for E in parabolics for F in parabolics)
    assert not detect_higmanian(w)
    with pytest.raises(TypeError):
        detect_higmanian(w, strict=False)


def icosahedron_scheme():
    """Distance scheme of the icosahedron: rank 4, and its one nontrivial
    parabolic, the antipodal pairs, has corank 2 (the quotient is K6)."""
    edges = [(0, 1 + i) for i in range(5)] + [(11, 6 + i) for i in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        edges += [(1 + i, 1 + j), (6 + i, 6 + j), (1 + i, 6 + i),
                  (1 + i, 6 + j)]
    adjacent = np.zeros((12, 12), dtype=int)
    for x, y in edges:
        adjacent[x, y] = adjacent[y, x] = 1
    dist, walks = np.zeros((12, 12), dtype=int), np.eye(12, dtype=int)
    for d in (1, 2, 3):
        walks = walks @ adjacent
        dist[(walks > 0) & (dist == 0)] = d
    np.fill_diagonal(dist, 0)
    return validate(dist)


def test_detect_rejects_chain_over_wreath_factor():
    # K2 wreath the icosahedron has just two nontrivial parabolics E < F,
    # with rk(E) = cork(F) = 2 and rk(F) = 3, but cork(E) = 4: E is a
    # wreath factor, and only the test of cork(E) rejects the scheme
    w = wreath_product(trivial_scheme(2), icosahedron_scheme())
    assert w.rank == 5 and w.is_symmetric()
    E, F = nontrivial_parabolics(w)
    assert (len(E.colors), F.corank, len(F.colors), E.corank) == (2, 2, 3, 4)
    assert wreath_checked(w, E)
    det = detect_higmanian(w)
    assert not det and "chain" in det.reason


def test_detect_rejects_nonsymmetric():
    from higman.groups import cyclic_group
    thin = cayley_scheme(cyclic_group(5), [[i] for i in range(5)])
    det = detect_higmanian(thin)
    assert not det and "symmetric" in det.reason


def test_detect_positive(q8_construction):
    det = detect_higmanian(q8_construction.result.scheme)
    assert det
    assert det.params.astuple() == (3, 4, 2, 4, 3)
    assert det.E.n_class == 2 and det.F.n_class == 8
    assert len(nontrivial_parabolics(q8_construction.result.scheme)) == 2
    # tie labeling: second tuple differs only in t
    assert det.alt_params.astuple() == (3, 4, 2, 4, 1)


def test_uniformity_rhs_examples():
    assert uniformity_rhs(3, 4, 2, 4) == (QN(3), QN(1))
    assert uniformity_rhs(4, 9, 3, 18) == (QN(16), QN(8))
    # f = 2 kills both candidates
    assert uniformity_rhs(2, 5, 3, 8) == (QN(0), QN(0))


def test_uniformity_rhs_product_identity():
    for f, m, n, k in ((3, 4, 2, 4), (4, 9, 3, 18), (5, 4, 3, 10),
                       (3, 2, 2, 3)):
        plus, minus = uniformity_rhs(f, m, n, k)
        from fractions import Fraction
        mn = m * n
        base = Fraction(k * (f - 2), mn)
        want = QN(base * base * ((mn - k) ** 2
                                 - Fraction(k * (mn - k), m * (n - 1))))
        assert plus * minus == want


def test_criterion():
    assert is_uniform_by_criterion(HigmanianParams(3, 4, 2, 4, 3))
    assert not is_uniform_by_criterion(HigmanianParams(3, 4, 2, 4, 2))
    assert is_uniform_by_criterion(HigmanianParams(2, 4, 2, 4, 0))
    assert is_uniform_by_criterion(HigmanianParams(2, 3, 3, 6, 0))
    assert is_uniform_by_criterion(HigmanianParams(4, 9, 3, 18, 16))
    assert is_uniform_by_criterion(HigmanianParams(4, 9, 3, 18, 8))
    assert not is_uniform_by_criterion(HigmanianParams(4, 9, 3, 18, 12))


def test_definition_per_parabolic(q8_construction):
    scheme = q8_construction.result.scheme
    e, f = nontrivial_parabolics(scheme)
    # cork(E) = 3, so the literal definition fails over E...
    res_e = is_uniform_by_definition(scheme, e)
    assert not res_e.ok and res_e.cork == 3
    # ...and holds over F, whose quotient is trivial, as route 4 does
    b = verdict_bundle(scheme)
    res_f = is_uniform_by_definition(scheme, f)
    assert res_f.ok and res_f.cork == 2 and b.dismantle_details[f.n_class].ok
    # the bundle runs route 2 over E, then F, which passes
    assert b.definition
    assert b.definition_details == {e.n_class: res_e, f.n_class: res_f}


def test_dismantlable(q8_construction):
    scheme = q8_construction.result.scheme
    e, f = nontrivial_parabolics(scheme)
    res = is_dismantlable(scheme, f)
    # a pass passes no union to `restriction`
    assert res.ok and res.witness is None and res.unions_checked == 0
    # the bundle runs route 4 over F first, which passes, so E is not tried
    b = verdict_bundle(scheme)
    assert b.dismantlable and b.dismantle_details == {f.n_class: res}


def test_dismantlable_fails_over_small_parabolic(q8_construction):
    # over E (12 classes of size 2) some unions do not induce schemes; the
    # scheme is dismantlable because F passes (existential wrapper)
    scheme = q8_construction.result.scheme
    e = nontrivial_parabolics(scheme)[0]
    res = is_dismantlable(scheme, e)
    assert not res.ok and res.witness is not None


def test_dismantlable_decides_fine_parabolic_exactly(heis_construction):
    # E of heis 3 1 has 36 classes, 2^36 - 1 unions: one pass decides it,
    # and `restriction` confirms a witness of at most 5 classes
    scheme = heis_construction.result.scheme
    e = nontrivial_parabolics(scheme)[0]
    assert e.num_classes == 36
    res = is_dismantlable(scheme, e)
    assert not res.ok and 1 <= len(res.witness) <= 5
    assert 1 <= res.unions_checked <= 2
    with pytest.raises(SchemeError):
        restriction(scheme,
                    [x for ci in res.witness for x in classes_of(e)[ci]])


def test_detection_forms_no_class(computed):
    # detection reads class sizes and coranks from the tensor, so on a
    # fresh table of q8cp r=4 (v = 1536) it forms no class; forming the
    # classes of its four parabolics peaks at about 4.9 MB
    result = constructions.example2_construct(
        constructions.q8cp_linked_system(4))
    assert computed["class_of"] == []
    scheme = result.scheme
    fresh = SchemeTable(scheme.color, scheme.p, scheme.inverse)
    det, peak = traced_peak(detect_higmanian, fresh)
    assert det and det.params == result.expected_params
    assert peak < 100_000 and computed["class_of"] == []


def test_bundle_forms_classes_once(q8_construction, computed):
    # on a uniform scheme route 2 stops at E's corank and passes at F, and
    # route 4 passes at F: only F's classes are formed, and only once, on
    # the F that detection hands to both routes; E and F each compute
    # their corank once
    scheme = q8_construction.result.scheme
    fresh = SchemeTable(scheme.color, scheme.p, scheme.inverse)
    det = verdict_bundle(fresh).detection
    assert det.F.class_of is det.F.class_of and det.E.corank == 3
    assert computed == {"corank": [det.E.colors, det.F.colors],
                        "class_of": [det.F.colors]}


def test_desk_op_computes_twelve_coranks(computed):
    # each desk point's construction detects E and F once (1 corank, on E)
    # and its bundle detects them again (E and F once each): 12 coranks
    # where recomputing on every access took 16, and one F's classes per
    # bundle
    bundles = [verdict_bundle(construct_family(family, **kw).result.scheme)
               for family, kw in DESK_POINTS]
    assert len(computed["corank"]) == 12
    assert computed["class_of"] == [b.detection.F.colors for b in bundles]


def test_verdict_bundle_uniform(q8_construction, heis_construction):
    for con in (q8_construction, heis_construction):
        b = verdict_bundle(con.result.scheme)
        assert b.consistent and b.uniform
        assert b.verdicts == (True, True, True, True)
        assert b.alt_agrees


def test_verct_bundle_rejects_non_higmanian():
    with pytest.raises(NotHigmanianError):
        verdict_bundle(trivial_scheme(4))
    with pytest.raises(NotHigmanianError):
        verdict_bundle(rank5_wreath())


def test_bundle_oracle(q8_construction):
    b = verdict_bundle(q8_construction.result.scheme, oracle=True)
    assert b.oracle is not None and b.oracle.max_abs_error < 1e-8


def octagon_scheme():
    """Distance scheme of the 8-cycle: rank 5, two nontrivial parabolics."""
    c8 = build_family("C:8")
    return cayley_scheme(c8, [[0], [1, 7], [2, 6], [3, 5], [4]])


def test_octagon_is_uniform_higmanian():
    scheme = octagon_scheme()
    det = detect_higmanian(scheme)
    assert det and det.params.astuple() == (2, 2, 2, 2, 0)
    b = verdict_bundle(scheme)
    assert b.consistent and b.uniform


def test_octagon_per_parabolic_asymmetry():
    # the corank-2 parabolic carries the uniform structure; the smaller
    # antipodal parabolic fails both the literal definition (cork 3) and
    # dismantlability, with a witness union of classes
    scheme = octagon_scheme()
    small, big = nontrivial_parabolics(scheme)
    assert (small.num_classes, big.num_classes) == (4, 2)
    res = is_uniform_by_definition(scheme, small)
    assert not res.ok and res.cork == 3
    dis = is_dismantlable(scheme, small)
    assert not dis.ok and dis.witness is not None
    assert is_uniform_by_definition(scheme, big).ok
    assert is_dismantlable(scheme, big).ok


def test_negative_search_consistency(negative_controls):
    """Small-group sweep: every Higmanian Cayley scheme found must have a
    consistent verdict bundle (the negative direction of the equivalence,
    when a non-uniform instance exists; all known small ones are uniform)."""
    assert negative_controls
    for parts, scheme, det in negative_controls:
        b = verdict_bundle(scheme)
        assert b.consistent
        assert b.uniform == is_uniform_by_criterion(det.params)


@pytest.mark.parametrize("route", [is_uniform_by_definition, is_dismantlable])
def test_route_peak_memory_per_cell(route):
    # v = 1024 and 4 classes of 256: each route forms its packed products
    # through one class at a time, a row block at a time, against the
    # values at one reference cell per cell set, and holds no v x v index
    # or product.  The parent took 14 (route 4) and 15.5 (route 2) bytes
    # a cell
    scheme = validate(nested_blocks(1024, (4, 256)))
    (parab,) = [e for e in nontrivial_parabolics(scheme)
                if e.num_classes == 4]
    result, peak = traced_peak(route, scheme, parab)
    assert result.ok
    assert peak <= 9 * scheme.v ** 2


def _relabeled(scheme: SchemeTable, rng: random.Random):
    """The scheme with its points permuted at random and its colors by a
    random sigma fixing 0, validated afresh; and sigma."""
    pi = np.array(rng.sample(range(scheme.v), scheme.v))
    sigma = [0] + rng.sample(range(1, scheme.rank), scheme.rank - 1)
    color = np.empty_like(scheme.color)
    color[np.ix_(pi, pi)] = np.asarray(sigma)[scheme.color]
    return validate(color), sigma


def _bundle_facts(bundle) -> tuple:
    return (bundle.params, bundle.verdicts,
            {n: dataclasses.asdict(res)
             for n, res in bundle.definition_details.items()},
            {n: dataclasses.asdict(res)
             for n, res in bundle.dismantle_details.items()},
            [str(rhs) for rhs in bundle.rhs_candidates], bundle.alt_agrees)


def test_verdicts_invariant_under_relabeling(constructions_by_family):
    # four relabelings of each of q8cp r = 1-3, heis q=3 r=1 and ea q=3:
    # the same parameters, verdicts, route results and right-hand sides,
    # and the canonical relation order carried through sigma
    rng = random.Random(41)
    points = [construct_family("q8cp", r=r) for r in (1, 2, 3)]
    points += [con for (family, _), con in constructions_by_family.items()
               if family != "q8cp"]
    for con in points:
        scheme = con.result.scheme
        want = verdict_bundle(scheme)
        for _ in range(4):
            relabeled, sigma = _relabeled(scheme, rng)
            got = verdict_bundle(relabeled)
            assert _bundle_facts(got) == _bundle_facts(want)
            assert got.detection.relation_order == tuple(
                sigma[c] for c in want.detection.relation_order)
