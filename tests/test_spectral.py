import types
from fractions import Fraction

import numpy as np
import pytest

from higman import spectral
from higman.higmanian import HigmanianParams
from higman.quadratic import QuadraticNumber as QN
from higman.spectral import (EigenData, SpectralError, _lanczos_ritz,
                             eigenvalue_pair, float_eigen_oracle,
                             higmanian_eigenmatrix, is_q_higmanian, krein,
                             multiplicity_check, sim_classes, spectral_data)
from test_tensor_reference import ref_higmanian_multiplicities

P24 = HigmanianParams(3, 4, 2, 4, 3)
P108 = HigmanianParams(4, 9, 3, 18, 16)
P24_BAD = HigmanianParams(3, 4, 2, 4, 2)  # violates the uniformity criterion


def test_eigenvalue_pair_24():
    # x^2 - 2x - 8 = 0
    assert eigenvalue_pair(P24) == (QN(4), QN(-2))


def test_eigenvalue_pair_108():
    # x^2 - 6x - 27 = 0
    assert eigenvalue_pair(P108) == (QN(9), QN(-3))


def test_eigenvalue_pair_irrational():
    x1, x3 = eigenvalue_pair(P24_BAD)
    assert x1 == QN(0, 2, 2) and x3 == QN(0, -2, 2)
    assert abs(x1) >= abs(x3)


def test_eigenvalue_vieta():
    for params in (P24, P108, P24_BAD, HigmanianParams(3, 2, 2, 3, 1)):
        f, m, n, k, t = params.astuple()
        x1, x3 = eigenvalue_pair(params)
        mn = m * n
        assert x1 * x3 == QN(-Fraction((f - 1) * k * (mn - k), m * (n - 1)))
        assert x1 + x3 == QN(-Fraction((f - 2) * (mn - k))
                             + Fraction(t * mn, k))


def test_negative_sign_of_product():
    # x1 x3 = -(f-1)k(mn-k)/(m(n-1)) < 0, so a repeated root is impossible
    for params in (P24, P108, P24_BAD):
        x1, x3 = eigenvalue_pair(params)
        assert (x1 * x3).sign() < 0
        assert x1 != x3


def test_eigenmatrix_rows():
    P = higmanian_eigenmatrix(P24)
    assert [x.as_integer() for x in P[0]] == [1, 1, 8, 8, 6]
    assert [x.as_integer() for x in P[2]] == [1, 1, 0, 0, -2]
    assert [x.as_integer() for x in P[4]] == [1, 1, -4, -4, 6]
    assert P[1][2] == QN(4) and P[1][3] == QN(-4)
    assert P[3][2] == QN(-2) and P[3][3] == QN(2)


def test_multiplicities_24():
    mults = spectral_data(P24).multiplicities
    assert [m.as_integer() for m in mults] == [1, 4, 9, 8, 2]
    assert sum(m.as_integer() for m in mults) == 24
    # m_3 = (f-1) m_1 and m_4 = (f-1) m_0 on this uniform instance
    assert mults[3] == mults[1] * 2
    assert mults[4] == mults[0] * 2


def test_multiplicities_108():
    mults = spectral_data(P108).multiplicities
    assert [m.as_integer() for m in mults] == [1, 18, 32, 54, 3]
    assert sum(m.as_integer() for m in mults) == 108


def test_m0_always_one():
    for params in (P24, P108, P24_BAD):
        assert spectral_data(params).multiplicities[0] == QN(1)


def test_multiplicity_check_agrees():
    # the general formula against the closed form it replaced
    for params in (P24, P108, P24_BAD):
        x1, x3 = eigenvalue_pair(params)
        P = higmanian_eigenmatrix(params)
        valencies = [x.as_integer() for x in P[0]]
        assert multiplicity_check(P, valencies) == \
            ref_higmanian_multiplicities(params, x1, x3)


def test_multiplicity_check_rank2():
    P = ((QN(1), QN(9)), (QN(1), QN(-1)))
    assert multiplicity_check(P, (1, 9)) == (QN(1), QN(9))


def test_spectral_data_validates():
    data = spectral_data(P24)
    data.check()
    assert data.v == 24
    broken = EigenData(P=data.P,
                       multiplicities=(QN(2),) + data.multiplicities[1:],
                       valencies=data.valencies)
    with pytest.raises(SpectralError):
        broken.check()


def test_krein_principal():
    data = spectral_data(P24)
    kr = krein(data.P, data.multiplicities, data.valencies)
    assert kr.entry(0, 0, 0) == QN(1)
    # E_0 acts as identity under the scaled Hadamard product:
    # q_0j^k = 1 when k = j, else 0
    for j in range(5):
        for k in range(5):
            assert kr.entry(0, j, k) == (QN(1) if j == k else QN(0))


def test_krein_vanishing_pattern():
    for params in (P24, P108):
        data = spectral_data(params)
        kr = krein(data.P, data.multiplicities, data.valencies)
        assert kr.entry(1, 3, 4) != QN(0)
        assert kr.entry(0, 4, 4) != QN(0)
        for i, j in ((1, 2), (2, 3), (0, 2), (2, 4), (0, 1), (0, 3),
                     (1, 4), (3, 4)):
            assert kr.entry(i, j, 0) == QN(0)
            assert kr.entry(i, j, 4) == QN(0)
        assert kr.negative_witness() is None


def test_sim_classes():
    for params in (P24, P108):
        data = spectral_data(params)
        kr = krein(data.P, data.multiplicities, data.valencies)
        assert sim_classes(frozenset({0, 4}), kr) == (
            frozenset({0, 4}), frozenset({1, 3}), frozenset({2}))
        # the largest I joins everything
        assert sim_classes(frozenset(range(5)), kr) == (frozenset(range(5)),)


def test_is_q_higmanian_positive():
    data = spectral_data(P24)
    kr = krein(data.P, data.multiplicities, data.valencies)
    res = is_q_higmanian(data.multiplicities, kr)
    assert res.verdict
    assert ((0, 1, 2, 3, 4), 2, 3) in res.certificates
    # ordering is essentially unique: certificates differ only in ways the
    # multiplicity condition allows
    assert len(res.certificates) == 1


def test_is_q_higmanian_negative():
    data = spectral_data(P24_BAD)
    kr = krein(data.P, data.multiplicities, data.valencies)
    assert [str(m) for m in data.multiplicities] == ['1', '6', '9', '6', '2']
    assert not is_q_higmanian(data.multiplicities, kr).verdict


def test_uniform_eigenvalue_identities():
    # on uniform instances: x1^2 - (f-1) x3^2 = (f-1)(f-2)k(mn-k)/(m(n-1))
    # and (x1, x3) = (+-sqrt((f-1)a), -+sqrt(a/(f-1)))
    for params in (P24, P108):
        f, m, n, k, t = params.astuple()
        mn = m * n
        a = Fraction((f - 1) * k * (mn - k), m * (n - 1))
        x1, x3 = eigenvalue_pair(params)
        assert x1 * x1 - x3 * x3 * (f - 1) == QN(a * (f - 2))
        roots = (QN.sqrt(a * (f - 1)), -QN.sqrt(Fraction(a, f - 1)))
        assert (x1, x3) in ((roots[0], roots[1]), (-roots[0], -roots[1]))


def test_q_higmanian_smoke_on_wreath():
    # verdict recorded, not asserted from theory: the rank-3 wreath of
    # trivial schemes (3 classes of 2 points) is uniform, hence Q-Higmanian
    P = tuple(tuple(QN(x) for x in row)
              for row in ((1, 1, 4), (1, 1, -2), (1, -1, 0)))
    valencies = (1, 1, 4)
    mults = multiplicity_check(P, valencies)
    kr = krein(P, mults, valencies)
    res = is_q_higmanian(mults, kr)
    assert isinstance(res.verdict, bool)
    assert res.verdict


def test_float_oracle(q8_construction):
    con = q8_construction
    data = spectral_data(con.result.detection.params)
    res = float_eigen_oracle(con.result.scheme, data,
                             relation_order=con.result.detection.relation_order)
    assert res.max_abs_error < 1e-8
    assert res.multiplicities == (1, 4, 9, 8, 2)


def test_float_oracle_desk_points(constructions_by_family):
    assert len(constructions_by_family) == 4
    for con in constructions_by_family.values():
        det = con.result.detection
        data = spectral_data(det.params)
        res = float_eigen_oracle(con.result.scheme, data,
                                 relation_order=det.relation_order)
        assert res.max_abs_error < 1e-8
        assert res.multiplicities == tuple(
            m.as_integer() for m in data.multiplicities)


def test_oracle_rejects_wrong_exact_data(q8_construction):
    scheme = q8_construction.result.scheme
    with pytest.raises(SpectralError):
        float_eigen_oracle(scheme, spectral_data(P108), range(scheme.rank))


def test_oracle_runs_no_dense_eigensolver(heis_construction, monkeypatch):
    # a v x v eigh (or eigvalsh) is the O(v^3) path; the Lanczos matrix is
    # the largest matrix the oracle may hand to an eigensolver
    shapes = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(spectral.np.linalg, name)
        monkeypatch.setattr(
            spectral.np.linalg, name,
            lambda a, *args, _solver=solver, **kw:
                shapes.append(np.shape(a)) or _solver(a, *args, **kw))
    scheme = heis_construction.result.scheme
    det = heis_construction.result.detection
    res = float_eigen_oracle(scheme, spectral_data(det.params),
                             relation_order=det.relation_order)
    assert res.max_abs_error < 1e-8
    assert scheme.v == 108 and shapes
    assert max(max(shape) for shape in shapes) <= scheme.rank


def test_lanczos_needs_closure_at_r_and_separated_ritz_values():
    start = np.full(5, 5 ** -0.5)
    weights, Y = _lanczos_ritz(np.diag([1.0, 2, 3, 4, 5]), start, 5)
    assert np.allclose(weights, 0.2) and np.allclose(np.abs(Y), np.eye(5))
    # closes after 3 steps; does not close after 5; Ritz values 2e-6 apart
    assert _lanczos_ritz(np.diag([1.0, 1, 2, 2, 3]), start, 5) is None
    assert _lanczos_ritz(np.diag(np.arange(1.0, 9)), np.full(8, 8 ** -0.5),
                         5) is None
    assert _lanczos_ritz(np.diag([1, 1 + 2e-6, 2, 3, 4]), start, 5) is None


@pytest.mark.parametrize("color, message", [
    # path on 4 points, distances capped at 2: M has 4 distinct eigenvalues
    ([[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]],
     "could not separate eigenspaces numerically"),
    # path on 3 points: 3 eigenvalues, but the idempotents have no constant
    # diagonal, so the Gauss weights at an end point are not m_j / v
    ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], "non-integer multiplicities"),
])
def test_oracle_rejects_color_matrices_of_non_schemes(color, message):
    color = np.array(color)
    not_a_scheme = types.SimpleNamespace(rank=3, v=len(color), color=color)
    with pytest.raises(SpectralError, match=message):
        float_eigen_oracle(not_a_scheme, spectral_data(P24),
                           range(not_a_scheme.rank))
