"""Exact spectral data of symmetric schemes.

For a Higmanian scheme everything is in closed form: the first eigenmatrix
has rows

    (1, n-1,  k(f-1), (mn-k)(f-1), mn-n)
    (1, -1,   x1,     -x1,         0)
    (1, n-1,  0,      0,           -n)
    (1, -1,   x3,     -x3,         0)
    (1, n-1,  -k,     -(mn-k),     mn-n)

where x1, x3 are the roots of

    x^2 + ((f-2)(mn-k) - t*mn/k) x - (f-1)k(mn-k)/(m(n-1)) = 0

with |x1| >= |x3|; row 0 is the valency vector, and the multiplicities
follow from P by row orthogonality.  All of it is computed over
QuadraticNumber, so uniformity decisions are exact; there is no exact
eigensolver for other schemes.  A floating-point oracle exists solely as an
independent cross-check of constructed schemes: it reads the spectrum of a
random element of the Bose-Mesner algebra from r Lanczos steps (whose
Krylov space closes there, as the element has r distinct eigenvalues), and
the multiplicities from its trace moments as Gauss quadrature weights,
with no v x v eigensolver and no v x v product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .quadratic import QuadraticNumber, quadratic_roots
from .schemes import SchemeTable

QN = QuadraticNumber


class SpectralError(ValueError):
    pass


@dataclass(frozen=True)
class EigenData:
    """First eigenmatrix (rows = idempotents, columns = relations),
    multiplicities and valencies, all exact."""

    P: tuple[tuple[QN, ...], ...]
    multiplicities: tuple[QN, ...]
    valencies: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.valencies)

    @property
    def v(self) -> int:
        return sum(self.valencies)

    def check(self) -> None:
        """Row 0 = valencies, multiplicities sum to v, column orthogonality."""
        r, v = self.rank, self.v
        if tuple(x.as_integer() if x.is_integer else None for x in self.P[0]) \
                != self.valencies:
            raise SpectralError("row 0 of P must be the valency vector")
        if sum(self.multiplicities, QN(0)) != QN(v):
            raise SpectralError("multiplicities do not sum to v")
        for m in self.multiplicities:
            if m.sign() <= 0:
                raise SpectralError("nonpositive multiplicity")
        for i in range(r):
            for k in range(i, r):
                s = QN(0)
                for j in range(r):
                    s = s + self.multiplicities[j] * self.P[j][i] * self.P[j][k]
                s = s / (self.valencies[i] * self.valencies[k])
                if (s != Fraction(v, self.valencies[i])) if i == k else s:
                    raise SpectralError(
                        f"column orthogonality fails at ({i},{k})")


@dataclass(frozen=True)
class KreinTensor:
    """Exact Krein parameters q_ij^k of a symmetric scheme."""

    q: tuple[tuple[tuple[QN, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.q)

    def entry(self, i: int, j: int, k: int) -> QN:
        return self.q[i][j][k]

    def negative_witness(self) -> tuple[int, int, int] | None:
        r = self.rank
        for i, j, k in itertools.product(range(r), repeat=3):
            if self.q[i][j][k].sign() < 0:
                return (i, j, k)
        return None

    def circ_closed(self, I: frozenset[int]) -> bool:
        """True when span{E_i : i in I} is closed under the Hadamard product."""
        outside = [k for k in range(self.rank) if k not in I]
        return not any(self.q[i][j][k]
                       for i in I for j in I for k in outside)


def eigenvalue_pair(params) -> tuple[QN, QN]:
    """Exact roots (x1, x3) of the defining quadratic, |x1| >= |x3|,
    ties broken by x1 > x3."""
    f, m, n, k, t = params.f, params.m, params.n, params.k, params.t
    if k <= 0:
        raise SpectralError("k must be positive")
    b = Fraction((f - 2) * (m * n - k)) - Fraction(t * m * n, k)
    c = -Fraction((f - 1) * k * (m * n - k), m * (n - 1))
    try:
        hi, lo = quadratic_roots(b, c)
    except ValueError as exc:
        raise SpectralError(
            f"no symmetric scheme with these parameters: {exc}") from None
    if abs(hi) > abs(lo) or (abs(hi) == abs(lo) and hi > lo):
        return hi, lo
    return lo, hi


def higmanian_eigenmatrix(params) -> tuple[tuple[QN, ...], ...]:
    """The closed-form 5x5 first eigenmatrix for the given parameters."""
    f, m, n, k = params.f, params.m, params.n, params.k
    x1, x3 = eigenvalue_pair(params)
    mn = m * n
    rows = (
        (QN(1), QN(n - 1), QN(k * (f - 1)), QN((mn - k) * (f - 1)), QN(mn - n)),
        (QN(1), QN(-1), x1, -x1, QN(0)),
        (QN(1), QN(n - 1), QN(0), QN(0), QN(-n)),
        (QN(1), QN(-1), x3, -x3, QN(0)),
        (QN(1), QN(n - 1), QN(-k), QN(-(mn - k)), QN(mn - n)),
    )
    return rows


def spectral_data(params) -> EigenData:
    """Full exact spectral data of a Higmanian parameter tuple."""
    P = higmanian_eigenmatrix(params)
    valencies = tuple(x.as_integer() for x in P[0])
    # On this P the general formula is the closed form: row 1 gives
    # sum_i P_1i^2/n_i = n/(n-1) + x1^2 mn/((f-1)k(mn-k)), so
    # m_1 = f(f-1)m(n-1)k(mn-k) / ((f-1)k(mn-k) + x1^2 m(n-1)), likewise
    # m_3 with x3, and rows 0, 2, 4 give 1, f(m-1), f-1.  Every n_i is
    # positive as k < mn, so no denominator vanishes.
    data = EigenData(P=P, multiplicities=multiplicity_check(P, valencies),
                     valencies=valencies)
    data.check()
    return data


def multiplicity_check(P: Sequence[Sequence[QN]],
                       valencies: Sequence[int]) -> tuple[QN, ...]:
    """Multiplicities recomputed from P alone: m_j = v (sum_i P_ji^2/n_i)^-1."""
    v = sum(valencies)
    out = []
    for row in P:
        s = QN(0)
        for i, n_i in enumerate(valencies):
            s = s + row[i] * row[i] / n_i
        if not s:
            raise SpectralError("zero denominator in multiplicity formula")
        out.append(QN(v) / s)
    return tuple(out)


def krein(P: Sequence[Sequence[QN]], multiplicities: Sequence[QN],
          valencies: Sequence[int]) -> KreinTensor:
    """q_ij^k = (m_i m_j / v) s_ijk with s_ijk = sum_l P_il P_jl P_kl / n_l^2,
    exactly.  s is symmetric in i, j, k, so it is formed once per sorted
    triple, and q_ij^k = q_ji^k once per sorted pair (i, j)."""
    r = len(valencies)
    v = sum(valencies)
    nl2 = [n_l * n_l for n_l in valencies]
    s = {}
    for i, j, k in itertools.combinations_with_replacement(range(r), 3):
        acc = QN(0)
        for l in range(r):
            acc = acc + P[i][l] * P[j][l] * P[k][l] / nl2[l]
        s[i, j, k] = acc
    q = [[()] * r for _ in range(r)]
    for i, j in itertools.combinations_with_replacement(range(r), 2):
        scale = multiplicities[i] * multiplicities[j] / v
        q[i][j] = q[j][i] = tuple(scale * s[tuple(sorted((i, j, k)))]
                                  for k in range(r))
    return KreinTensor(q=tuple(tuple(row) for row in q))


def sim_classes(I: frozenset[int], kr: KreinTensor) -> tuple[frozenset[int], ...]:
    """Classes of the relation i ~ j iff q_ij^k != 0 for some k in I,
    closed transitively."""
    r = kr.rank
    reach = np.array([[i == j or any(kr.q[i][j][k] for k in I)
                       for j in range(r)] for i in range(r)])
    for x in range(r):  # Warshall: paths through x
        reach |= reach[:, x:x + 1] & reach[x]
    classes = {frozenset(np.flatnonzero(row).tolist()) for row in reach}
    return tuple(sorted(classes, key=min))


@dataclass(frozen=True)
class QHigmanianVerdict:
    verdict: bool
    certificates: tuple[tuple[tuple[int, ...], int, int], ...]
    # each certificate is (idempotent ordering, l, f)

    def __bool__(self) -> bool:
        return self.verdict


def is_q_higmanian(multiplicities: Sequence[QN], kr: KreinTensor) -> QHigmanianVerdict:
    """Search idempotent orderings for the Q-Higmanian pattern.

    Position 0 stays on the principal idempotent; the last position ranges
    over indices z with {0, z} spanning a Hadamard-closed subalgebra; the
    middle positions are brute-forced (rank <= 5 in all targets).
    """
    r = kr.rank
    d = r - 1
    certs = []
    for z in range(1, r):
        I = frozenset({0, z})
        if not kr.circ_closed(I):
            continue
        f = sum((multiplicities[i] for i in I), QN(0))
        if not f.is_integer or f.as_integer() < 2:
            continue
        f_int = f.as_integer()
        classes = set(sim_classes(I, kr))
        middle = [i for i in range(1, r) if i != z]
        for perm in itertools.permutations(middle):
            ordering = (0,) + perm + (z,)
            for l in range(1, d // 2 + 1):
                expected = {frozenset({ordering[i], ordering[d - i]})
                            for i in range(l)}
                expected |= {frozenset({ordering[i]})
                             for i in range(l, d - l + 1)}
                if classes != expected:
                    continue
                if all(multiplicities[ordering[d - i]]
                       == multiplicities[ordering[i]] * (f_int - 1)
                       for i in range(l)):
                    certs.append((ordering, l, f_int))
    return QHigmanianVerdict(verdict=bool(certs), certificates=tuple(certs))


# -- floating-point oracle -----------------------------------------------------

@dataclass
class OracleResult:
    P: np.ndarray               # float eigenmatrix, rows matched to exact rows
    multiplicities: tuple[int, ...]
    max_abs_error: float


def float_eigen_oracle(scheme: SchemeTable, exact: EigenData,
                       relation_order: Sequence[int] | None = None
                       ) -> OracleResult:
    """Read the spectrum of the scheme numerically, from its color matrix
    and seeded random draws only, and match it to the exact eigenmatrix.

    M = sum_i w_i A_i lies in the rank-r Bose-Mesner algebra, so it has r
    distinct eigenvalues theta_j (for generic w) and the Krylov space of a
    start vector closes after r Lanczos steps.  The start is the unit
    vector e_x of a random point x.  The r Ritz vectors y_j of the r x r
    Lanczos matrix T are unit vectors of the r eigenspaces, so
    P_float[j, i] = y_j^T A_i y_j.  Every element of the algebra has a
    constant diagonal, so the trace moments are tr(M^p) = v (M^p)_xx =
    v sum_j s_j^2 theta_j^p, where s_j is the first component of T's j-th
    eigenvector: the multiplicities are m_j = v s_j^2 (Gauss quadrature
    weights), with no v x v product.  relation_order maps eigenmatrix
    columns to scheme colors (identity when omitted).  Raises when the
    Krylov space does not close at exactly r steps with r separated Ritz
    values in 10 draws, when a multiplicity is not an integer, or when the
    match is off by more than 1e-8.
    """
    order = list(relation_order) if relation_order is not None \
        else list(range(scheme.rank))
    r, v = scheme.rank, scheme.v
    for attempt in range(10):
        rng = np.random.default_rng(12345 + attempt)
        w = rng.uniform(1.0, 2.0, size=r)
        W = np.empty(r)
        W[order] = w
        M = W[scheme.color]
        start = np.zeros(v)
        start[rng.integers(v)] = 1.0
        ritz = _lanczos_ritz(M, start, r)
        if ritz is not None:
            break
    else:
        raise SpectralError("could not separate eigenspaces numerically")
    weights, Y = ritz
    del M  # v x v float64, freed before the per-color products

    # P_float[j, i] = y_j^T A_i y_j, one thin product A_i Y per color
    P_float = np.empty((r, r))
    for i, c in enumerate(order):
        P_float[:, i] = np.einsum("xj,xj->j", Y, (scheme.color == c) @ Y)

    dims = v * weights
    if np.abs(dims - np.rint(dims)).max() > 1e-6:
        raise SpectralError(
            f"trace moments give non-integer multiplicities {dims.tolist()}")

    # match rows to the exact eigenmatrix by valency-normalized profile
    n = np.array(exact.valencies, dtype=np.float64)
    exact_rows = np.array([[float(x) for x in row] for row in exact.P])
    best = None
    for perm in itertools.permutations(range(r)):
        err = np.abs(P_float[list(perm)] / n - exact_rows / n).max()
        if best is None or err < best[0]:
            best = (err, perm)
    err_norm, perm = best
    P_matched = P_float[list(perm)]
    mults = tuple(int(np.rint(dims[j])) for j in perm)
    max_err = float(np.abs(P_matched - exact_rows).max())
    if max_err > 1e-8:
        raise SpectralError(
            f"floating-point oracle disagrees with exact eigenmatrix "
            f"(max deviation {max_err:.3e})")
    for j in range(r):
        m = exact.multiplicities[j]
        if not m.is_integer or m.as_integer() != mults[j]:
            raise SpectralError(
                f"oracle multiplicity {mults[j]} != exact {m} at row {j}")
    return OracleResult(P=P_matched, multiplicities=mults, max_abs_error=max_err)


def _lanczos_ritz(M: np.ndarray, start: np.ndarray, r: int
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """Gauss weights s_j^2 and unit Ritz vectors of r Lanczos steps on the
    positive symmetric M from the unit vector start, each step
    reorthogonalized twice against the whole basis.  None unless the
    Krylov space closes at exactly r steps (residual at most
    1e-9 ||M||_inf) with r Ritz values more than 1e-6 max(1, |theta|)
    apart."""
    tol = 1e-9 * float(M.sum(axis=1).max())  # ||M||_inf, as M > 0
    Q = np.empty((len(start), r))
    alpha, beta = np.empty(r), np.empty(r)
    q = start
    for k in range(r):
        Q[:, k] = q
        z = M @ q
        alpha[k] = q @ z
        B = Q[:, :k + 1]
        for _ in range(2):  # twice is enough
            z -= B @ (B.T @ z)
        beta[k] = np.linalg.norm(z)
        if beta[k] <= tol:
            break
        q = z / beta[k]
    if k < r - 1 or beta[k] > tol:  # closes early, or not at r steps
        return None
    T = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    theta, S = np.linalg.eigh(T)
    if np.diff(theta).min(initial=np.inf) \
            <= 1e-6 * max(1.0, float(np.abs(theta).max())):
        return None
    return S[0] ** 2, Q @ S
