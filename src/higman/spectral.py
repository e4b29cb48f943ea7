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
follow from P by row orthogonality.  All of it is exact, so uniformity
decisions are exact; there is no exact eigensolver for other schemes.
P is built from QuadraticNumber values, but the multiplicities, their
check, the Krein tensor and its zero pattern, and the Q-Higmanian search
run on one integer-pair kernel: each entry of P and each multiplicity is
written (a + b sqrt(D)) / d over one common d and one square-free D, a
product of pairs is (a1 a2 + b1 b2 D, a1 b2 + a2 b1), and a weight such as
1/n_l^2 is folded into one common N = lcm(n_l^2).  Only Python integers
are used, so nothing rounds or overflows, and each result becomes one
canonical QuadraticNumber through `QuadraticNumber.from_integers`: the
values are those QuadraticNumber arithmetic gives.  Values from two
quadratic fields raise the error that arithmetic raises on them.

A floating-point oracle exists solely as an independent cross-check of
constructed schemes: it reads the spectrum of a random element of the
Bose-Mesner algebra from r Lanczos steps (whose Krylov space closes there,
as the element has r distinct eigenvalues), and the multiplicities from
its trace moments as Gauss quadrature weights, with no v x v eigensolver
and no v x v product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .quadratic import QuadraticNumber, quadratic_roots
from .schemes import SchemeTable

QN = QuadraticNumber
_ZERO = QN(0)


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
        """Row 0 = valencies, multiplicities sum to v, and column
        orthogonality sum_j m_j P_ji P_jk = v n_i [i = k], on the integer
        form: with m_j = mu_j / d and P_ji = p_ji / d, the pair sums
        sum_j mu_j p_ji p_jk must be (v n_i d^3 [i = k], 0)."""
        r, v = self.rank, self.v
        if tuple(x.as_integer() if x.is_integer else None for x in self.P[0]) \
                != self.valencies:
            raise SpectralError("row 0 of P must be the valency vector")
        _, d, mults = _integer_form(m.integers() for m in self.multiplicities)
        if sum(a for a, _ in mults) != v * d or sum(b for _, b in mults):
            raise SpectralError("multiplicities do not sum to v")
        for m in self.multiplicities:
            if m.sign() <= 0:
                raise SpectralError("nonpositive multiplicity")
        # one form for both, multiplicities first
        D, d, flat = _integer_form(x.integers() for x in itertools.chain(
            self.multiplicities, *self.P))
        mults, rows = flat[:r], [flat[r + j * r:r + (j + 1) * r]
                                 for j in range(r)]
        # mu_j p_ji for every j and i
        mp = [[(x * a + y * b * D, x * b + y * a) for a, b in row]
              for (x, y), row in zip(mults, rows)]
        target = v * d ** 3
        for i in range(r):
            for k in range(i, r):
                X = Y = 0
                for j in range(r):
                    (a1, b1), (a2, b2) = mp[j][i], rows[j][k]
                    X += a1 * a2 + b1 * b2 * D
                    Y += a1 * b2 + a2 * b1
                if Y or X != (target * self.valencies[i] if i == k else 0):
                    raise SpectralError(
                        f"column orthogonality fails at ({i},{k})")


@dataclass(frozen=True)
class KreinTensor:
    """Exact Krein parameters q_ij^k of a symmetric scheme, and their zero
    pattern: ``nonzero[i][j][k]`` is whether q_ij^k != 0."""

    q: tuple[tuple[tuple[QN, ...], ...], ...]
    nonzero: tuple[tuple[tuple[bool, ...], ...], ...] = field(
        repr=False, compare=False)

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
        return not any(self.nonzero[i][j][k]
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


def _integer_form(parts: Iterable[tuple[int, int, int, int]]
                  ) -> tuple[int, int, list[tuple[int, int]]]:
    """Values given by the integers (a, b, den, D) of (a + b sqrt(D)) / den,
    as `QuadraticNumber.integers` gives them, on one integer form: (D, d,
    pairs) with each value (a' + b' sqrt(D)) / d for its pair (a', b'),
    over one square-free D >= 0 and one common denominator d > 0.  Values
    with radicals from two quadratic fields raise the error
    QuadraticNumber arithmetic raises when it mixes them."""
    parts = list(parts)
    D = 0
    for _, b, _, Dx in parts:
        if b and Dx != D:
            if D:
                raise ValueError(
                    f"incompatible radicals sqrt({D}), sqrt({Dx})")
            D = Dx
    d = math.lcm(*[den for _, _, den, _ in parts])
    return D, d, [(a * (d // den), b * (d // den)) for a, b, den, _ in parts]


def multiplicity_check(P: Sequence[Sequence[QN]],
                       valencies: Sequence[int]) -> tuple[QN, ...]:
    """Multiplicities recomputed from P alone: m_j = v (sum_i P_ji^2/n_i)^-1.

    Row j needs only the squares (a^2 + b^2 D + 2ab sqrt(D)) / den^2 of its
    entries, which go on one integer form (D, d, pairs).  With N = lcm(n_i)
    the sum is (X + Y sqrt(D)) / (d N) for (X, Y) = sum_i (N/n_i) pair_i,
    so m_j = v d N (X - Y sqrt(D)) / (X^2 - Y^2 D)."""
    v = sum(valencies)
    N = math.lcm(*valencies)
    w = [N // n_i for n_i in valencies]
    out = []
    for row in P:
        D, d, squares = _integer_form(
            (a * a + b * b * Dx, 2 * a * b, den * den, Dx)
            for a, b, den, Dx in (x.integers() for x in row))
        X = sum(w_i * a for w_i, (a, _) in zip(w, squares))
        Y = sum(w_i * b for w_i, (_, b) in zip(w, squares))
        if not (X or Y):
            raise SpectralError("zero denominator in multiplicity formula")
        scale = v * d * N
        out.append(QN.from_integers(scale * X, -scale * Y,
                                    X * X - Y * Y * D, D))
    return tuple(out)


def krein(P: Sequence[Sequence[QN]], multiplicities: Sequence[QN],
          valencies: Sequence[int]) -> KreinTensor:
    """q_ij^k = (m_i m_j / v) s_ijk with s_ijk = sum_l P_il P_jl P_kl / n_l^2,
    exactly, on the integer forms P_il = p_il / d and m_i = mu_i / e.  With
    N = lcm(n_l^2), s_ijk = S_ijk / (d^3 N) for the pair sum
    S_ijk = sum_l (N/n_l^2) p_il p_jl p_kl, and q_ij^k =
    mu_i mu_j S_ijk / (v N d^3 e^2).  S is symmetric in i, j, k, so it is
    formed once per sorted triple, and q_ij^k = q_ji^k once per sorted pair
    (i, j).  P and the multiplicities may lie in two quadratic fields as
    long as no product of m_i m_j and s_ijk mixes their radicals."""
    r = len(valencies)
    N = math.lcm(*(n_l * n_l for n_l in valencies))
    w = [N // (n_l * n_l) for n_l in valencies]
    D, d, flat = _integer_form(x.integers() for row in P for x in row)
    rows = [flat[j * r:(j + 1) * r] for j in range(len(P))]
    S = {}
    for i, j in itertools.combinations_with_replacement(range(r), 2):
        # (N/n_l^2) p_il p_jl for every l
        e = [(w_l * (a1 * a2 + b1 * b2 * D), w_l * (a1 * b2 + a2 * b1))
             for w_l, (a1, b1), (a2, b2) in zip(w, rows[i], rows[j])]
        for k in range(j, r):
            X = Y = 0
            for (a1, b1), (a2, b2) in zip(e, rows[k]):
                X += a1 * a2 + b1 * b2 * D
                Y += a1 * b2 + a2 * b1
            S[i, j, k] = X, Y
    Dm, dm, mults = _integer_form(m.integers() for m in multiplicities)
    den = sum(valencies) * N * d ** 3 * dm * dm
    q = [[()] * r for _ in range(r)]
    nonzero = [[()] * r for _ in range(r)]
    for i, j in itertools.combinations_with_replacement(range(r), 2):
        (a1, b1), (a2, b2) = mults[i], mults[j]
        x, y = a1 * a2 + b1 * b2 * Dm, a1 * b2 + a2 * b1
        nums = []
        for k in range(r):
            X, Y = S[(k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)]
            if y and Y and Dm != D:
                raise ValueError(
                    f"incompatible radicals sqrt({Dm}), sqrt({D})")
            Dq = Dm if y else D  # the field of the product
            nums.append((x * X + y * Y * Dq, x * Y + y * X, Dq))
        # most q_ij^k vanish, and one zero serves them all
        q[i][j] = q[j][i] = tuple(QN.from_integers(A, B, den, Dq)
                                  if A or B else _ZERO for A, B, Dq in nums)
        nonzero[i][j] = nonzero[j][i] = tuple(bool(A or B)
                                              for A, B, _ in nums)
    return KreinTensor(q=tuple(map(tuple, q)),
                       nonzero=tuple(map(tuple, nonzero)))


def sim_classes(I: frozenset[int], kr: KreinTensor) -> tuple[frozenset[int], ...]:
    """Classes of the relation i ~ j iff q_ij^k != 0 for some k in I,
    closed transitively.  The relation is symmetric, as q_ij^k = q_ji^k,
    so its classes are the connected components, found from their least
    members in turn."""
    r = kr.rank
    classes = []
    unseen = set(range(r))
    while unseen:
        start = min(unseen)
        unseen.discard(start)
        comp, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in [j for j in unseen
                      if any(kr.nonzero[i][j][k] for k in I)]:
                unseen.discard(j)
                comp.add(j)
                stack.append(j)
        classes.append(frozenset(comp))
    return tuple(classes)


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
    # m_i = mu_i / den on the integer form, so sums and multiples of
    # multiplicities compare as pairs of integers
    _, den, mults = _integer_form(m.integers() for m in multiplicities)
    certs = []
    for z in range(1, r):
        I = frozenset({0, z})
        if not kr.circ_closed(I):
            continue
        fa, fb = (sum(pair) for pair in zip(*(mults[i] for i in I)))
        if fb or fa % den or fa // den < 2:
            continue
        f_int = fa // den
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
                if all(mults[ordering[d - i]]
                       == tuple(c * (f_int - 1) for c in mults[ordering[i]])
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
                       relation_order: Sequence[int]) -> OracleResult:
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
    columns to scheme colors.  The rows of P_float are matched to the
    exact rows by the first row permutation, in lexicographic order, of
    least valency-normalized error; all r! errors are formed in one array
    expression.  Raises when the Krylov space does not close at exactly r
    steps with r separated Ritz values in 10 draws, when a multiplicity is
    not an integer, or when the match is off by more than 1e-8.
    """
    order = list(relation_order)
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

    # P_float[j, i] = y_j^T A_i y_j, one thin product A_i Y per color but
    # the diagonal, A_0 Y = Y
    P_float = np.empty((r, r))
    for i, c in enumerate(order):
        AY = Y if c == 0 else (scheme.color == c) @ Y
        P_float[:, i] = np.einsum("xj,xj->j", Y, AY)

    dims = v * weights
    if np.abs(dims - np.rint(dims)).max() > 1e-6:
        raise SpectralError(
            f"trace moments give non-integer multiplicities {dims.tolist()}")

    # match rows to the exact eigenmatrix by valency-normalized profile:
    # every row permutation at once, and the first least, as a loop over
    # them in order keeping each strictly smaller error would pick
    n = np.array(exact.valencies, dtype=np.float64)
    exact_rows = np.array([[float(x) for x in row] for row in exact.P])
    perms = np.array(list(itertools.permutations(range(r))))
    errs = np.abs(P_float[perms] / n - exact_rows / n).max(axis=(1, 2))
    perm = perms[int(np.argmin(errs))]
    P_matched = P_float[perm]
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
