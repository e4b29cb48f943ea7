"""Higmanian schemes: detection, parameters, and four uniformity routes.

A Higmanian scheme here is an imprimitive symmetric indecomposable scheme of
rank 5 with exactly two nontrivial parabolics E < F satisfying
rk(E) = cork(F) = 2 and rk(F) = cork(E) = 3.  Its parameters are
(f, m, n, k, t) with f = v/n_F, m = n_F/n_E, n = n_E, k the per-class count
of neighbors in the larger outside relation S, and t = p_TS^T.

Uniformity is decided four independent ways and the verdicts must coincide:

  * the closed-form criterion  t = (k(f-2)/mn)(mn-k +- sqrt(k(mn-k)/(m(n-1))))
  * the definitional check: block-restricted adjacency products over the
    classes of a corank-2 parabolic decompose integrally
  * the Q-Higmanian spectral test on the exact eigenstructure
  * dismantlability: every union of classes of a nontrivial parabolic
    induces a valid subscheme, decided by one pass over the class products
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .quadratic import QuadraticNumber
from .schemes import (GATHER_ENTRIES, Parabolic, SchemeError, SchemeTable,
                      digit_runs, first_cells, nontrivial_parabolics,
                      restriction)
from . import spectral

QN = QuadraticNumber


class NotHigmanianError(ValueError):
    pass


class VerdictInconsistencyError(RuntimeError):
    """The four uniformity routes disagreed; carries the full bundle."""

    def __init__(self, message: str, bundle: "VerdictBundle") -> None:
        super().__init__(message)
        self.bundle = bundle


class OracleError(spectral.SpectralError):
    """The float oracle failed on a bundle whose verdicts agree."""


@dataclass(frozen=True)
class HigmanianParams:
    f: int
    m: int
    n: int
    k: int
    t: int

    def __post_init__(self):
        if min(self.f, self.m, self.n) < 2:
            raise ValueError("f, m, n must all be >= 2")
        mn = self.m * self.n
        if not (mn - self.k <= self.k < mn):
            raise ValueError(
                f"k={self.k} violates mn - k <= k < mn for mn={mn}")
        if self.t < 0:  # k >= mn/2 > 0 already
            raise ValueError("t must be nonnegative")

    @property
    def v(self) -> int:
        return self.f * self.m * self.n

    def astuple(self) -> tuple[int, int, int, int, int]:
        return (self.f, self.m, self.n, self.k, self.t)

    def __str__(self) -> str:
        return str(self.astuple())


# -- detection -----------------------------------------------------------------

@dataclass
class DetectionResult:
    higmanian: bool
    reason: str | None = None
    params: HigmanianParams | None = None
    alt_params: HigmanianParams | None = None  # second labeling when n_S = n_T
    E: Parabolic | None = None
    F: Parabolic | None = None
    relation_order: tuple[int, ...] | None = None  # scheme colors in the
    # canonical relation order (diagonal, E-color, S, T, F-color)

    def __bool__(self) -> bool:
        return self.higmanian


def _reject(reason: str) -> DetectionResult:
    return DetectionResult(higmanian=False, reason=reason)


def detect_higmanian(scheme: SchemeTable) -> DetectionResult:
    """Decide Higmanian-ness and extract (E, F, S, T) and (f, m, n, k, t).

    A count of nontrivial parabolics other than 2 is rejected at once, and
    the chain is checked on the two, E before F by class size.  No scheme
    is lost: a chain E < F with rk(E) = cork(F) = 2 and rk(F) = cork(E) = 3
    leaves no third nontrivial parabolic.  Let E hold the colors 0, e and F
    the colors 0, e, g, with S, T outside F; f, m, n >= 2.  Take a
    nontrivial parabolic P.

    1. If e is in P, P is a union of E-double cosets.  As cork(E) = 3 and
       EgE lies in F ∖ E, these are E, {g} and {S, T}.  P = E + {S, T} is
       impossible: take x and z in one F-class with (x, z) in g, and y in
       another F-class; then (x, y) and (y, z) lie in S + T.  So P is E or F.
    2. If e is not in P, P meets F in {0, g} at most.  Also g is not in P:
       take x != z in one E-class and y in another E-class of the same
       F-class; then (x, y) and (y, z) are in g, but (x, z) is in e.  So P
       lies in {0, S, T}, and each P-class meets each F-class at most once.
       This rules out S and T together, and forces the one outside color X
       in P to have per-class count 1 (`_per_class_count` is constant).
    3. Then p_eY^Y takes two values, which a scheme cannot do.  Let Y be
       the other outside color.  For (x, y) in Y, let w be the point of
       x's F-class in y's P-class; the value is (n - 1) - [w in E(x)].  As
       y runs over x's Y-neighbours in one other class, w runs over x's
       F-class minus x, so the value is n - 2 for n - 1 >= 1 choices of y,
       and n - 1 for mn - n >= 2 choices.

    Indecomposability then needs no wreath test: neither E nor F is a
    wreath factor P, with P i P = {i} for every i outside P.  Not E: its 3
    outside colors fall into cork(E) - 1 = 2 double cosets.  Not F: its
    outside colors S and T form one.
    """
    if scheme.rank != 5:
        return _reject(f"rank {scheme.rank} != 5")
    if not scheme.is_symmetric():
        return _reject("not symmetric")
    parabs = nontrivial_parabolics(scheme)
    if not parabs:
        return _reject("primitive: no nontrivial parabolic")
    if len(parabs) != 2:
        return _reject(f"{len(parabs)} nontrivial parabolics, "
                       f"a Higmanian scheme has exactly 2")
    E, F = parabs
    # the restriction to a class of P has rank |P|.  cork(F) = 2 follows:
    # cork(E) = 3 puts S and T in one E-double coset, as EgE = {g}
    if not (E.colors < F.colors and len(E.colors) == 2
            and len(F.colors) == 3 and E.corank == 3):
        return _reject("no parabolic chain with rk(E)=cork(F)=2, "
                       "rk(F)=cork(E)=3")
    # S is the larger of the two relations outside F, the lower color on a tie
    s_color, t_color = sorted(F.outside, key=lambda c: -scheme.valencies[c])
    n, n_F = E.n_class, F.n_class
    f, m = scheme.v // n_F, n_F // n
    (e_color,) = E.colors - {0}
    (g_color,) = F.colors - E.colors
    params = HigmanianParams(f=f, m=m, n=n,
                             k=_per_class_count(scheme, F, s_color),
                             t=int(scheme.p[t_color, s_color, t_color]))
    alt = None
    if scheme.valencies[s_color] == scheme.valencies[t_color]:
        # n_S = n_T: both labelings are legitimate; keep the larger t first
        alt = HigmanianParams(
            f=f, m=m, n=n, k=_per_class_count(scheme, F, t_color),
            t=int(scheme.p[s_color, t_color, s_color]))
        if alt.t > params.t:
            params, alt = alt, params
            s_color, t_color = t_color, s_color
    return DetectionResult(
        higmanian=True, params=params, alt_params=alt, E=E, F=F,
        relation_order=(0, e_color, s_color, t_color, g_color))


def _per_class_count(scheme: SchemeTable, F: Parabolic, color: int) -> int:
    """|alpha S ∩ Delta| for S the outside relation ``color``, which is the
    same for every point alpha and every class Delta != Delta_alpha of F.

    Read from the tensor: the points of alpha S in the class of one of them,
    beta, are the gamma with (alpha, gamma) in S and (gamma, beta) in F, so
    that class meets alpha S in k = sum_{c in F} p_Sc^S points (k >= 1, from
    c = 0).  No class is missed.  Detection requires a symmetric scheme with
    cork(F) = 2, that is F S F = F T F = {S, T} for the two relations S, T
    outside F.  The S-neighbours of alpha in the class of a T-neighbour beta
    number sum_{c in F} p_Sc^T, the same for every T-pair.  If alpha S
    missed some class, that number would be 0, so every row block
    (alpha, Delta) would have one color; by symmetry so would every column,
    hence every block, and F S F = {S} would give cork(F) = 3.  So when
    n_S = n_T, the count for T is mn - k on every other class."""
    return int(scheme.p[color, sorted(F.colors), color].sum())


# -- uniformity route 1: the closed-form criterion ------------------------------

def uniformity_rhs(f: int, m: int, n: int, k: int) -> tuple[QN, QN]:
    """Both sign choices of the criterion's right-hand side, exactly."""
    if min(f, m, n) < 2 or not (0 < k <= m * n):
        raise ValueError("need f, m, n >= 2 and 0 < k <= mn")
    mn = m * n
    base = Fraction(k * (f - 2), mn)
    root = QN.sqrt(Fraction(k * (mn - k), m * (n - 1)))
    plus = (QN(mn - k) + root) * base
    minus = (QN(mn - k) - root) * base
    return plus, minus


def is_uniform_by_criterion(params: HigmanianParams) -> bool:
    plus, minus = uniformity_rhs(params.f, params.m, params.n, params.k)
    return QN(params.t) == plus or QN(params.t) == minus


# -- block products through one class: routes 2 and 4 ---------------------------

def _outside_blocks(scheme: SchemeTable, parab: Parabolic):
    """What routes 2 and 4 build their block products from: ``(runs,
    block)``, with M_G, the product of (i, j) through class G, being
    A_i[:, G] A_j[G, :] = basis[i] @ (right == j) for G's ``basis`` and
    ``right``.

    The pairs (i, j) with both colors outside the parabolic are kept, one
    of each transpose pair {(i, j), (j*, i*)}, in lexicographic order.
    ``runs`` holds them as ``(i, run)``: the kept j of each i, split by
    `digit_runs` with bound |G|, which bounds every product entry, so that
    the packed right factors stay exact float32 integers below 2^24.  One
    packed product per run and class decides the run's pairs: it is
    constant on a cell set exactly when each of its digits is, and
    `_block_product_routes` forms it once for every route that compares
    it, so that `verdict_bundle` forms F's products once for routes 2
    and 4.  ``block(gi)`` gives, for class G = gi, ``(off, sub, right,
    basis)``: the points off G, the int16 colors of off x off, those of
    G x off, which `DigitRun.pack` packs into the right factor of a run,
    and the 0/1 columns A_i[off, G] of each outside color, in float32.  It
    is gathered only for a class whose products are formed.
    A product is formed only on the rows and columns off G: for x in G,
    A_i[x, z] != 0 would put z in the class of x, so an outside color has
    no cell in G x G, and the product is 0 on G's rows and columns.  Every
    (D, L, k) cell set of route 2 with D or L = G lies there, and so does
    no cell route 4 compares.

    Neither route can fail on a pair with a color inside the parabolic.  If
    i is inside, A_i[x, z] != 0 puts z in the class of x, so for x in G the
    product through G is the full (A_i A_j)[x, y], p_ij^k on every k-cell,
    and for x off G it is 0; the case j inside is the same by columns.  The
    class of x decides which, so the product is constant on every (D, L, k)
    cell set, recording p_ij^k on every triple it meets, and 0 on every
    cell off G.  The product of (j*, i*) is the transpose of that of
    (i, j), and transposition maps the k-cells of D x L onto the k*-cells
    of L x D, and the cells off G onto themselves, so one product decides
    both, with the same coefficients.
    Since the least (i, j) of each transpose pair is kept, and a run names
    its first failing pair (`DigitRun.check`), the first failing pair is
    that of a loop over all pairs, and so is its witness.

    Neither route forms the product of the last run.  For x off G, every z
    in G lies in another class, so color(x, z) is outside: sum_{i outside}
    A_i[off, G] = J.  Let L be the largest outside color (a color here,
    not a class).  A pair (L, j) is kept only if j* >= L, so (L, L*) is
    the only kept pair with left color L: it is the last pair, alone in
    the last run.  Each (i, L*) with i != L is kept, as (L, i*) > (i, L*),
    and so is each (i, i*), its own transpose; all are checked before it.
    Through G, off G,
        M_G(L, L*)[x, y] = c(y) - sum_{i != L} M_G(i, L*)[x, y],
    with c(y) = #{z in G : color(y, z) = L}.  On the diagonal cell (y, y),
    a 0-cell, M_G(i, i*) is d_i(y) = #{z in G : color(y, z) = i}, and
    c = |G| - sum_{i != L} d_i.  Route 4 compares all 0-cells off G, and
    route 2 the 0-cells of each class.  So where the earlier pairs pass, c
    is constant on each cell set's columns, M_G(L, L*) is constant on
    every cell set, and (L, L*) passes: it is never the first failing pair.

    Route 2 records each kept pair's coefficients on the triples
    (D, G, L', k) where A_i meets D x G and A_j meets G x L'.  At corank 2
    the outside colors form one double coset, so a block between two
    different classes meets every outside color and a block inside one
    class meets none: those triples are the ones with D, L' != G.  On
    them, by the identity above, a(L, L*)(D, G, L', k) is
    c - sum_{i != L} a(i, L*)(D, G, L', k), with c = |G| - sum_{i != L}
    a(i, i*)(L', G, L', 0).  So where every other kept pair's coefficients
    agree across the triples of each k, so do those of (L, L*), and route
    2 records only the runs it checks.
    """
    outside, inverse, color = parab.outside, scheme.inverse, scheme.color
    pairs = [(i, j) for i in outside for j in outside
             if (inverse[j], inverse[i]) >= (i, j)]
    runs = [(i, run) for i, group in itertools.groupby(pairs, lambda ij: ij[0])
            for run in digit_runs([j for _, j in group], parab.n_class)]

    def block(gi):
        in_g = parab.class_of == gi
        off = np.flatnonzero(~in_g)
        # A_i[off, G] is A_i*[G, off] transposed, and G's rows gather
        # faster than its columns
        right = color[in_g].take(off, axis=1)
        return off, color[off].take(off, axis=1), right, {
            i: (right.T == inverse[i]).astype(np.float32) for i in outside}
    return runs, block


def _block_product_routes(scheme: SchemeTable, parab: Parabolic,
                          *kinds) -> list:
    """The results of the routes ``kinds``, among `_Definition` (route 2)
    and `_Dismantle` (route 4), on ``parab``, from one pass over its
    classes.

    Through each class G, each packed product of `_outside_blocks` that a
    route forms is formed once, and `DigitRun.check` compares it with the
    target of every route still open: route 2 labels each cell off G by its
    (D, L, k) triple, route 4 by its color.  A route closes at its first
    failing run, and the pass ends when no route is open.  Per target,
    `DigitRun.check` names the failing pair and cell of that target alone,
    and a route's target does not depend on the others, so each result is
    that of a pass for the route alone; neither is read from the other's.

    The last class G* is decided from the tensor where it can be.  For a
    checked pair (i, j) and a k-cell (x, y) in D x L, sum_{G not in {D, L}}
    M_G[x, y] = p_ij^k, as the sum over every class is (A_i A_j)[x, y], M_D
    vanishes on D's rows and M_L on L's columns.  So off G*
        M_G*[x, y] = p_ij^k - sum_{G not in {D, L, G*}} M_G[x, y],
    packed alike for a run.  A route still open at G* has passed on every
    other class, and its `derive` decides G* from that identity with no
    product where the sum is constant on each of its cell sets: route 2
    always, route 4 when its constants agree across the classes.  Such a
    route passes on G*, as a pass over G*'s products would find; a route
    not so decided has G*'s products formed and compared as at any class.
    So every result and witness is that of the pass over every class.
    """
    runs, block = _outside_blocks(scheme, parab)
    routes = [kind(scheme, parab, runs) for kind in kinds]
    live = [route for route in routes if route.result is None]
    if len(runs) < 2:  # no pair, or only (L, L*): nothing to form
        live = []
    for gi in range(parab.num_classes):
        if gi == parab.num_classes - 1:
            live = [route for route in live if not route.derive(gi)]
        if not live:
            break
        off, sub, right, basis = block(gi)
        targets = {route: route.target(gi, off, sub) for route in live}
        for n, (i, run) in enumerate(runs[:-1]):
            outcomes = run.check(basis[i], right, *targets.values())
            for route, (values, failure) in zip(list(targets), outcomes):
                if failure:
                    route.fail(gi, off, i, failure)
                    del targets[route]
                else:
                    route.record(n, values)
            if not targets:
                break
        live = list(targets)
    return [route.finish() for route in routes]


# -- uniformity route 2: the definitional block-product check -------------------

@dataclass
class DefinitionCheck:
    ok: bool
    cork: int
    witness: tuple | None = None
    coefficients_consistent: bool | None = None
    # recorded only: whether a_ij^k agrees across class triples


class _Definition:
    """Route 2's comparison in `_block_product_routes`: each cell off G
    with the last cell of its (D, L, k) triple, and the coefficients of
    each checked run recorded on the triples with D, L != G.  Decided at
    once, with no product, on a corank other than 2, and with no product
    through the last class once every other class has passed (`derive`).
    """

    def __init__(self, scheme: SchemeTable, parab: Parabolic,
                 runs: list) -> None:
        cork, self.result = parab.corank, None
        if cork != 2:
            self.result = DefinitionCheck(ok=False, cork=cork)
            return
        r, v, c = scheme.rank, scheme.v, parab.num_classes
        self.class_of, self.color = parab.class_of, scheme.color
        # each cell's (D, L, k) triple; its reference cell is the last one
        # in row-major order, as when the block values are scattered into a
        # table.  The key is int16 unless there are many classes.  Row
        # blocks are scanned from the bottom, and the scan stops once every
        # triple that can occur has its last cell: the |P| inside colors in
        # each of the c diagonal blocks and the r - |P| outside colors in
        # each of the c (c - 1) others.  That count is an upper bound, so a
        # triple that does not occur only makes the scan run to the top
        kind = np.int16 if c * c * r <= 1 << 15 else np.intp
        self.row_key = (self.class_of * (c * r)).astype(kind)[:, None]
        self.col_key = (self.class_of * r).astype(kind)
        inside = len(parab.colors)
        possible = c * inside + c * (c - 1) * (r - inside)
        last = np.full(c * c * r, -1)
        step = max(1, GATHER_ENTRIES // v)
        for stop in range(v, 0, -step):
            rows = slice(max(0, stop - step), stop)
            key = self.row_key[rows] + self.col_key + self.color[rows]
            np.maximum.at(last, key.ravel(),
                          np.arange(rows.start * v, stop * v))
            if np.count_nonzero(last >= 0) == possible:
                break
        self.triples = np.flatnonzero(last >= 0)
        self.D, self.L, self.K = np.unravel_index(self.triples, (c, c, r))
        self.ref_x, self.ref_y = np.divmod(last[self.triples], v)
        self.pos = np.zeros(v, dtype=np.intp)
        self.reference = np.zeros(c * c * r, dtype=np.intp)
        self.gmin = np.full((len(runs), r), np.inf)
        self.gmax = np.full((len(runs), r), -np.inf)
        # per checked run: its packed p_ij^k, sum_pos base^pos p_{i j_pos}^k
        # for each k, and the sum of its recorded values on each triple
        self.packed_p = np.array(
            [run.base ** np.arange(len(run.colors))
             @ scheme.p[i, list(run.colors)] for i, run in runs[:-1]],
            dtype=np.float64)
        self.sums = np.zeros((len(runs), c * c * r))

    def target(self, gi: int, off, sub):
        # off G, row-major order is that of the full matrix, so the last
        # cell of each triple off G is its last cell in sub coordinates.
        # A triple in G's rows or columns has no cell off G: its reference
        # may be any cell, as it is never compared, and it is not recorded
        self.pos[off] = np.arange(len(off))
        self.reference[self.triples] = (self.pos[self.ref_x] * len(off)
                                        + self.pos[self.ref_y])
        self._recorded(gi)
        return self.row_key[off] + self.col_key[off] + sub, self.reference

    def _recorded(self, gi: int) -> None:
        recorded = (self.D != gi) & (self.L != gi)
        self.at, self.k = self.triples[recorded], self.K[recorded]

    def record(self, n: int, values) -> None:
        self._note(n, values[self.at])

    def _note(self, n: int, got) -> None:
        np.minimum.at(self.gmin[n], self.k, got)
        np.maximum.at(self.gmax[n], self.k, got)
        self.sums[n, self.at] += got

    def derive(self, gi: int) -> bool:
        """Route 2 passes on the last class G* with no product, and its
        values are recorded.  Every other class G has passed, so M_G is
        constant on each triple (D, L, k) with D, L != G, and on a triple
        with D, L != G*, M_G* = p_ij^k - sum_{G not in {D, L, G*}} M_G is
        too (`_block_product_routes`), packed: the run's packed p_ij^k less
        the values recorded on that triple through the other classes."""
        self._recorded(gi)
        for n, packed in enumerate(self.packed_p):
            self._note(n, packed[self.k] - self.sums[n, self.at])
        return True

    def fail(self, gi: int, off, i: int, failure) -> None:
        j, cell = failure
        x, y = off[list(divmod(cell, len(off)))]
        self.result = DefinitionCheck(
            ok=False, cork=2,
            witness=(int(self.class_of[x]), gi, int(self.class_of[y]),
                     i, j, int(self.color[x, y])))

    def finish(self) -> DefinitionCheck:
        if self.result is not None:
            return self.result
        # inf >= -inf where unseen
        consistent = bool((self.gmin >= self.gmax).all())
        return DefinitionCheck(ok=True, cork=2,
                               coefficients_consistent=consistent)


def is_uniform_by_definition(scheme: SchemeTable,
                             parab: Parabolic) -> DefinitionCheck:
    """Literal check of the definition over one parabolic: cork 2, and every
    block product A_i^{DG} A_j^{GL} constant on each color inside D x L.

    The packed products of `_outside_blocks` are formed off G, and each
    (D, L, k) cell set is compared with its last cell; the other pairs
    pass.  The last cells are found GATHER_ENTRIES cells at a time, from
    the bottom rows up to the first row block by which every triple that
    can occur has one, and each cell off G is labelled by its triple's
    key.  The last pair (L, L*) passes with the earlier ones, and
    coefficients are recorded for the runs checked only, on the triples
    with D, L != G (see `_outside_blocks`), packed: as each digit is below
    the base, a run's numbers agree across the triples of a k iff each
    pair's coefficients do.  The last class passes with the others, and
    its coefficients are derived from theirs and the tensor
    (`_Definition.derive`).  `verdict_bundle` forms F's products once for
    this route and route 4 (`_block_product_routes`); this comparison is
    this route's own.

    At corank 2, route4(F) <=> route2(F) and flag(F).  For i, j outside F
    and a k-cell (x, y) in D x L, sum_{G not in {D, L}} M_G[x, y] = p_ij^k,
    as M_D vanishes on D's rows and M_L on L's columns.  Route 4 makes
    each M_G a constant a_G(k) on the k-cells off G, so route 2 passes.  An
    outside k has cells in every block between two classes, an inside k in
    every class.  So the sums at (D, L) and (D', L), or at (D, D) and
    (D', D'), give a_D(k) = a_D'(k): the flag holds, as with two classes
    no outside k is recorded.  Route 2 and the flag give route 4 back."""
    return _block_product_routes(scheme, parab, _Definition)[0]


# -- uniformity route 4: dismantlability ----------------------------------------

@dataclass
class DismantleCheck:
    """``unions_checked`` counts the unions passed to `restriction`: 0 on a
    pass, 1 or 2 while confirming the witness."""
    ok: bool
    witness: tuple[int, ...] | None = None  # failing union, as class indices
    unions_checked: int = 0


class _Dismantle:
    """Route 4's comparison in `_block_product_routes`: each cell off G
    with the first cell of its color; a failure is confirmed by
    `restriction`.  Through each class G, each checked run's constant
    a_G(k) on the k-cells off G is kept as the least and greatest over the
    classes so far."""

    def __init__(self, scheme: SchemeTable, parab: Parabolic,
                 runs: list) -> None:
        self.scheme, self.class_of, self.result = scheme, parab.class_of, None
        self.low = np.full((len(runs), scheme.rank), np.inf)
        self.high = np.full((len(runs), scheme.rank), -np.inf)

    def target(self, gi: int, off, sub):
        self.sub, self.first = sub, first_cells(sub, self.scheme.rank)
        return sub, self.first

    def record(self, n: int, values) -> None:
        np.minimum(self.low[n], values, out=self.low[n])
        np.maximum(self.high[n], values, out=self.high[n])

    def derive(self, gi: int) -> bool:
        """Whether route 4 passes on the last class G* with no product:
        when, for every checked run and color k, a_G(k) is one value a(k)
        over the other classes G.  A k-cell (x, y) in D x L off G* is off
        every G not in {D, L, G*}, so there M_G* = p_ij^k - sum_{G not in
        {D, L, G*}} a_G(k) (`_block_product_routes`) = p_ij^k - (c - 1 -
        |{D, L}|) a(k).  An inside color k has its cells in the diagonal
        blocks only, D = L, and an outside one in the others only, D != L,
        so M_G* is constant on the k-cells off G*.  When the constants
        differ, G*'s products are formed.

        Every color has a cell off every class once c >= 3, so each a_G(k)
        is a value of M_G, not the stand-in at cell 0 of `first_cells`: an
        inside color has cells in every class, and at most 2 |G| n_k of an
        outside color's c |G| n_k cells meet G's rows or columns.  With
        c = 2 only one class is recorded, and nothing is compared."""
        return bool((self.low >= self.high).all())

    def fail(self, gi: int, off, i: int, failure) -> None:
        cell, class_of = failure[1], self.class_of
        cells = np.divmod([cell, self.first[self.sub.flat[cell]]], len(off))
        S = set(class_of[off[np.ravel(cells)]].tolist())
        for checked, union in enumerate((S, S | {gi}), start=1):
            union = tuple(sorted(union))
            try:
                restriction(self.scheme,
                            np.flatnonzero(np.isin(class_of, union)))
            except SchemeError:
                self.result = DismantleCheck(False, union, checked)
                return
        # a failing cell names a non-subscheme union: `is_dismantlable`
        raise RuntimeError(f"both witness unions through class {gi} "
                           f"induce subschemes")

    def finish(self) -> DismantleCheck:
        return self.result or DismantleCheck(ok=True)


def is_dismantlable(scheme: SchemeTable, parab: Parabolic) -> DismantleCheck:
    """Exactly whether every nonempty union of classes induces a subscheme.

    With M_G = A_i[:, G] A_j[G, :], the product through class G, a union U
    induces a subscheme iff sum_{G in U} M_G is constant on the k-cells in
    U x U for all colors i, j, k.  That holds for every U iff, for all i, j,
    k and every class G, M_G is constant on the k-cells (x, y) off G.
    Necessity: for two k-cells, U the union of their classes and G not in
    U, the sums over U and over U + {G} both agree, so M_G agrees.
    Sufficiency: let a_G be M_G on the k-cells off G and S the classes of
    a k-cell.  sum_G M_G = A_i A_j is p_ij^k on every k-cell, as the scheme
    is valid, so h = sum_{G in S} (M_G - a_G) = p_ij^k - sum_G a_G is
    constant, and the sum over any U containing S is h + sum_{G in U} a_G.

    Only the packed products of `_outside_blocks` are formed (the other
    pairs vanish off G), each on the rows and columns off G, but for the
    last pair (L, L*), which passes with the earlier ones (see
    `_outside_blocks`), and for the last class, once every other class has
    passed and each color's constants a_G agree across them
    (`_Dismantle.derive`).  A k-cell with classes S1 failing against the
    reference k-cell with classes S2 names S1 + S2 or S1 + S2 + {G}, so
    `restriction` rejects one of these; it is the witness.
    `verdict_bundle` forms F's products once for this route and route 2
    (`_block_product_routes`); this comparison is this route's own.
    """
    return _block_product_routes(scheme, parab, _Dismantle)[0]


# -- the bundle ------------------------------------------------------------------

@dataclass
class VerdictBundle:
    detection: DetectionResult
    params: HigmanianParams
    criterion: bool
    definition: bool
    q_higmanian: bool
    dismantlable: bool
    eigen: spectral.EigenData
    kr: spectral.KreinTensor = field(repr=False)
    q_certificates: tuple = ()
    definition_details: dict = field(default_factory=dict, repr=False)
    dismantle_details: dict = field(default_factory=dict, repr=False)
    oracle: spectral.OracleResult | None = None
    alt_agrees: bool = True

    @property
    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        return (self.criterion, self.definition, self.q_higmanian,
                self.dismantlable)

    @property
    def consistent(self) -> bool:
        return len(set(self.verdicts)) == 1 and self.alt_agrees

    @property
    def uniform(self) -> bool:
        return self.criterion

    @property
    def rhs_candidates(self) -> tuple[QN, QN]:
        """Both right-hand sides of the criterion for ``params``."""
        p = self.params
        return uniformity_rhs(p.f, p.m, p.n, p.k)


def _spectral_verdict(params: HigmanianParams):
    eigen = spectral.spectral_data(params)
    kr = spectral.krein(eigen.P, eigen.multiplicities, eigen.valencies)
    qh = spectral.is_q_higmanian(eigen.multiplicities, kr)
    return eigen, kr, qh


def verdict_bundle(scheme: SchemeTable, seed: int = 0,
                   oracle: bool = False) -> VerdictBundle:
    """Run all four uniformity routes on a Higmanian scheme.

    Routes 2 and 4 run on F in one pass over its classes, which forms each
    block product once for both (`_block_product_routes`); each route
    compares it with its own target and keeps its own result, and neither
    verdict is read from the other's.  Route 4 on E runs only when F
    fails, to report E's witness, and cannot change ``dismantlable``: F's
    classes are unions of E's, so E dismantlable would make F so, and E
    never passes below F anyway, as a color of F outside E joins two
    E-classes of one F-class and misses a third E-class.  The verdicts
    must coincide (they are provably equivalent for genuine Higmanian
    schemes); disagreement raises VerdictInconsistencyError, which carries
    the bundle.  A scheme that is not Higmanian raises NotHigmanianError
    with the detection's reason.  With ``oracle``, the float oracle runs
    only on a consistent bundle, and its failure raises OracleError.
    ``seed`` is accepted and has no effect: every route is exact and none
    samples.
    """
    det = detect_higmanian(scheme)
    if not det:
        raise NotHigmanianError(det.reason or "not Higmanian")
    params = det.params
    criterion = is_uniform_by_criterion(params)
    eigen, kr, qh = _spectral_verdict(params)
    # detection leaves E and F as the only nontrivial parabolics.  Route 2
    # fails on E's corank, 3, with no product.  One pass over F's classes
    # decides routes 2 and 4 there: F has fewer classes, is cheaper, and is
    # decisive on a uniform scheme.  Route 4 tries E only when F fails
    def_f, dis_f = _block_product_routes(scheme, det.F, _Definition,
                                         _Dismantle)
    def_details = {det.E.n_class: is_uniform_by_definition(scheme, det.E),
                   det.F.n_class: def_f}
    dis_details = {det.F.n_class: dis_f}
    if not dis_f.ok:
        dis_details[det.E.n_class] = is_dismantlable(scheme, det.E)
    definition = any(res.ok for res in def_details.values())
    dismantlable = any(res.ok for res in dis_details.values())

    alt_agrees = True
    if det.alt_params is not None:
        alt_crit = is_uniform_by_criterion(det.alt_params)
        _, _, alt_qh = _spectral_verdict(det.alt_params)
        alt_agrees = (alt_crit == criterion
                      and alt_qh.verdict == qh.verdict)

    bundle = VerdictBundle(
        detection=det, params=params, criterion=criterion,
        definition=definition, q_higmanian=qh.verdict,
        dismantlable=dismantlable, eigen=eigen, kr=kr,
        q_certificates=qh.certificates,
        definition_details=def_details, dismantle_details=dis_details,
        alt_agrees=alt_agrees)
    if not bundle.consistent:
        raise VerdictInconsistencyError(
            f"uniformity verdicts disagree on params {params}: "
            f"criterion={criterion} definition={definition} "
            f"q_higmanian={qh.verdict} dismantlable={dismantlable} "
            f"(labelings agree: {alt_agrees})", bundle)
    if oracle:
        try:
            bundle.oracle = spectral.float_eigen_oracle(
                scheme, eigen, relation_order=det.relation_order)
        except spectral.SpectralError as exc:
            raise OracleError(str(exc)) from exc
    return bundle
