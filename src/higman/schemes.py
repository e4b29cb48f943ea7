"""Association schemes as dense color matrices.

A scheme on v points is a v x v matrix of colors 0..d where color 0 is the
diagonal, every color has an inverse color landing on the transposed cells,
and the count of two-colored paths between two points depends only on the
color joining them (the intersection numbers p_ij^k).  Validation derives
the full intersection tensor and rejects non-schemes with the first violated
axiom.  A parabolic is its set of colors: the parabolics, their class
sizes and their coranks are read off that tensor, and a parabolic's
classes are formed from the color matrix only where a route walks them.
The scheme keeps the color sets, and each parabolic object its own facts.
Restrictions work on the color matrix and are validated again.  Cayley
schemes of partitions of a group G x U skip validation: a candidate tensor
is counted at one element per part, and the products of one generating
part prove it, as in validation below, or else one product per transpose
pair of parts; their colors come from a gather per block of G's rows.
All of it is read off the tables of G and U, with no G x U table.  Scheme
files are written a block of rows at a time.

Validation reads a candidate tensor at one cell per color and, when one
color g generates the algebra the candidate describes, checks only the
products of B_g: they keep the span of the B_i closed under B_g, and as
every B_i is then a polynomial in B_g, that span is closed under products
and the candidate is the tensor (the Bose-Mesner algebra argument of
Brouwer, Cohen and Neumaier, 1989, ch. 2).  Otherwise, or when a product
of B_g fails, it checks the products of every left color, and names the
failure.

Validation and the block-product routes of `higmanian` share one packed
product check, `DigitRun.check`.  It forms a product a block of rows at a
time, once, and compares it with the values at one reference cell per
label of each target it is given: `validate` gives one, and the routes'
shared pass one per route.  So beyond the int16 color matrix it holds one
v x v float32 factor and a block, not a v x v index, basis stack or
product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from .groups import (BLOCK_ENTRIES, MAX_DIGITS, FiniteGroup, cyclic_group,
                     digit_fault, gre_multiply_product, row_blocks)

PARABOLIC_RANK_LIMIT = 16
FLOAT32_EXACT_LIMIT = 1 << 24  # integers below this are exact in float32
# cells whose labels one step gathers: np.take converts them to intp
GATHER_ENTRIES = BLOCK_ENTRIES >> 4
GENERATOR_PRIME = (1 << 24) - 3  # the largest prime below 2^24


class SchemeError(ValueError):
    """A matrix failed a scheme axiom; carries a witness when available."""

    def __init__(self, message: str, witness: tuple | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class SchemeTable:
    """A validated association scheme; construct via :func:`validate`."""

    def __init__(self, color: np.ndarray, p: np.ndarray,
                 inverse: np.ndarray) -> None:
        self.color = color
        self.color.setflags(write=False)
        self.v: int = color.shape[0]
        self.rank: int = len(p)
        self.p = p                # p[i, j, k] = p_ij^k
        self.inverse = inverse    # color involution i -> i*
        self.valencies = p[np.arange(self.rank), inverse, 0]  # n_i = p_ii*^0
        self._parabolics: list[frozenset] | None = None  # see parabolics()

    def is_symmetric(self) -> bool:
        return bool((self.inverse == np.arange(self.rank)).all())

    def __repr__(self) -> str:
        return f"<SchemeTable v={self.v} rank={self.rank}>"


class DigitRun(NamedTuple):
    """Products that share a left factor, packed as the base-``base``
    digits of one product, lowest digit first, which `check` forms and
    compares; `unpack` reads the digits of the values it returns."""

    colors: tuple[int, ...]
    base: int

    def pack(self, right) -> np.ndarray:
        """The packed right factor sum_pos base^pos (right == colors[pos])
        of the integer matrix ``right``, in float32, by Horner's rule."""
        packed = (right == self.colors[-1]).astype(np.float32)
        for color in self.colors[-2::-1]:
            packed *= self.base
            packed += right == color
        return packed

    def unpack(self, packed) -> np.ndarray:
        """The digits of the 1-d ``packed``, one row per color."""
        powers = self.base ** np.arange(len(self.colors), dtype=np.int64)
        return np.asarray(packed, dtype=np.int64) // powers[:, None] % self.base

    def check(self, left, right, *targets):
        """Whether the packed product of ``left`` and the right factors of
        the run, the 0/1 matrices ``right == j``, is constant on each label
        of each target ``(labels, reference)``: cell (x, y) has the label
        ``labels[x, y]``, and the flat index ``reference[l]`` is the
        reference cell of label l.

        The value at each reference cell is formed first, as the dot
        product of a row of ``left`` and a column of the packed factor.  Its
        terms are 0 or a weight, so every partial sum is a nonnegative
        integer at most the value, below 2^24: exact in float32.  The
        product is then formed once, a block of rows at a time, in
        row-major order, and compared with the values of each target's
        labels (`_first_mismatch`); no v x v index or product is held.
        ``left`` may be boolean: each block of its rows is cast to float32.

        One result per target: ``(values, None)`` when every cell agrees,
        with ``values[l]`` the packed value at ``reference[l]``.  Otherwise
        ``(values, (j, cell))`` for j = colors[d], d the least digit that
        differs anywhere: every digit is below the base, so digit d is the
        single product of j, and j, its ``values`` and its first failing
        cell in row-major order are those of a loop over single products
        compared with that target alone."""
        packed = self.pack(right)
        values = []
        for _, reference in targets:
            x, y = np.divmod(reference, packed.shape[1])
            values.append(np.einsum("lk,kl->l", left[x], packed[:, y]))
        found = _first_mismatch(self, left, packed, [
            (labels, vals) for (labels, _), vals in zip(targets, values)])
        return [(vals, None) if failure is None
                else (self.unpack(vals)[failure[0]],
                      (self.colors[failure[0]], failure[1]))
                for vals, failure in zip(values, found)]


def _first_mismatch(run, left, factor, targets) -> list:
    """For each target ``(labels, values)``, the least digit d of ``run`` at
    which a cell (x, y) of ``left @ factor`` differs from
    ``values[labels[x, y]]``, with the row-major index of its first such
    cell, or None.  The product is formed in float32 a block of rows at a
    time, of at most BLOCK_ENTRIES cells, once for all targets, and
    compared with each target still open GATHER_ENTRIES cells at a time; a
    target closes at its first failing cell of digit 0."""
    cols, found = targets[0][0].shape[1], [None] * len(targets)
    open_ = list(range(len(targets)))
    for rows in row_blocks(targets[0][0], BLOCK_ENTRIES):
        product = left[rows].astype(np.float32, copy=False) @ factor
        for t in open_:
            labels, values = targets[t]
            for part in row_blocks(product, GATHER_ENTRIES):
                failure = _least_digit(run, product[part],
                                       np.take(values, labels[rows][part]))
                if failure and (found[t] is None or failure[0] < found[t][0]):
                    d, at = failure
                    found[t] = d, (rows.start + part.start) * cols + at
                    if d == 0:
                        break
        open_ = [t for t in open_ if found[t] is None or found[t][0]]
        if not open_:
            break
    return found


def _least_digit(run, block, expected) -> tuple | None:
    """The least digit of ``run`` at which ``block`` differs from
    ``expected``, which is overwritten, with the flat index of its first
    such cell, or None.  The digits of a difference, by floor division, are
    0 below the first digit at which the two differ."""
    np.subtract(block, expected, out=expected)
    if not expected.any():
        return None
    at = np.flatnonzero(expected)
    digits = run.unpack(expected.flat[at]) != 0
    d = int(digits.any(axis=1).argmax())
    return d, int(at[digits[d].argmax()])


def digit_runs(colors: Sequence[int], bound: int) -> list[DigitRun]:
    """Split ``colors`` into runs packed as base-(bound + 1) digits.

    When every entry of each product is at most ``bound``, the products
    A B_j of one left factor A pack into A (sum_pos (bound + 1)^pos B_j),
    and a packed product is constant on a cell set exactly when every
    digit is (Kronecker substitution).  A run closes before (bound + 1)^len
    reaches FLOAT32_EXACT_LIMIT, so every weight and partial sum is an exact
    float32 integer; a run of one color is the plain product.
    """
    base, width = int(bound) + 1, 1
    while width < len(colors) and base ** (width + 1) < FLOAT32_EXACT_LIMIT:
        width += 1
    return [DigitRun(tuple(colors[s:s + width]), base)
            for s in range(0, len(colors), width)]


def first_cells(color: np.ndarray, rank: int) -> np.ndarray:
    """The row-major first cell of each color below ``rank`` in the 2-d
    ``color``, or 0 for a color that does not occur.  When every color
    occurs in row 0, as in every row of a scheme, the first cells are read
    off that row; otherwise each color is searched for in the whole
    matrix."""
    found, at = np.unique(color[0], return_index=True)
    if len(found) == rank:
        return at
    flat = color.ravel()
    return np.array([np.argmax(flat == c) for c in range(rank)])


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a.T == b, for square a and b, compared in square tiles of
    GATHER_ENTRIES cells: a tile read across its rows stays in cache."""
    side = math.isqrt(GATHER_ENTRIES)
    return all(np.array_equal(a[y:y + side, x:x + side].T,
                              b[x:x + side, y:y + side])
               for x in range(0, len(a), side) for y in range(0, len(a), side))


def _generates(lift: np.ndarray) -> bool:
    """Whether e_0, L e_0, L^2 e_0, ... span Q^r, for the nonnegative
    integer r x r matrix L = ``lift``.

    Decided mod the prime GENERATOR_PRIME: each new vector is reduced
    against a reduced echelon basis of the ones before it, and once one
    lies in their span, so do all later ones.  A full rank mod a prime is a
    nonzero integer determinant, so a full rank over Q; a rank lost only
    mod the prime costs no soundness, only the fallback.  Entries stay
    below the prime, below 2^24, so a dot product of at most 2^15 terms
    (the int16 rank limit) stays below 2^63."""
    r = len(lift)
    lift = lift % GENERATOR_PRIME
    basis, pivots = np.zeros((0, r), dtype=np.int64), []
    vec = np.eye(1, r, dtype=np.int64)[0]
    for _ in range(r):
        vec = (vec - vec[pivots] @ basis) % GENERATOR_PRIME
        nonzero = np.flatnonzero(vec)
        if not len(nonzero):
            return False
        at = int(nonzero[0])
        vec = vec * pow(int(vec[at]), -1, GENERATOR_PRIME) % GENERATOR_PRIME
        basis = np.vstack([(basis - np.outer(basis[:, at], vec))
                           % GENERATOR_PRIME, vec])
        pivots.append(at)
        vec = lift @ vec % GENERATOR_PRIME
    return True


def _proved_by_generator(color: np.ndarray, first: np.ndarray,
                         n: np.ndarray, p: np.ndarray) -> bool:
    """Whether one generating color g proves that the candidate ``p`` is
    the intersection tensor of ``color`` with inverse colors and valencies
    ``n`` read off row 0, as `validate` states; False when no color
    generates or g's check fails.

    g is the first color, by fewest runs of `digit_runs` and then by
    color, whose L_g generates (`_generates`).  g's rows are checked
    first: each sums to n_g, so that n_g bounds every entry of B_g B_j and
    serves as the digit bound.  One `DigitRun.check` per run then shows
    B_g B_j constant on every color class for 0 < j < last, and B_g B_last
    = n_g J - sum_{j < last} B_g B_j by the row sums."""
    rank = len(n)
    runs = {g: digit_runs(range(1, rank - 1), n[g]) for g in range(1, rank)}
    for g in sorted(runs, key=lambda g: (len(runs[g]), g)):
        if _generates(p[g].T):
            left = color == g
            if (np.count_nonzero(left, axis=1) != n[g]).any():
                return False
            return not any(run.check(left, color, (color, first))[0][1]
                           for run in runs[g])
    return False


def validate(matrix) -> SchemeTable:
    """Check the scheme axioms and derive the intersection tensor.

    The products B_i B_j of the 0/1 adjacency matrices are formed in
    float32, one per left color i and run of `digit_runs`: every entry of
    B_i B_j is at most the valency n_i, so the right factors of one B_i
    are packed as base-(n_i + 1) digits, and a run closes before
    (n_i + 1)^len reaches 2^24, below which float32 is exact.
    The intersection numbers are counted at the first cell of each color,
    one bincount per color; `DigitRun.check` forms the packed values at
    those cells and compares the packed product with them a block of rows
    at a time.  It names a failing run's first failing pair and cell, so
    the message and witness are those of a loop over single products.
    Beyond the int16 colors, one left color's 0/1 rows and one packed
    right factor, only a block is held.

    After the diagonal and inverse checks, the valencies are read off row
    0, and one generating color g stands in for all left colors when it
    can (`_proved_by_generator`): if B_g is row-regular, B_g B_j is
    constant on every color class for every j, and e_0, L_g e_0, L_g^2
    e_0, ... span Q^r, with (L_g)_kj = p_gj^k, then every B_i is a
    polynomial in B_g, so row-regular, the span of the B_i is closed
    under products and each p_ij^k is the count at one cell of color k
    (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*, 1989, ch. 2).
    So only g's rows and runs are checked.  When no single color
    generates, as in every non-commutative scheme, or g's check fails,
    every color's row sums are checked, and then the loop over every left
    color runs as above; each names the first failure.
    """
    color = np.asarray(matrix)
    if color.ndim != 2 or color.shape[0] != color.shape[1]:
        raise SchemeError("color matrix must be square")
    if not np.issubdtype(color.dtype, np.integer):
        raise SchemeError("color matrix must be integral")
    v = color.shape[0]
    if v == 0:
        raise SchemeError("empty point set")
    if v >= FLOAT32_EXACT_LIMIT:
        raise SchemeError(f"{v} points: validation needs fewer than "
                          f"{FLOAT32_EXACT_LIMIT} (exact float32 products)")
    if color.min() < 0:
        raise SchemeError("negative color")
    # every color up to the largest is used.  In a scheme every color
    # occurs in row 0; otherwise the colors are counted, before the dtype
    # is narrowed.  v^2 cells hold at most v^2 colors, so a color of v^2 or
    # more leaves a smaller one unused and all of them can share one bin;
    # v^2 then fits the dtype, and bincount needs indices that fit intp.
    top = int(color.max())
    if len(np.unique(color[0])) <= top:
        flat = color.ravel()
        if top >= v * v:
            flat = np.minimum(flat, v * v)
        counts = np.bincount(flat.astype(np.intp, copy=False))
        gaps = np.flatnonzero(counts == 0)
        if len(gaps):
            raise SchemeError(f"color {int(gaps[0])} unused")
    rank = top + 1
    if rank > np.iinfo(np.int16).max + 1:
        raise SchemeError(f"rank {rank} over the int16 color limit")
    color = color.astype(np.int16)
    first = first_cells(color, rank)

    diag = np.diagonal(color)
    if (diag != 0).any():
        x = int(np.nonzero(diag)[0][0])
        raise SchemeError(f"diagonal cell ({x},{x}) has color {int(color[x, x])}",
                          witness=(x, x))
    if np.count_nonzero(color == 0) != v:  # color 0 is also off the diagonal
        x, y = map(int, np.argwhere((color == 0) & ~np.eye(v, dtype=bool))[0])
        raise SchemeError(f"color 0 occurs off the diagonal at ({x},{y})",
                          witness=(x, y))

    # inverse colors: the transpose of each relation must be a single color
    rep_x, rep_y = np.divmod(first, v)
    istar = color[rep_y, rep_x]
    image = color if (istar == np.arange(rank)).all() \
        else istar[color]
    if not _is_transpose(color, image):
        x, y = map(int, np.argwhere(color.T != image)[0])
        raise SchemeError(
            f"relation {int(color[x, y])} has no single inverse color "
            f"(witness ({x},{y}))", witness=(x, y))
    # which gives color[x, y] = istar[color[y, x]] = istar[istar[color[x,
    # y]]] on every cell; every color occurs, so istar is an involution
    istar = istar.astype(np.int64)

    # intersection numbers: B_i B_j must be constant on every color class.
    # The row sums of B_i are the diagonal of B_i B_i*, so B_i must be
    # row-regular, with the valency n_i of row 0; then sum_j B_j = J gives
    # B_i B_last = n_i J - sum_{j != last} B_i B_j.  B_0 = I is never a
    # factor, and (B_i B_j)^T = B_j* B_i*, so only the first product of
    # each such pair is formed, and none with j = last or i = last*.  Each
    # B_i is a left factor as the 0/1 matrix color == i, and the right
    # factors of a run are packed from the color matrix itself
    # (`DigitRun.pack`).
    last = rank - 1
    lstar = istar[last]
    n = np.bincount(color[0], minlength=rank).astype(np.int64)
    # the candidate tensor: p_ij^k counted at the first cell (x_k, y_k) of
    # color k, one bincount of the pairs (color[x_k, z], color[z, y_k]).
    # Once every formed product passes, the others follow from them, and
    # each p_ij^k was counted at a cell of color k, so it is the tensor.
    p = np.empty((rank, rank, rank), dtype=np.int64)
    for k in range(rank):
        pairs = color[rep_x[k]].astype(np.intp) * rank + color[:, rep_y[k]]
        p[:, :, k] = np.bincount(pairs, minlength=rank * rank).reshape(
            rank, rank)
    # a proof by g makes every B_i a polynomial in the row-regular B_g, so
    # row-regular: only the loop needs every color's rows checked
    if _proved_by_generator(color, first, n, p):
        return SchemeTable(color, p, istar)
    for i in range(1, rank):
        rows = np.count_nonzero(color == i, axis=1)
        bad = np.flatnonzero(rows != n[i])
        if len(bad):
            x = int(bad[0])
            raise SchemeError(
                f"p_{i},{int(istar[i])}^0 is not constant: cell ({x},{x}) "
                f"has {int(rows[x])}, expected {n[i]}",
                witness=(i, int(istar[i]), 0, x, x))
    for i in range(1, rank):
        if i == lstar:
            continue
        right = [j for j in range(1, last) if (istar[j], istar[i]) >= (i, j)]
        left = color == i
        for run in digit_runs(right, n[i]):
            [(values, failure)] = run.check(left, color, (color, first))
            if failure:
                j, cell = failure
                x, y = divmod(cell, v)
                k = int(color[x, y])
                got = np.count_nonzero(left[x] & (color[:, y] == j))
                raise SchemeError(
                    f"p_{i},{j}^{k} is not constant: cell ({x},{y}) "
                    f"has {got}, expected {int(values[k])}",
                    witness=(i, j, k, x, y))
    return SchemeTable(color, p, istar)


def trivial_scheme(v: int) -> SchemeTable:
    """The rank-2 scheme (rank 1 when v = 1): diagonal plus everything else."""
    color = np.ones((v, v), dtype=np.int16) - np.eye(v, dtype=np.int16)
    return validate(color)


# -- parabolics ---------------------------------------------------------------

@dataclass(frozen=True)
class Parabolic:
    """A closed subset of colors: the equivalence relation that is their
    union.  Its class size, outside colors and corank are read off the
    valencies and the tensor, and its classes off the color matrix; each
    is computed on first use and kept on this object."""

    scheme: SchemeTable = field(repr=False)
    colors: frozenset[int]

    @cached_property
    def n_class(self) -> int:
        return int(self.scheme.valencies[sorted(self.colors)].sum())

    @property
    def num_classes(self) -> int:
        return self.scheme.v // self.n_class

    @cached_property
    def class_of(self) -> np.ndarray:
        """Each point's class, numbered in the order of the classes' least
        points: each point's least class-mate names its class."""
        color = self.scheme.color
        inside = color == 0
        for c in self.colors - {0}:
            inside |= color == c
        return np.unique(inside.argmax(axis=1), return_inverse=True)[1]

    @cached_property
    def outside(self) -> tuple[int, ...]:
        """The colors not in the parabolic, in increasing order."""
        return tuple(sorted(set(range(self.scheme.rank)) - self.colors))

    def is_trivial(self) -> bool:
        return len(self.colors) in (1, self.scheme.rank)

    @cached_property
    def corank(self) -> int:
        """Rank of the quotient scheme on the classes: 1 plus the number of
        distinct color sets P i P for colors i outside P, the color sets
        met by the blocks between two different classes.  P is a wreath
        factor, every P i P with i outside P being {i}, exactly when this
        is rank - |P| + 1."""
        p = self.scheme.p
        inside = sorted(self.colors)
        left = p[inside].any(axis=0)          # [i, s]: s in P i
        right = p[:, inside].any(axis=1)      # [s, k]: k in s P
        reach = (left.astype(np.int64) @ right) > 0
        return 1 + len({reach[i].tobytes() for i in self.outside})


def parabolics(scheme: SchemeTable) -> list[Parabolic]:
    """All parabolics, ordered by class size; scanned once per scheme.

    An inverse-closed color set C containing 0 is a parabolic iff
    p_ij^k = 0 for all i, j in C and k outside C.  Every such set is tested
    at once: row s of ``member`` is the set of bits s plus color 0, and
    m_s^T P_k m_s counts the pairs (i, j) inside set s with p_ij^k > 0,
    where P_k is the support of p_..^k (float32 is exact: at most r^2).
    Only the color sets are kept; no class is formed.
    """
    if scheme._parabolics is None:
        r = scheme.rank
        if r > PARABOLIC_RANK_LIMIT:
            raise SchemeError(
                f"parabolic scan is exponential in rank; rank {r} "
                f"over limit {PARABOLIC_RANK_LIMIT}")
        bits = np.arange(1 << (r - 1))[:, None] >> np.arange(r - 1) & 1
        member = np.hstack([np.ones((len(bits), 1), dtype=bool),
                            bits.astype(bool)])
        ok = (member == member[:, scheme.inverse]).all(axis=1)
        m = member.astype(np.float32)
        support = (scheme.p > 0).astype(np.float32)
        for k in range(r):
            ok &= member[:, k] | ~((m @ support[:, :, k]) * m).any(axis=1)
        found = [Parabolic(scheme, frozenset(np.flatnonzero(row).tolist()))
                 for row in member[ok]]
        scheme._parabolics = [e.colors for e in sorted(
            found, key=lambda e: e.n_class)]
    return [Parabolic(scheme, colors) for colors in scheme._parabolics]


def nontrivial_parabolics(scheme: SchemeTable) -> list[Parabolic]:
    return [e for e in parabolics(scheme) if not e.is_trivial()]


def _relabel(sub: np.ndarray) -> np.ndarray:
    """Colors renumbered 0, 1, ... in row-major order of first occurrence."""
    _, first, inverse = np.unique(sub, return_index=True, return_inverse=True)
    label = np.empty(len(first), dtype=np.int16)
    label[np.argsort(first)] = np.arange(len(first))
    return label[inverse.reshape(sub.shape)]


def restriction(scheme: SchemeTable, points: Sequence[int]) -> SchemeTable:
    """Restrict to a point subset, relabel colors densely, re-validate."""
    pts = sorted(set(int(x) for x in points))
    return validate(_relabel(scheme.color[np.ix_(pts, pts)]))


def wreath_product(inner: SchemeTable, outer: SchemeTable) -> SchemeTable:
    """Wreath product: inner scheme inside each fiber, outer between fibers."""
    ni, no = inner.v, outer.v
    v = ni * no
    color = np.empty((v, v), dtype=np.int16)
    for b1 in range(no):
        for b2 in range(no):
            blk = np.s_[b1 * ni:(b1 + 1) * ni, b2 * ni:(b2 + 1) * ni]
            if b1 == b2:
                color[blk] = inner.color
            else:
                color[blk] = inner.rank + outer.color[b1, b2] - 1
    return validate(color)


# -- Cayley schemes ------------------------------------------------------------

def cayley_scheme(G: FiniteGroup, parts: Sequence[Iterable[int]],
                  U: FiniteGroup | None = None) -> SchemeTable:
    """Scheme of a partition of G x U: color(x, y) = part containing y*x^-1.

    U is the group of order 1 when omitted, so that the parts partition G
    itself.  The point (g, u) has index g*|U| + u, as in `direct_product`,
    but no G x U table is built: every product is read off the tables of
    G and U.  The partition must have {e} as part 0 and be inverse-closed.
    It spans an S-ring, and so a scheme, iff every product of two parts is
    constant on every part (Schur); that constant is the intersection
    number.  The pairs (z, y) with color(e, z) = i and color(z, y) = j are
    those with y = tz, t in T_j and z in T_i, so p_ij^k is the coefficient
    of T_j T_i at any y in T_k.  The candidate tensor counts it at the
    least y of each T_k, one bincount of length v per part.

    A partition that passes the guards has T_0 = {e}, is inverse-closed
    and has no empty part, so each A_i, the 0/1 matrix of color i, is
    row-regular, the A_i sum to J, and A_i* is the transpose of A_i.  So
    `validate`'s proof by one generating color applies as it stands
    (`_proved_by_generator`): when L_g, (L_g)_kj = p_gj^k, generates for
    some part g, the r - 2 products T_j T_g, 0 < j < r - 1, constant on
    every part, prove the S-ring and the candidate; T_last T_g = |T_g| G
    - sum_{j < last} T_j T_g.  When no part generates, as in every
    non-commutative S-ring, or a product of g fails, one product per
    transpose pair of nontrivial parts is formed instead, and the first
    that fails is named.  Products are formed by `gre_multiply_product`;
    no v x v product is formed.
    """
    if U is None:
        U = cyclic_group(1)
    nu = U.order
    v = G.order * nu
    identity = G.identity * nu + U.identity
    inv = (G.inv[:, None] * nu + U.inv).ravel()
    part_sets = [frozenset(int(x) for x in p) for p in parts]
    total = sum(len(p) for p in part_sets)
    union = frozenset().union(*part_sets)
    if union - frozenset(range(v)):
        raise SchemeError(f"part element outside 0..{v - 1}")
    if total != v or len(union) != v:
        raise SchemeError("parts do not partition the group")
    if part_sets[0] != frozenset({identity}):
        raise SchemeError("part 0 must be the identity singleton")
    rank = len(part_sets)
    part_of = np.empty(v, dtype=np.int16)
    for pi, p in enumerate(part_sets):
        part_of[list(p)] = pi
    # istar[i] = the part of some x^-1 with x in T_i; inverse-closed iff
    # that part is the same for every x (empty parts are caught below)
    istar = np.zeros(rank, dtype=np.int64)
    istar[part_of] = part_of[inv]
    if (part_of[inv] != istar[part_of]).any():
        raise SchemeError("partition is not inverse-closed")
    idx = [np.array(sorted(p), dtype=np.intp) for p in part_sets]
    for i, ti in enumerate(idx):
        if not len(ti):
            raise SchemeError(f"partition is not an S-ring: color {i} unused")
    # the candidate tensor: p_ij^k = #{z in T_i : y z^-1 in T_j}, counted
    # at the least element y = (a, b) of T_k, one bincount of the pairs
    # (part(z), part(y z^-1)) over every z = (g, u), y z^-1 = (a g^-1, b
    # u^-1)
    p = np.empty((rank, rank, rank), dtype=np.int64)
    left = part_of.astype(np.intp) * rank
    for k, ti in enumerate(idx):
        a, b = divmod(int(ti[0]), nu)
        quotient = G.mul[a][G.inv][:, None] * nu + U.mul[b][U.inv]
        p[:, :, k] = np.bincount(left + part_of[quotient.ravel()],
                                 minlength=rank * rank).reshape(rank, rank)

    def failure(i, j):
        """The first y at which T_j T_i differs from p_ij^part(y), with
        the product, or None."""
        prod = gre_multiply_product(G, U, idx[j], idx[i])
        bad = np.flatnonzero(prod != p[i, j][part_of])
        return (int(bad[0]), prod) if len(bad) else None

    # parts are tried largest first: a small part often lies in a proper
    # parabolic, so does not generate, and at desk scale a rank test
    # costs more than a product.  When a product of g fails, the loop
    # fails too, as it forms that product or its transpose partner
    order = sorted(range(1, rank), key=lambda g: (-len(idx[g]), g))
    g = next((g for g in order if _generates(p[g].T)), None)
    if g is None or any(failure(g, j) for j in range(1, rank - 1)):
        # T_0 = {e}, so T_j T_0 = T_j and T_0 T_i = T_i.  Of the other
        # pairs, only the least of each {(i, j), (j*, i*)} is formed:
        # (T_j T_i)^-1 = T_i* T_j*, and inversion maps T_k onto T_k*, so
        # p_j*i*^k = p_ij^k*, and one product is constant on every part
        # iff the other is.  A failing pair's partner fails too, so the
        # first failing pair is the first of a loop over all pairs.
        star = istar.tolist()
        for i, j in itertools.product(range(1, rank), repeat=2):
            if (star[j], star[i]) < (i, j):
                continue
            found = failure(i, j)
            if found:
                y, prod = found
                k = int(part_of[y])
                raise SchemeError(
                    f"partition is not an S-ring: p_{i},{j}^{k} is not "
                    f"constant: cell ({identity},{y}) has {int(prod[y])}, "
                    f"expected {int(p[i, j, k])}",
                    witness=(i, j, k, identity, y))
    # color[(g, u), (h, w)] = part((h, w)(g, u)^-1) = istar[part((g, u)(h,
    # w)^-1)] = dual[u w^-1][g h^-1], with dual[c] the |G| colors of the
    # elements (., c).  Per block of G's rows, one gather forms the
    # quotients g h^-1, and one more per c in U the colors at (., c),
    # which fill the cells of each (u, w) with u w^-1 = c: w = right[c][u]
    dual = istar[part_of].astype(np.int16).reshape(G.order, nu).T.copy()
    right = U.mul[U.inv].tolist()  # right[c][u] = c^-1 u
    color = np.empty((v, v), dtype=np.int16)
    cells = color.reshape(G.order, nu, G.order, nu)
    for rows in row_blocks(G.mul):
        quotient = G.mul[rows][:, G.inv]
        for c in range(nu):
            block = dual[c][quotient]
            for u, w in enumerate(right[c]):
                cells[rows, u, :, w] = block
    return SchemeTable(color, p, istar)


# -- file format ----------------------------------------------------------------

def write_scheme(scheme: SchemeTable, path) -> None:
    """Text format: ``scheme <v> <rank>`` then v rows of colors.

    The body is written a block of rows at a time, of at most
    GATHER_ENTRIES cells.  Each block is one `take` from a table of
    tokens, the color's name and a space, or a newline at the end of a
    row: `take` copies the block's colors to intp, but fancy indexing of
    the void tokens takes numpy's slower generic path.  Each token is
    zero-padded to the widest name plus one byte, and the pad bytes are
    dropped after.  Beyond the colors, only a block is held.
    """
    names = [str(c).encode() for c in range(scheme.rank)]
    width = max(map(len, names)) + 1
    token = np.dtype((np.void, width))
    spaced = np.array([n + b" " for n in names], dtype=f"S{width}").view(token)
    ended = np.array([n + b"\n" for n in names], dtype=f"S{width}").view(token)
    with open(path, "wb") as fh:
        fh.write(f"scheme {scheme.v} {scheme.rank}\n".encode())
        for rows in row_blocks(scheme.color, GATHER_ENTRIES):
            block = scheme.color[rows]
            body = spaced.take(block)
            body[:, -1] = ended.take(block[:, -1])
            text = body.tobytes()
            if width > 2:  # some name has two or more digits, so pads exist
                text = text.translate(None, b"\0")
            fh.write(text)


class SchemeParseError(ValueError):
    """The file is not in the scheme format (distinct from axiom failures)."""


def _header(line: bytes) -> tuple[int, int]:
    """``(v, rank)`` from the first nonblank line, which holds ``scheme``,
    then v and the rank as `digit_fault` spells numbers, and nothing more."""
    if not line.startswith(b"scheme "):
        raise SchemeParseError("scheme file must start with 'scheme <v> <rank>'")
    fields = line.split()[1:]
    if len(fields) != 2 or any(map(digit_fault, fields)):
        raise SchemeParseError("bad scheme header")
    return int(fields[0]), int(fields[1])


def _parse_bytes(raw: bytes) -> tuple[np.ndarray, int] | None:
    """The matrix and rank of a file in the plain layout, in vectorized
    passes over its bytes; None for any other file.

    The plain layout is ASCII, with a header that `_header` accepts, and
    v nonblank lines of v tokens of 1 to 18 ASCII digits, separated by
    the blanks of bytes.split(): space, tab, VT and FF, with lines broken
    by \\n, \\r or \\r\\n.  Blank lines are dropped.  The matrix has the
    narrowest signed integer dtype that holds its entries.
    """
    body = raw.lstrip().replace(b"\r", b"\n")  # \r breaks a line
    nl = body.find(b"\n")
    line = body[:nl] if nl >= 0 else body
    try:
        v, rank = _header(line)
    except SchemeParseError:
        return None
    # the rows hold only digits, blanks and line breaks: deleting those
    # leaves of the whole file what it leaves of the header's line
    allowed = b"0123456789 \t\v\f\n"
    if body.translate(None, allowed) != line.translate(None, allowed):
        return None
    b = np.frombuffer(body, dtype=np.uint8)[len(line):]  # from its line break
    # each byte less "0", and a -1 past the end: digits are 0 to 9, and
    # blanks and line breaks wrap below 0
    d = np.empty(len(b) + 1, dtype=np.int8)
    d[-1] = -1
    np.subtract(b, np.uint8(48), out=d[:-1], casting="unsafe")
    digit = d >= 0
    end = digit[:-1] > digit[1:]  # the last digit of each token
    breaks = np.flatnonzero(b == 10).tolist() + [len(b)]
    tokens = [np.count_nonzero(end[a:z]) for a, z in zip(breaks, breaks[1:])]
    counts = [n for n in tokens if n]  # no longer than the file
    if len(counts) != v or any(n != v for n in counts):
        return None
    # the widest token: run[t] says that byte t + longest ends more than
    # `longest` digits in a row
    run, longest = digit, 0
    while run.any() and longest <= MAX_DIGITS:
        longest += 1
        run = run[1:] & digit[:-longest]
    if longest > MAX_DIGITS:
        return None
    # in a dtype that holds every number of `longest` digits, each token's
    # value is summed at its last digit: d[i - k] 10^k for the digit k
    # places before it.  In int8, value is d itself: a step reads a copy
    # of d, and there is at most one
    dtype = next(t for t, most in ((np.int8, 2), (np.int16, 4),
                                   (np.int32, 9), (np.int64, MAX_DIGITS))
                 if longest <= most)
    value = d[:-1].astype(dtype, copy=False)
    run = digit[:-1]
    for k in range(1, longest):
        run = run[1:] & digit[:-k - 1]
        np.add(value[k:], d[:-k - 1].astype(dtype) * dtype(10 ** k),
               out=value[k:], where=run)
    # the last digits, a block of rows at a time: compress indexes its
    # cells in intp, 8 bytes a cell
    lines = [(a, z) for a, z, n in zip(breaks, breaks[1:], tokens) if n]
    matrix = np.empty((v, v), dtype=dtype)
    block = max(1, 2 ** 16 // (v or 1))
    for r in range(0, v, block):
        a, z = lines[r][0], lines[min(r + block, v) - 1][1]
        matrix[r:r + block] = value[a:z].compress(end[a:z]).reshape(-1, v)
    top = int(matrix.max(initial=0))
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if top <= np.iinfo(t).max)
    return matrix.astype(dtype, copy=False), rank


def plain_lines(raw: bytes, error: type[ValueError]) -> list[bytes]:
    """The nonblank lines of a text file in the plain layout, stripped of
    blanks: lines break at \\n, \\r or \\r\\n, and the blanks are
    space, tab, VT and FF.  A file that is not UTF-8 raises ``error``."""
    try:
        raw.decode()
    except UnicodeDecodeError:
        raise error("not a UTF-8 text file") from None
    return [ln for ln in (ln.strip()
                          for ln in raw.replace(b"\r", b"\n").split(b"\n"))
            if ln]


def _refuse(raw: bytes) -> NoReturn:
    """Raise the first fault of a file that `_parse_bytes` refuses, in
    this order: not UTF-8, the header, the number of rows, the number of
    entries in each row, then row by row the first entry that
    `digit_fault` refuses.  Builds no matrix."""
    lines = plain_lines(raw, SchemeParseError)
    v, _ = _header(lines[0] if lines else b"")
    rows = lines[1:]
    if len(rows) != v:
        raise SchemeParseError(f"expected {v} rows, found {len(rows)}")
    for i, row in enumerate(rows, 1):
        count = len(row.split())
        if count != v:
            raise SchemeParseError(f"row {i} has {count} entries, expected {v}")
    raise SchemeParseError(next(
        f"row {i}: {fault}" for i, row in enumerate(rows, 1)
        for fault in (digit_fault(token, "entry") for token in row.split())
        if fault))


def parse_scheme_file(path) -> tuple[np.ndarray, int]:
    """Read the color matrix and declared rank without validating axioms.

    Only a file in the plain layout of `_parse_bytes` is read; `_refuse`
    names the fault of any other.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_bytes(raw) or _refuse(raw)


def read_scheme(path) -> SchemeTable:
    matrix, rank = parse_scheme_file(path)
    scheme = validate(matrix)
    if scheme.rank != rank:
        raise SchemeError(
            f"header says rank {rank}, matrix has rank {scheme.rank}")
    return scheme
