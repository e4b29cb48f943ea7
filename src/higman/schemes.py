"""Association schemes as dense color matrices.

A scheme on v points is a v x v matrix of colors 0..d where color 0 is the
diagonal, every color has an inverse color landing on the transposed cells,
and the count of two-colored paths between two points depends only on the
color joining them (the intersection numbers p_ij^k).  Validation derives
the full intersection tensor and rejects non-schemes with the first violated
axiom.  Parabolics, their coranks and the wreath test are read off that
tensor; quotients and restrictions work on the color matrix and are
validated again.  Cayley schemes of group partitions skip validation:
their tensor comes from the products of the parts.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .groups import FiniteGroup, gre_multiply

PARABOLIC_RANK_LIMIT = 16
FLOAT32_EXACT_LIMIT = 1 << 24  # integers below this are exact in float32


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
        self._parabolics: list[tuple] | None = None  # see parabolics()

    def is_symmetric(self) -> bool:
        return bool((self.inverse == np.arange(self.rank)).all())

    def __repr__(self) -> str:
        return f"<SchemeTable v={self.v} rank={self.rank}>"


def validate(matrix) -> SchemeTable:
    """Check the scheme axioms and derive the intersection tensor."""
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
    # every color below the rank is used; checked before narrowing the
    # dtype.  v^2 cells hold at most v^2 colors, so a color of v^2 or more
    # leaves a smaller one unused and all of them can share one bin; v^2
    # then fits the dtype, and bincount needs indices that fit intp.
    cells = v * v
    flat = color.ravel()
    if int(color.max()) >= cells:
        flat = np.minimum(flat, cells)
    counts = np.bincount(flat.astype(np.intp, copy=False))
    gaps = np.flatnonzero(counts == 0)
    if len(gaps):
        raise SchemeError(f"color {int(gaps[0])} unused")
    rank = len(counts)
    if rank > np.iinfo(np.int16).max + 1:
        raise SchemeError(f"rank {rank} over the int16 color limit")
    color = color.astype(np.int16)
    first = np.full(rank, cells)  # the row-major first cell of each color
    np.minimum.at(first, color.ravel(), np.arange(cells))

    diag = np.diagonal(color)
    if (diag != 0).any():
        x = int(np.nonzero(diag)[0][0])
        raise SchemeError(f"diagonal cell ({x},{x}) has color {int(color[x, x])}",
                          witness=(x, x))
    offdiag_zero = np.argwhere((color == 0) & ~np.eye(v, dtype=bool))
    if len(offdiag_zero):
        x, y = map(int, offdiag_zero[0])
        raise SchemeError(f"color 0 occurs off the diagonal at ({x},{y})",
                          witness=(x, y))

    # inverse colors: the transpose of each relation must be a single color
    rep_x, rep_y = np.divmod(first, v)
    istar = color[rep_y, rep_x]
    if not np.array_equal(color.T, istar[color]):
        x, y = map(int, np.argwhere(color.T != istar[color])[0])
        raise SchemeError(
            f"relation {int(color[x, y])} has no single inverse color "
            f"(witness ({x},{y}))", witness=(x, y))
    istar = istar.astype(np.int64)
    if (istar[istar] != np.arange(rank)).any():
        raise SchemeError("color inversion is not an involution")

    # intersection numbers: B_i B_j must be constant on every color class.
    # float32 is exact: every partial sum is an integer of at most v < 2^24.
    # The row sums of B_i are the diagonal of B_i B_i*, so B_i must be
    # row-regular; then sum_j B_j = J gives B_i B_last = n_i J -
    # sum_{j != last} B_i B_j.  B_0 = I, and (B_i B_j)^T = B_j* B_i*, so only
    # the first product of each such pair is formed, and none with
    # j = last or i = last*.
    basis = [(color == i).astype(np.float32) for i in range(rank)]
    n = np.ones(rank, dtype=np.int64)
    for i in range(1, rank):
        rows = basis[i].sum(axis=1)
        n[i] = rows[0]
        bad = np.nonzero(rows != n[i])[0]
        if len(bad):
            x = int(bad[0])
            raise SchemeError(
                f"p_{i},{int(istar[i])}^0 is not constant: cell ({x},{x}) "
                f"has {int(rows[x])}, expected {n[i]}",
                witness=(i, int(istar[i]), 0, x, x))
    last = rank - 1
    lstar = istar[last]
    p = np.zeros((rank, rank, rank), dtype=np.int64)
    p[0] = p[:, 0] = np.eye(rank, dtype=np.int64)
    for i in range(1, rank):
        for j in range(1, last):
            if i == lstar or (istar[j], istar[i]) < (i, j):
                continue
            prod = basis[i] @ basis[j]
            p[i, j] = prod[rep_x, rep_y]
            if not np.array_equal(prod, p[i, j].astype(np.float32)[color]):
                x, y = map(int, np.argwhere(prod != p[i, j][color])[0])
                k = int(color[x, y])
                raise SchemeError(
                    f"p_{i},{j}^{k} is not constant: cell ({x},{y}) has "
                    f"{int(prod[x, y])}, expected {int(p[i, j, k])}",
                    witness=(i, j, k, x, y))
            p[istar[j], istar[i]] = p[i, j][istar]
    # the last column, then row last* by transpose; its last entry needs
    # that row, so the column rule runs again for it
    p[:, last] = n[:, None] - p[:, :last].sum(axis=1)
    for j in range(1, last):
        p[lstar, j] = p[istar[j], last][istar]
    p[lstar, last] = n[lstar] - p[lstar, :last].sum(axis=0)

    return SchemeTable(color, p, istar)


def trivial_scheme(v: int) -> SchemeTable:
    """The rank-2 scheme (rank 1 when v = 1): diagonal plus everything else."""
    color = np.ones((v, v), dtype=np.int16) - np.eye(v, dtype=np.int16)
    return validate(color)


# -- parabolics ---------------------------------------------------------------

@dataclass(frozen=True)
class Parabolic:
    """An equivalence relation that is a union of basic relations."""

    scheme: SchemeTable = field(repr=False)
    colors: frozenset[int]
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray = field(repr=False)

    @property
    def n_class(self) -> int:
        return len(self.classes[0])

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def outside(self) -> list[int]:
        """The colors not in the parabolic, in increasing order."""
        return [i for i in range(self.scheme.rank) if i not in self.colors]

    def is_trivial(self) -> bool:
        return self.n_class in (1, self.scheme.v)

    def double_cosets(self) -> list[frozenset[int]]:
        """The distinct color sets P i P for colors i outside P.

        These are the color sets met by the blocks between two different
        classes, so they are the colors of the quotient."""
        p = self.scheme.p
        inside = sorted(self.colors)
        left = p[inside].any(axis=0)          # [i, s]: s in P i
        right = p[:, inside].any(axis=1)      # [s, k]: k in s P
        reach = (left.astype(np.int64) @ right) > 0
        return list(dict.fromkeys(
            frozenset(np.nonzero(reach[i])[0].tolist()) for i in self.outside))

    @property
    def corank(self) -> int:
        """Rank of the quotient scheme on the classes."""
        return 1 + len(self.double_cosets())


def parabolics(scheme: SchemeTable) -> list[Parabolic]:
    """All parabolics, ordered by class size; scanned once per scheme.

    An inverse-closed color set C containing 0 is a parabolic iff
    p_ij^k = 0 for all i, j in C and k outside C.  Every such set is tested
    at once: row s of ``member`` is the set of bits s plus color 0, and
    m_s^T P_k m_s counts the pairs (i, j) inside set s with p_ij^k > 0,
    where P_k is the support of p_..^k (float32 is exact: at most r^2).
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
        found = []
        for row in member[ok]:
            colors = np.flatnonzero(row)
            # each point's least class-mate names its class; all classes
            # have the same size, the sum of the valencies in C
            lead = np.isin(scheme.color, colors).argmax(axis=1)
            leads, class_of = np.unique(lead, return_inverse=True)
            order = np.argsort(class_of, kind="stable")
            classes = tuple(map(tuple, order.reshape(len(leads), -1).tolist()))
            found.append((frozenset(colors.tolist()), classes, class_of))
        # the cache holds no Parabolic, which points back at the scheme: a
        # reference cycle would keep every dropped scheme alive until the
        # cyclic collector runs
        scheme._parabolics = sorted(found, key=lambda e: len(e[1][0]))
    return [Parabolic(scheme, *entry) for entry in scheme._parabolics]


def nontrivial_parabolics(scheme: SchemeTable) -> list[Parabolic]:
    return [e for e in parabolics(scheme) if not e.is_trivial()]


def _relabel(sub: np.ndarray) -> np.ndarray:
    """Colors renumbered 0, 1, ... in row-major order of first occurrence."""
    _, first, inverse = np.unique(sub, return_index=True, return_inverse=True)
    label = np.empty(len(first), dtype=np.int16)
    label[np.argsort(first)] = np.arange(len(first))
    return label[inverse.reshape(sub.shape)]


def quotient(scheme: SchemeTable, parab: Parabolic) -> SchemeTable:
    """Scheme on the classes; block colors keyed by the color sets they meet."""
    if parab.scheme is not scheme:
        raise SchemeError("parabolic belongs to a different scheme")
    order = np.concatenate(parab.classes)
    starts = np.arange(0, scheme.v, parab.n_class)
    bits = np.left_shift(1, scheme.color[np.ix_(order, order)].astype(np.int64))
    blocks = np.bitwise_or.reduceat(
        np.bitwise_or.reduceat(bits, starts, axis=0), starts, axis=1)
    # diagonal blocks hold color 0, off-diagonal ones never do
    return validate(_relabel(blocks))


def restriction(scheme: SchemeTable, points: Sequence[int]) -> SchemeTable:
    """Restrict to a point subset, relabel colors densely, re-validate."""
    pts = sorted(set(int(x) for x in points))
    return validate(_relabel(scheme.color[np.ix_(pts, pts)]))


def is_wreath_over(scheme: SchemeTable, parab: Parabolic) -> bool:
    """True when every relation outside the parabolic is block-constant
    on off-diagonal class pairs (the wreath-product pattern), i.e. every
    double coset P i P with i outside P is {i}."""
    if parab.is_trivial():
        raise SchemeError("wreath test needs a nontrivial proper parabolic")
    return all(len(dc) == 1 for dc in parab.double_cosets())


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

def cayley_scheme(G: FiniteGroup, parts: Sequence[Iterable[int]]) -> SchemeTable:
    """Scheme of a group partition: color(x, y) = part containing y*x^-1.

    The partition must have {e} as part 0 and be inverse-closed.  It spans
    an S-ring, and so a scheme, iff every product of two parts is constant
    on every part (Schur); that constant is the intersection number.  The
    pairs (z, y) with color(e, z) = i and color(z, y) = j are those with
    y = tz, t in T_j and z in T_i, so p_ij^k is the coefficient of
    T_j T_i at any y in T_k.  No v x v product is formed.
    """
    part_sets = [frozenset(int(x) for x in p) for p in parts]
    total = sum(len(p) for p in part_sets)
    union = frozenset().union(*part_sets)
    if union - frozenset(range(G.order)):
        raise SchemeError(f"part element outside 0..{G.order - 1}")
    if total != G.order or len(union) != G.order:
        raise SchemeError("parts do not partition the group")
    if part_sets[0] != frozenset({G.identity}):
        raise SchemeError("part 0 must be the identity singleton")
    rank = len(part_sets)
    part_of = np.empty(G.order, dtype=np.int16)
    for pi, p in enumerate(part_sets):
        part_of[list(p)] = pi
    # istar[i] = the part of some x^-1 with x in T_i; inverse-closed iff
    # that part is the same for every x (empty parts are caught below)
    istar = np.zeros(rank, dtype=np.int64)
    istar[part_of] = part_of[G.inv]
    if (part_of[G.inv] != istar[part_of]).any():
        raise SchemeError("partition is not inverse-closed")
    idx = [sorted(p) for p in part_sets]
    for i, ti in enumerate(idx):
        if not ti:
            raise SchemeError(f"partition is not an S-ring: color {i} unused")
    rep = [ti[0] for ti in idx]

    p = np.zeros((rank, rank, rank), dtype=np.int64)
    for i, j in itertools.product(range(rank), repeat=2):
        prod = gre_multiply(G, idx[j], idx[i])
        p[i, j] = prod[rep]
        bad = np.nonzero(prod != p[i, j][part_of])[0]
        if len(bad):
            y = int(bad[0])
            k = int(part_of[y])
            raise SchemeError(
                f"partition is not an S-ring: p_{i},{j}^{k} is not constant: "
                f"cell ({G.identity},{y}) has {int(prod[y])}, expected "
                f"{int(p[i, j, k])}",
                witness=(i, j, k, G.identity, y))
    # color[x, y] = part(y x^-1):  mul[:, inv][y, x] = y * inv(x)
    color = np.ascontiguousarray(part_of[G.mul[:, G.inv]].T)
    return SchemeTable(color, p, istar)


# -- file format ----------------------------------------------------------------

def write_scheme(scheme: SchemeTable, path) -> None:
    """Text format: ``scheme <v> <rank>`` then v rows of colors."""
    # one row of names at a time: the whole v x v object array of names
    # would peak at about three times the memory
    names = np.array([str(c) for c in range(scheme.rank)], dtype=object)
    lines = [f"scheme {scheme.v} {scheme.rank}"]
    lines += [" ".join(names[row].tolist()) for row in scheme.color]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class SchemeParseError(ValueError):
    """The file is not in the scheme format (distinct from axiom failures)."""


def parse_scheme_file(path) -> tuple[np.ndarray, int]:
    """Read the color matrix and declared rank without validating axioms."""
    with open(path) as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    if not lines or not lines[0].startswith("scheme "):
        raise SchemeParseError("scheme file must start with 'scheme <v> <rank>'")
    head = lines[0].split()
    try:
        v, rank = int(head[1]), int(head[2])
    except (IndexError, ValueError):
        raise SchemeParseError("bad scheme header") from None
    if len(lines) != v + 1:
        raise SchemeParseError(f"expected {v} rows, found {len(lines) - 1}")
    # rows are split once to check lengths and again to convert: keeping
    # all v token lists alive at once raised peak memory by a few MB at
    # v = 972.  The matrix is allocated only once every row is known to
    # hold v tokens, so it is never larger than the file.
    for li, ln in enumerate(lines[1:]):
        count = len(ln.split())
        if count != v:
            raise SchemeParseError(
                f"row {li + 1} has {count} entries, expected {v}")
    # loadtxt converts the rows in C.  When it refuses them or splits them
    # differently, the row loop below names the bad row, or accepts what
    # int() accepts (such as 1_0).  Any warning is a refusal here: older
    # NumPy parses "4.0" as an integer with a DeprecationWarning, and zero
    # rows (v = 0) give a UserWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            matrix = np.loadtxt(lines[1:], dtype=np.int64, comments=None,
                                ndmin=2)
        except (ValueError, OverflowError, Warning):
            matrix = None
    if matrix is not None and matrix.shape == (v, v):
        return matrix, rank
    matrix = np.empty((v, v), dtype=np.int64)
    for li, ln in enumerate(lines[1:]):
        try:
            matrix[li] = ln.split()
        except ValueError:
            raise SchemeParseError(f"row {li + 1}: non-integer entry") from None
        except OverflowError:
            raise SchemeParseError(
                "entry out of the 64-bit integer range") from None
    return matrix, rank


def read_scheme(path) -> SchemeTable:
    matrix, rank = parse_scheme_file(path)
    scheme = validate(matrix)
    if scheme.rank != rank:
        raise SchemeError(
            f"header says rank {rank}, matrix has rank {scheme.rank}")
    return scheme
