"""Cross-check of the tensor-derived structure against a brute-force
matrix reference.

The reference below works on the v x v color matrix only: parabolics by a
union-matmul transitivity scan, quotients by scanning every block between
two classes, the wreath test by counting each outside relation per block,
restrictions by a row-major relabeling loop, intersection numbers from all
r^2 products, the definitional uniformity check from all r^2 block
products of every class, dismantlability by restricting to every union
of classes, and detection's per-class count k by counting each point's
neighbors in every class.  `higman.schemes` takes parabolics and coranks
from the intersection tensor instead (the wreath test is the corank
identity of `wreath_checked`), `validate` skips the products the algebra
determines, `is_uniform_by_definition` and
`is_dismantlable` skip transpose pairs and every pair with a color inside
the parabolic (whose product through a class is p_ij^k on the rows or
columns in the class and 0 elsewhere, tested directly; the pair list they
share is checked to cover every ordered pair of outside colors, and the
witnesses of both are pinned on orbit schemes), `is_dismantlable`
decides every union from one pass over the class products, and detection
reads k from the tensor; both must agree everywhere.  Detection, which
rejects any count of nontrivial parabolics but 2 before it tests the
chain, is checked against the search over every ordered pair that it
replaced (`ref_detect_chain`): the same acceptance, params, second
labeling and relation order.  Route 3 is checked against loops too: the
Krein parameters against the loop over every ordered triple, and the
multiplicities against the closed form in (f, m, n, k) and the eigenvalue
pair.  Subset products
`gre_multiply` are checked against a weighted scatter of one table row per
element of the smaller side, the block-wise RDS search against a
backtracking search that adds one element and one difference at a time,
and Cayley schemes, whose tensor comes from the products of the parts,
against `validate` on their color matrices and against the loop over all
r^2 products (`ref_cayley_products`): the same tensor, and the same
failing pair, cell and message.  Recipe 2's Cayley schemes, read off
the tables of G and U, are checked against `cayley_scheme` on the G x U
table materialized as one group (`ref_product_group`): the same colors,
tensor and inverses on every recipe-2 construction here, and the same
message and witness on a corrupted partition, also in blocks of a row.
Route 3's integer kernel is checked
against the `QuadraticNumber` loops it replaced (`ref_multiplicity_check`,
`ref_eigen_check`, `ref_sorted_krein`): the same values on every route-3
parameter tuple, and the same values or errors on corrupted spectral
data.  The integer kernel of
`QuadraticNumber` is checked against the Fraction kernel it replaced: the
same printed values, order, errors and route-1/route-3 outputs.  Each of
routes 2 and 4, when it passes, is counted to form one packed product per
class and run of `digit_runs` but the last (that product is formed here,
through every class, and checked against both routes' cell sets and route
2's recorded coefficients), and their witnesses are required to match
the references and runs cut to one color, also where a later digit of a
run fails; that failing digit is read where `validate` and both routes
find it, in the one shared `DigitRun.check`.  `validate`, which packs
the products of one left color, is checked against the validate that
formed one product per pair (`ref_validate`, kept verbatim): the same
tensor on every scheme, and the same message and witness on malformed
matrices, with runs packed and cut to one color.  On 198 of those
schemes one color generates, and `validate` returns the tensor it proves;
which path runs is pinned: one check on the desk points, the loop on the
non-commutative thin S3.  `verify_linked_system` is checked against the
verifier that formed every product, the inverse-partner ones and repeats
included: the same system or the same error on every closed family of the
desk points, mutated ones and unions, and the same search result on each
branch, where the reference search closes families with a copy of
`_close` whose RDS index holds frozensets, not sorted tuples
(`ref_close`).
The Lanczos float oracle is checked against the dense oracle it replaced
(`eigh` of M, one projection per eigenspace): the same multiplicities, P
within 1e-9, and the same error on wrong exact data.  `write_scheme`,
which gathers the tokens of a block of rows at once, is checked against
the row-by-row writer it replaced (`ref_write_scheme`): the same bytes on
every scheme here and on random color matrices whose names have 1 to 4
digits, also in blocks of a few rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
from fractions import Fraction
from functools import cache, total_ordering
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

from higman import constructions, groups, higmanian, schemes, spectral
from higman.cli import TABLE_GRID
from higman.constructions import (ConstructionError, search_semiregular_rds,
                                  table1_params, table2_params)
from higman.groups import (build_family, cosets, direct_product, gre_multiply,
                           isomorphisms)
from higman.higmanian import (DefinitionCheck, DismantleCheck,
                              HigmanianParams, VerdictInconsistencyError,
                              _outside_blocks, detect_higmanian,
                              is_dismantlable, is_uniform_by_definition,
                              verdict_bundle)
from higman.quadratic import QuadraticNumber as QN
from higman.quadratic import quadratic_roots, square_free_decomposition
from higman.schemes import (FLOAT32_EXACT_LIMIT, SchemeError, SchemeTable,
                            cayley_scheme, digit_runs, nontrivial_parabolics,
                            parabolics, parse_scheme_file, read_scheme,
                            restriction, trivial_scheme, validate,
                            wreath_product, write_scheme)
from higman.spectral import (EigenData, KreinTensor, OracleResult,
                             SpectralError, eigenvalue_pair,
                             float_eigen_oracle, krein, multiplicity_check,
                             spectral_data)
from test_groups import BUILTIN_SPECS


# -- the matrix reference ----------------------------------------------------------

def ref_parabolics(scheme):
    """(colors, classes, class_of) of every parabolic, by class size."""
    found = []
    d = scheme.rank - 1
    for bits in range(1 << d):
        colors = {0} | {i + 1 for i in range(d) if bits >> i & 1}
        if any(int(scheme.inverse[c]) not in colors for c in colors):
            continue
        mask = np.isin(scheme.color, sorted(colors))
        m = mask.astype(np.int64)
        if ((m @ m > 0) & ~mask).any():
            continue
        classes = sorted({tuple(np.nonzero(row)[0].tolist()) for row in mask})
        class_of = np.empty(scheme.v, dtype=np.int64)
        for ci, cls in enumerate(classes):
            class_of[list(cls)] = ci
        found.append((frozenset(colors), tuple(classes), class_of))
    return sorted(found, key=lambda e: len(e[1][0]))


def classes_of(parab):
    """The classes of a parabolic as sorted tuples of points, in the order
    of `class_of`, which numbers them by their least point."""
    order = np.argsort(parab.class_of, kind="stable")
    return tuple(map(tuple, order.reshape(parab.num_classes, -1).tolist()))


def ref_intersection_numbers(color):
    """p[i, j, k] from all r^2 products B_i B_j, read at a cell of color k."""
    r = int(color.max()) + 1
    basis = [(color == i).astype(np.int64) for i in range(r)]
    cells = [tuple(np.argwhere(color == k)[0]) for k in range(r)]
    p = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            prod = basis[i] @ basis[j]
            for k, cell in enumerate(cells):
                assert (prod[color == k] == prod[cell]).all()
                p[i, j, k] = prod[cell]
    return p


def ref_validate(matrix) -> SchemeTable:
    """Check the scheme axioms and derive the intersection tensor, one
    product B_i B_j at a time (the unpacked `validate`, kept verbatim)."""
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


def ref_relabel(sub):
    out = np.empty(sub.shape, dtype=np.int16)
    relabel = {}
    for x in range(sub.shape[0]):
        for y in range(sub.shape[1]):
            out[x, y] = relabel.setdefault(int(sub[x, y]), len(relabel))
    return out


def ref_quotient_colors(scheme, classes):
    c = len(classes)
    seen = {}
    qcolor = np.zeros((c, c), dtype=np.int16)
    for a in range(c):
        for b in range(c):
            if a != b:
                block = scheme.color[np.ix_(classes[a], classes[b])]
                key = frozenset(np.unique(block).tolist())
                qcolor[a, b] = seen.setdefault(key, len(seen) + 1)
    return qcolor


def ref_is_wreath(scheme, colors, classes, class_of):
    c, size = len(classes), len(classes[0])
    member = np.zeros((scheme.v, c), dtype=np.int64)
    member[np.arange(scheme.v), class_of] = 1
    offdiag = ~np.eye(c, dtype=bool)
    for col in range(scheme.rank):
        if col not in colors:
            counts = member.T @ (scheme.color == col).astype(np.int64) @ member
            if not np.isin(counts[offdiag], (0, size * size)).all():
                return False
    return True


def wreath_checked(scheme, parab):
    """Whether P is a wreath factor, by cork(P) = rank - |P| + 1, checked
    against the block-counting reference."""
    got = parab.corank == scheme.rank - len(parab.colors) + 1
    assert got == ref_is_wreath(scheme, parab.colors, classes_of(parab),
                                parab.class_of)
    return got


def ref_restriction_colors(scheme, points):
    pts = sorted(set(points))
    return ref_relabel(scheme.color[np.ix_(pts, pts)])


def ref_triple_key(scheme, parab):
    """Each cell's (D, L, k) triple, raveled, as an index into a c x c x r
    table."""
    r, c, class_of = scheme.rank, parab.num_classes, parab.class_of
    return ((class_of[:, None] * c + class_of[None, :]) * r
            + scheme.color.astype(np.int64)).ravel()


def ref_block_tables(scheme, parab):
    """Each block product A_i^{DG} A_j^{GL}, each class G and all (i, j) in
    order, as ``(gi, i, j, M, table)``: M raveled, and scattered into a
    (D, L, k) table, where the last write is the value of each triple."""
    r, c = scheme.rank, parab.num_classes
    basis = [(scheme.color == i).astype(np.float64) for i in range(r)]
    key = ref_triple_key(scheme, parab)
    for gi, gpts in enumerate(map(list, classes_of(parab))):
        for i in range(r):
            for j in range(r):
                M = np.rint(basis[i][:, gpts] @ basis[j][gpts, :]).astype(
                    np.int64).ravel()
                table = np.zeros(c * c * r, dtype=np.int64)
                table[key] = M
                yield gi, i, j, M, table


def ref_is_uniform_by_definition(scheme, parab):
    """Every block product of `ref_block_tables`; the first row-major cell
    that differs from its triple's value is the witness."""
    cork = parab.corank
    if cork != 2:
        return DefinitionCheck(ok=False, cork=cork)
    class_of, key = parab.class_of, ref_triple_key(scheme, parab)
    for gi, i, j, M, table in ref_block_tables(scheme, parab):
        bad = np.nonzero(table[key] != M)[0]
        if len(bad):
            x, y = divmod(int(bad[0]), scheme.v)
            return DefinitionCheck(
                ok=False, cork=2,
                witness=(int(class_of[x]), gi, int(class_of[y]),
                         i, j, int(scheme.color[x, y])))
    return DefinitionCheck(ok=True, cork=2)


def ref_coefficients_consistent(scheme, parab):
    """Whether each a_ij^k, the value of the product of (i, j) through G on
    the k-cells of D x L, is one value over every class triple (D, G, L)
    with A_i meeting D x G, A_j meeting G x L and k meeting D x L.
    Assumes route 2 passes, so that each product is constant on each of
    its (D, L, k) cell sets."""
    r, v, c = scheme.rank, scheme.v, parab.num_classes
    member = np.zeros((v, c))
    member[np.arange(v), parab.class_of] = 1.0
    occurs = [np.rint(member.T @ (scheme.color == i) @ member) > 0
              for i in range(r)]
    gmin = np.full((r, r, r), np.iinfo(np.int64).max, dtype=np.int64)
    gmax = np.full((r, r, r), -1, dtype=np.int64)
    for gi, i, j, _, table in ref_block_tables(scheme, parab):
        adm = occurs[i][:, gi][:, None] & occurs[j][gi, :][None, :]
        blocks = table.reshape(c, c, r)
        for k in range(r):
            sel = adm & occurs[k]
            if sel.any():
                vals = blocks[:, :, k][sel]
                gmin[i, j, k] = min(gmin[i, j, k], int(vals.min()))
                gmax[i, j, k] = max(gmax[i, j, k], int(vals.max()))
    seen = gmax >= 0
    return bool((gmin[seen] == gmax[seen]).all())


def ref_is_dismantlable(scheme, parab):
    """Whether every nonempty union of classes induces a subscheme, by
    restricting to each union in turn."""
    classes = classes_of(parab)
    for mask in range(1, 1 << len(classes)):
        pts = [x for ci, cls in enumerate(classes) if mask >> ci & 1
               for x in cls]
        try:
            restriction(scheme, pts)
        except SchemeError:
            return False
    return True


def ref_per_class_count(scheme, F, color):
    """|alpha R ∩ Delta| for R the relation ``color``, over all points alpha
    and classes Delta != Delta_alpha of F, from the v x v adjacency matrix
    times the v x c class membership matrix; None when not constant."""
    member = np.zeros((scheme.v, F.num_classes), dtype=np.float64)
    member[np.arange(scheme.v), F.class_of] = 1.0
    adjacency = (scheme.color == color).astype(np.float64)
    counts = np.rint(adjacency @ member).astype(np.int64)
    own = counts[np.arange(scheme.v), F.class_of]
    if (own != 0).any():
        return None
    mask = np.ones_like(counts, dtype=bool)
    mask[np.arange(scheme.v), F.class_of] = False
    vals = counts[mask]
    if vals.min() != vals.max():
        return None
    return int(vals[0])


def ref_krein(P, multiplicities, valencies):
    """q_ij^k, each of the r^3 ordered triples summed on its own."""
    r = len(valencies)
    v = sum(valencies)
    nl2 = [valencies[l] * valencies[l] for l in range(r)]
    tensor = []
    for i in range(r):
        plane = []
        for j in range(r):
            row = []
            scale = multiplicities[i] * multiplicities[j] / v
            for k in range(r):
                s = QN(0)
                for l in range(r):
                    s = s + P[i][l] * P[j][l] * P[k][l] / nl2[l]
                row.append(scale * s)
            plane.append(tuple(row))
        tensor.append(tuple(plane))
    return tuple(tensor)


# The QuadraticNumber loops that multiplicity_check, EigenData.check and
# krein ran before their integer kernel, kept with one change: sums start
# from the int 0, not QN(0), so that the loops run on either kernel of the
# parity tests below.  The integer kernel must give their values and, on
# corrupted input, their errors.

def ref_multiplicity_check(P, valencies):
    v = sum(valencies)
    out = []
    for row in P:
        s = 0
        for i, n_i in enumerate(valencies):
            s = s + row[i] * row[i] / n_i
        if not s:
            raise SpectralError("zero denominator in multiplicity formula")
        out.append(v / s)
    return tuple(out)


def ref_eigen_check(data):
    r, v = data.rank, data.v
    if tuple(x.as_integer() if x.is_integer else None for x in data.P[0]) \
            != data.valencies:
        raise SpectralError("row 0 of P must be the valency vector")
    if sum(data.multiplicities, 0) != v:
        raise SpectralError("multiplicities do not sum to v")
    for m in data.multiplicities:
        if m.sign() <= 0:
            raise SpectralError("nonpositive multiplicity")
    for i in range(r):
        for k in range(i, r):
            s = 0
            for j in range(r):
                s = s + data.multiplicities[j] * data.P[j][i] * data.P[j][k]
            s = s / (data.valencies[i] * data.valencies[k])
            if (s != Fraction(v, data.valencies[i])) if i == k else s:
                raise SpectralError(
                    f"column orthogonality fails at ({i},{k})")


def ref_sorted_krein(P, multiplicities, valencies):
    r = len(valencies)
    v = sum(valencies)
    nl2 = [n_l * n_l for n_l in valencies]
    s = {}
    for i, j, k in itertools.combinations_with_replacement(range(r), 3):
        acc = 0
        for l in range(r):
            acc = acc + P[i][l] * P[j][l] * P[k][l] / nl2[l]
        s[i, j, k] = acc
    q = [[()] * r for _ in range(r)]
    for i, j in itertools.combinations_with_replacement(range(r), 2):
        scale = multiplicities[i] * multiplicities[j] / v
        q[i][j] = q[j][i] = tuple(scale * s[tuple(sorted((i, j, k)))]
                                  for k in range(r))
    return tuple(tuple(row) for row in q)


def ref_higmanian_multiplicities(params, x1, x3):
    """Closed-form multiplicities (m_0, ..., m_4) given the eigenvalue pair."""
    f, m, n, k = params.f, params.m, params.n, params.k
    mn = m * n
    top = QN(f * (f - 1) * m * (n - 1) * k * (mn - k))
    base = QN((f - 1) * k * (mn - k))
    m1 = top / (base + x1 * x1 * (m * (n - 1)))
    m3 = top / (base + x3 * x3 * (m * (n - 1)))
    return (QN(1), m1, QN(f * (m - 1)), m3, QN(f - 1))


def ref_float_eigen_oracle(scheme: SchemeTable, exact: EigenData,
                           relation_order: Sequence[int]) -> OracleResult:
    """Numerically eigendecompose the adjacency matrices and match the rows
    of the exact eigenmatrix, as an independent verification channel.

    relation_order maps eigenmatrix columns to scheme colors.  Raises when
    the match is off by more than 1e-8.
    """
    order = list(relation_order)
    # bool masks: w * True = w and proj * 1.0 = proj, so M and every cell
    # sum are those of the 0/1 float matrices, without a float copy each
    mats = [scheme.color == c for c in order]
    r = scheme.rank
    for attempt in range(10):
        rng = np.random.default_rng(12345 + attempt)
        w = rng.uniform(1.0, 2.0, size=r)
        M = sum(wi * A for wi, A in zip(w, mats))
        vals, vecs = np.linalg.eigh(M)
        clusters = ref_cluster(vals, 1e-6 * max(1.0, float(np.abs(vals).max())))
        if len(clusters) == r:
            break
    else:
        raise SpectralError("could not separate eigenspaces numerically")

    P_float = np.empty((r, r))
    dims = []
    for ci, idxs in enumerate(clusters):
        V = vecs[:, idxs]
        proj = V @ V.T
        dims.append(len(idxs))
        # trace(proj A) without the product: proj is symmetric, so it is
        # the sum of proj * A (numpy's pairwise sum keeps the error small)
        for i, A in enumerate(mats):
            P_float[ci, i] = (proj * A).sum() / len(idxs)

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
    mults = tuple(dims[j] for j in perm)
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


def ref_cluster(vals: np.ndarray, gap: float) -> list[list[int]]:
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[clusters[-1][-1]] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


# The Fraction-based kernel that the integer kernel replaced, kept verbatim
# (renamed) as the reference for the parity tests.

_FracLike = int | Fraction


@total_ordering
class RefQuadraticNumber:
    """An exact element a + b*sqrt(D) of Q(sqrt(D)), D square-free."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a: _FracLike = 0, b: _FracLike = 0, D: int = 0) -> None:
        a = Fraction(a)
        b = Fraction(b)
        if D < 0:
            raise ValueError("D must be nonnegative")
        if b != 0 and D > 0:
            s, d = square_free_decomposition(D)
            b *= s
            D = d
            if D == 1:
                a += b
                b = Fraction(0)
                D = 0
        if b == 0 or D == 0:
            b, D = Fraction(0), 0
        self.a: Fraction = a
        self.b: Fraction = b
        self.D: int = D

    def integers(self) -> tuple[int, int, int, int]:
        """(a, b, den, D) over the least common denominator den."""
        den = math.lcm(self.a.denominator, self.b.denominator)
        return (self.a.numerator * (den // self.a.denominator),
                self.b.numerator * (den // self.b.denominator), den, self.D)

    @classmethod
    def sqrt(cls, x: _FracLike) -> RefQuadraticNumber:
        """Exact square root of a nonnegative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative radicand")
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = square_free_decomposition(x.numerator * x.denominator)
        return cls(0, Fraction(s, x.denominator), d)

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return int(self.a)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> RefQuadraticNumber | None:
        if isinstance(other, RefQuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return RefQuadraticNumber(other)
        return None

    def _join(self, other: RefQuadraticNumber) -> int:
        """Common D for a binary operation; mixing two radicals is an error."""
        if self.D == 0 or other.D == 0:
            return self.D or other.D
        if self.D != other.D:
            raise ValueError(f"incompatible radicals sqrt({self.D}), sqrt({other.D})")
        return self.D

    def __add__(self, other) -> RefQuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._join(o)
        return RefQuadraticNumber(self.a + o.a, self.b + o.b, D)

    __radd__ = __add__

    def __neg__(self) -> RefQuadraticNumber:
        return RefQuadraticNumber(-self.a, -self.b, self.D)

    def __sub__(self, other) -> RefQuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> RefQuadraticNumber:
        return (-self) + other

    def __mul__(self, other) -> RefQuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._join(o)
        return RefQuadraticNumber(self.a * o.a + self.b * o.b * D,
                               self.a * o.b + self.b * o.a, D)

    __rmul__ = __mul__

    def inverse(self) -> RefQuadraticNumber:
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return RefQuadraticNumber(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other) -> RefQuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> RefQuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Sign of the real value, computed exactly."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        # a and b both nonzero: compare a with -b*sqrt(D)
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: sign agrees with sign(a) iff a^2 > b^2 D
        lhs, rhs = self.a * self.a, self.b * self.b * self.D
        if lhs == rhs:
            return 0
        big_a = lhs > rhs
        return (1 if self.a > 0 else -1) if big_a else (1 if self.b > 0 else -1)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.D == o.D

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __abs__(self) -> RefQuadraticNumber:
        return -self if self.sign() < 0 else self

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.D))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.D ** 0.5

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"√{self.D}"
        bs = "" if self.b == 1 else ("-" if self.b == -1 else str(self.b))
        if self.a == 0:
            return f"{bs}{root}"
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        ms = "" if mag == 1 else str(mag)
        return f"{self.a}{sign}{ms}{root}"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a!r}, {self.b!r}, {self.D})"


def ref_quadratic_roots(b: Fraction, c: Fraction) -> tuple[RefQuadraticNumber, RefQuadraticNumber]:
    """Exact roots of x^2 + b*x + c = 0 (requires a nonnegative discriminant)."""
    disc = b * b - 4 * c
    if disc < 0:
        raise ValueError(f"negative discriminant {disc}")
    s = RefQuadraticNumber.sqrt(disc)
    return (RefQuadraticNumber(-b) + s) / 2, (RefQuadraticNumber(-b) - s) / 2


def ref_product_group(res):
    """Recipe 2's G x U as one group, with its table materialized by
    `direct_product`: the product whose single table `cayley_scheme` and
    `gre_multiply` are checked on, against the factor tables."""
    return direct_product(res.system.group, res.U, name=res.group_name)


def ref_gre_multiply(G, xs, ys):
    """Product of the multiset sums of xs and ys: the coefficient vectors
    count repeats, and one weighted table row per element of the smaller
    support is scattered with np.add.at."""
    a = np.zeros(G.order, dtype=np.int64)
    b = np.zeros(G.order, dtype=np.int64)
    np.add.at(a, np.asarray(xs, dtype=np.int64), 1)
    np.add.at(b, np.asarray(ys, dtype=np.int64), 1)
    out = np.zeros(G.order, dtype=np.int64)
    sa, sb = np.nonzero(a)[0], np.nonzero(b)[0]
    if len(sa) > len(sb):
        for y in sb:
            np.add.at(out, G.mul[sa, y], a[sa] * b[y])
    else:
        for x in sa:
            np.add.at(out, G.mul[x, sb], a[x] * b[sb])
    return out


def ref_search_semiregular_rds(G, N, max_space=1 << 24):
    """All transversals of N whose differences avoid N^# and cover G \\ N
    with constant multiplicity; exhaustive backtracking, lex order."""
    n = N.order
    m = G.order // n
    if n ** m > max_space:
        raise ConstructionError(
            f"search space {n}^{m} exceeds cap {max_space}")
    if m % n:
        return []
    lam = m // n
    blocks = cosets(G, N)
    in_n = np.zeros(G.order, dtype=bool)
    in_n[list(N.elements)] = True
    counts = np.zeros(G.order, dtype=np.int64)
    mul, inv = G.mul, G.inv
    found = []
    chosen = []

    def extend(level):
        if level == m:
            found.append(tuple(sorted(chosen)))
            return
        for x in blocks[level]:
            diffs = []
            ok = True
            for y in chosen:
                for d in (int(mul[x, inv[y]]), int(mul[y, inv[x]])):
                    if in_n[d] or counts[d] >= lam:
                        ok = False
                        break
                    counts[d] += 1
                    diffs.append(d)
                if not ok:
                    break
            if ok:
                chosen.append(x)
                extend(level + 1)
                chosen.pop()
            for d in diffs:
                counts[d] -= 1

    extend(0)
    return sorted(found)


# -- the schemes -------------------------------------------------------------------------

def two_level_wreath():
    return wreath_product(wreath_product(trivial_scheme(2), trivial_scheme(3)),
                          trivial_scheme(2))


def small_partitions():
    """The group partitions of the small Cayley schemes at hand.  S3 has a
    non-normal subgroup, where P i P is larger than P i."""
    s3 = build_family("GenDih:C:3")
    return {"octagon": (build_family("C:8"),
                        [[0], [1, 7], [2, 6], [3, 5], [4]]),
            "thin S3": (s3, [[x] for x in range(s3.order)])}


@pytest.fixture(scope="module")
def reference_schemes(constructions_by_family, example1_results):
    out = {f"{fam} {dict(kw)}": con.result.scheme
           for (fam, kw), con in constructions_by_family.items()}
    for i, res in enumerate(example1_results):
        out[f"example1 #{i}"] = res.scheme
    out["wreath T3 by T4"] = wreath_product(trivial_scheme(3), trivial_scheme(4))
    out["two-level wreath"] = two_level_wreath()
    for name, (G, parts) in small_partitions().items():
        out[name] = cayley_scheme(G, parts)
    return out


SCHEME_NAMES = ("q8cp {'r': 1}", "q8cp {'r': 2}", "heis {'q': 3, 'r': 1}",
                "ea {'j': 1, 'q': 3, 'r': 1}", "example1 #0", "example1 #1",
                "wreath T3 by T4", "two-level wreath", "octagon", "thin S3")


def orbit_parts(n, units):
    """The orbits of a group of units on C:n, {0} first."""
    parts, seen = [[0]], {0}
    for x in range(1, n):
        if x not in seen:
            orbit = sorted({x * u % n for u in units})
            seen.update(orbit)
            parts.append(orbit)
    return parts


def orbit_scheme(n, units):
    """Scheme of C:n whose parts are the orbits of a group of units."""
    return cayley_scheme(build_family(f"C:{n}"), orbit_parts(n, units))


def unit_groups(n):
    """Every cyclic group of units mod n, as a sorted tuple."""
    groups = set()
    for g in range(1, n):
        if math.gcd(g, n) == 1:
            powers, x = {1}, g
            while x != 1:
                powers.add(x)
                x = x * g % n
            groups.add(tuple(sorted(powers)))
    return sorted(groups)


def thin_partitions():
    q8 = build_family("Q8cp:1")
    return [(build_family("C:5"), [[i] for i in range(5)]),
            (q8, [[i] for i in range(q8.order)]),
            (build_family("C:7"), [[0], [1, 2, 4], [3, 5, 6]]),
            (build_family("C:15"), orbit_parts(15, (1, 2, 4, 8)))]


def thin_schemes():
    """Nonsymmetric schemes, one of them noncommutative.  In the last one
    the inverse of the last color is color 1."""
    return [cayley_scheme(G, parts) for G, parts in thin_partitions()]


def test_reference_covers_every_scheme(reference_schemes):
    assert sorted(reference_schemes) == sorted(SCHEME_NAMES)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_tensor_structure_matches_reference(reference_schemes, name):
    scheme = reference_schemes[name]
    ref = ref_parabolics(scheme)
    got = parabolics(scheme)
    assert [(e.colors, classes_of(e)) for e in got] == [r[:2] for r in ref]
    for parab, (colors, classes, class_of) in zip(got, ref):
        assert parab.class_of.tolist() == class_of.tolist()
        assert (parab.num_classes, parab.n_class) == \
            (len(classes), len(classes[0]))
        ref_q = validate(ref_quotient_colors(scheme, classes))
        assert parab.corank == ref_q.rank
        wreath_checked(scheme, parab)
        for cls in classes:
            ref_r = validate(ref_restriction_colors(scheme, cls))
            assert ref_r.rank == len(colors)
            assert restriction(scheme, cls).color.tobytes() == \
                ref_r.color.tobytes()


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_restriction_of_unions_matches_reference(reference_schemes, name):
    # unions of two classes may or may not induce a scheme; both sides
    # must accept or reject alike and relabel identically
    scheme = reference_schemes[name]
    for parab in parabolics(scheme):
        if parab.num_classes < 2:
            continue
        classes = classes_of(parab)
        pts = classes[-1] + classes[0]
        ref_colors = ref_restriction_colors(scheme, pts)
        try:
            ref_r = validate(ref_colors)
        except SchemeError:
            with pytest.raises(SchemeError):
                restriction(scheme, pts)
            continue
        assert restriction(scheme, pts).color.tobytes() == \
            ref_r.color.tobytes()


def test_wreath_verdicts_on_wreath_products():
    # the tensor test must see the wreath structure the reference sees
    w = wreath_product(trivial_scheme(3), trivial_scheme(4))
    (mid,) = [e for e in parabolics(w) if not e.is_trivial()]
    assert wreath_checked(w, mid) and mid.corank == 2
    two = two_level_wreath()
    mids = [e for e in parabolics(two) if not e.is_trivial()]
    assert [e.n_class for e in mids] == [2, 6]
    assert all(wreath_checked(two, e) for e in mids)


def test_validate_matches_all_products(reference_schemes):
    # validate forms one product of each transpose pair, none with B_0 and
    # none with the last color on the right or its inverse on the left;
    # those come from sum_j B_j = J and the transpose rule
    schemes = list(reference_schemes.values()) + thin_schemes()
    assert any(not (s.p == s.p.transpose(1, 0, 2)).all() for s in schemes)
    # Cayley schemes do not pass through validate, so it runs here again
    for scheme in schemes:
        p = ref_intersection_numbers(scheme.color)
        again = validate(scheme.color)
        assert (again.inverse == scheme.inverse).all()
        for s in (scheme, again):
            assert (s.p == p).all()
            assert (s.valencies == p[np.arange(s.rank), s.inverse, 0]).all()


def ref_cayley_color(G, parts):
    """color(x, y) = the part containing y x^-1, by table lookup."""
    part_of = np.empty(G.order, dtype=np.int64)
    for i, part in enumerate(parts):
        part_of[list(part)] = i
    return part_of[G.mul[:, G.inv]].T


def cayley_cases(constructions_by_family, example1_results,
                 negative_control_candidates):
    """Every Cayley scheme the suite builds, and every candidate partition
    of the negative-control search, accepted or not."""
    cases = [(ref_product_group(con.result), con.result.parts)
             for con in constructions_by_family.values()]
    cases += [(res.group, res.parts) for res in example1_results]
    cases += list(small_partitions().values()) + thin_partitions()
    cases += [(build_family(f"C:{n}"), orbit_parts(n, units))
              for n in range(4, 41) for units in unit_groups(n)]
    return cases + negative_control_candidates


def test_cayley_scheme_matches_validate(constructions_by_family,
                                        example1_results,
                                        negative_control_candidates):
    # cayley_scheme decides the S-ring from the products of the parts;
    # validate must accept the same color matrices and derive the same
    # tensor
    cases = cayley_cases(constructions_by_family, example1_results,
                         negative_control_candidates)
    accepted = 0
    for G, parts in cases:
        try:
            ref = validate(ref_cayley_color(G, parts))
        except SchemeError:
            with pytest.raises(SchemeError, match="not an S-ring"):
                cayley_scheme(G, parts)
            continue
        got = cayley_scheme(G, parts)
        assert got.color.tobytes() == ref.color.tobytes()
        assert (got.p == ref.p).all()
        assert (got.inverse == ref.inverse).all()
        assert (got.valencies == ref.valencies).all()
        accepted += 1
    assert 0 < accepted < len(cases)


@pytest.fixture(scope="module")
def recipe2_results(constructions_by_family):
    """Every recipe-2 construction the suite builds: the four desk points,
    q8cp r=3 and r=4, and heis q=3 r=1 under an automorphism phi of its
    associate group other than the identity."""
    results = [con.result for con in constructions_by_family.values()]
    results += [constructions.example2_construct(
        constructions.q8cp_linked_system(r)) for r in (3, 4)]
    system = constructions_by_family[("heis", (("q", 3), ("r", 1)))].system
    winf = constructions.associate_group(system)
    phi = next(phi for phi in isomorphisms(winf, winf)
               if phi.map != tuple(range(winf.order)))
    return results + [constructions.example2_construct(system, phi)]


def corrupted_recipe2_parts(res):
    """Recipe 2's parts with one element of T_3 and its inverse moved to
    T_4: still an inverse-closed partition, but not an S-ring."""
    P = ref_product_group(res)
    x = res.parts[3][0]
    moved = {x, int(P.inv[x])}
    parts = [list(part) for part in res.parts]
    parts[3] = [y for y in parts[3] if y not in moved]
    parts[4] = sorted(parts[4] + list(moved))
    return parts


def cayley_failure(G, parts, U=None):
    """The text and witness of the `SchemeError` of a partition."""
    with pytest.raises(SchemeError) as err:
        cayley_scheme(G, parts, U)
    return str(err.value), err.value.witness


def test_cayley_scheme_from_factors_matches_product_table(recipe2_results):
    # recipe 2 reads its scheme off the tables of G and U; the G x U table,
    # materialized as one group, must give the same colors and tensor
    assert [res.scheme.v for res in recipe2_results[4:6]] == [384, 1536]
    for res in recipe2_results:
        ref = cayley_scheme(ref_product_group(res), res.parts)
        assert res.scheme.color.tobytes() == ref.color.tobytes()
        assert (res.scheme.p == ref.p).all()
        assert (res.scheme.inverse == ref.inverse).all()
    # and a partition that is not an S-ring fails at the same pair and cell
    for res in recipe2_results[:1] + recipe2_results[-1:]:
        parts = corrupted_recipe2_parts(res)
        want = cayley_failure(ref_product_group(res), parts)
        assert "not an S-ring" in want[0] and want[1] is not None
        assert cayley_failure(res.system.group, parts, res.U) == want


def test_cayley_scheme_in_small_blocks(monkeypatch, recipe2_results):
    # the products of parts and the colors are formed in blocks; blocks
    # of a row or a few, which split every product and every table, give
    # the same scheme and the same failure
    cases = [(res, corrupted_recipe2_parts(res)) for res in recipe2_results[:4]]
    failures = [cayley_failure(res.system.group, parts, res.U)
                for res, parts in cases]
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", 37)
    monkeypatch.setattr(schemes, "row_blocks",
                        lambda matrix, entries=None:
                        groups.row_blocks(matrix, 37))
    for (res, parts), failure in zip(cases, failures):
        got = cayley_scheme(res.system.group, res.parts, res.U)
        assert got.color.tobytes() == res.scheme.color.tobytes()
        assert (got.p == res.scheme.p).all()
        assert cayley_failure(res.system.group, parts, res.U) == failure


def ref_cayley_products(G, parts):
    """p_ij^k from all r^2 products of parts, in order, or the text and
    witness of the error on the first product not constant on a part."""
    idx = [sorted(int(x) for x in part) for part in parts]
    part_of = np.empty(G.order, dtype=np.int16)
    for pi, part in enumerate(idx):
        part_of[part] = pi
    rep = [part[0] for part in idx]
    r = len(idx)
    p = np.zeros((r, r, r), dtype=np.int64)
    for i, j in itertools.product(range(r), repeat=2):
        prod = ref_gre_multiply(G, idx[j], idx[i])
        p[i, j] = prod[rep]
        bad = np.nonzero(prod != p[i, j][part_of])[0]
        if len(bad):
            y = int(bad[0])
            k = int(part_of[y])
            return (f"partition is not an S-ring: p_{i},{j}^{k} is not "
                    f"constant: cell ({G.identity},{y}) has {int(prod[y])}, "
                    f"expected {int(p[i, j, k])}", (i, j, k, G.identity, y))
    return p


def ref_cayley_product_count(G, parts):
    """``(g, by_g, by_pairs)``: the generating part g that `cayley_scheme`
    tries, or None, and how many products of parts it forms, from the
    products of all pairs.  The candidate p_gj^k is the coefficient of
    T_j T_g at the least element of T_k.  g is the first part, largest
    first, whose L_g, (L_g)_kj = p_gj^k, generates; its products T_j T_g,
    0 < j < r - 1, are formed up to the first that is not constant on
    every part.  Unless all of them are, one product per transpose pair
    of nontrivial parts follows, up to the first that is not."""
    idx = [sorted(int(x) for x in part) for part in parts]
    part_of = np.empty(G.order, dtype=np.int64)
    for pi, part in enumerate(idx):
        part_of[part] = pi
    rep = [part[0] for part in idx]
    r = len(idx)

    @cache
    def prod(i, j):  # T_j T_i
        return ref_gre_multiply(G, idx[j], idx[i])

    def constant(i, j):
        t = prod(i, j)
        return (t == t[rep][part_of]).all()

    order = sorted(range(1, r), key=lambda g: (-len(idx[g]), g))
    g = next((g for g in order if schemes._generates(
        np.array([prod(g, j)[rep] for j in range(r)]).T)), None)
    by_g = 0
    if g is not None:
        for j in range(1, r - 1):
            by_g += 1
            if not constant(g, j):
                break
        else:
            return g, by_g, 0
    star = part_of[G.inv[rep]]
    by_pairs = 0
    for i, j in itertools.product(range(1, r), repeat=2):
        if (star[j], star[i]) >= (i, j):
            by_pairs += 1
            if not constant(i, j):
                break
    return g, by_g, by_pairs


@pytest.fixture
def formed_products(monkeypatch):
    """The products of parts that `cayley_scheme` forms while the test
    runs, one entry each."""
    products = []
    multiply = schemes.gre_multiply_product
    monkeypatch.setattr(schemes, "gre_multiply_product",
                        lambda A, B, xs, ys: products.append(1)
                        or multiply(A, B, xs, ys))
    return products


def test_cayley_products_match_all_pairs(constructions_by_family,
                                         example1_results,
                                         negative_control_candidates,
                                         formed_products):
    # the products of one generating part, or else one product per
    # transpose pair of nontrivial parts, give the tensor of all r^2
    # products, and the same first failing pair, cell and message.  A
    # proof by g forms r - 2 products; the fallback forms g's up to its
    # first failing one, then the pairs' up to theirs
    outcomes = {"proved": 0, "pairs": 0, "g fails": 0, "pair fails": 0}
    for G, parts in cayley_cases(constructions_by_family, example1_results,
                                 negative_control_candidates):
        formed_products.clear()
        try:
            scheme = cayley_scheme(G, parts)
        except SchemeError as exc:
            if exc.witness is None:  # refused before any product
                continue
            assert (str(exc), exc.witness) == ref_cayley_products(G, parts)
            g, by_g, by_pairs = ref_cayley_product_count(G, parts)
            assert len(formed_products) == by_g + by_pairs
            outcomes["pair fails" if g is None else "g fails"] += 1
            continue
        assert (scheme.p == ref_cayley_products(G, parts)).all()
        g, by_g, by_pairs = ref_cayley_product_count(G, parts)
        assert len(formed_products) == by_g + by_pairs
        if g is None:
            star = scheme.inverse.tolist()
            assert by_pairs == sum(
                (star[j], star[i]) >= (i, j)
                for i, j in itertools.product(range(1, scheme.rank), repeat=2))
            outcomes["pairs"] += 1
        else:
            assert (by_g, by_pairs) == (scheme.rank - 2, 0)
            outcomes["proved"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_recipe2_schemes_are_proved_by_one_part(recipe2_results,
                                                formed_products):
    # every recipe-2 scheme, from the tables of G and U, is proved by the
    # r - 2 products of one generating part
    for res in recipe2_results:
        formed_products.clear()
        got = cayley_scheme(res.system.group, res.parts, res.U)
        assert (got.p == res.scheme.p).all()
        assert len(formed_products) == got.rank - 2 == 3


def test_noncommutative_sring_falls_back_to_all_pairs(formed_products):
    # in a non-commutative S-ring no part generates: every transpose pair
    # of nontrivial parts is formed, and the tensor is validate's
    cases = [small_partitions()["thin S3"], thin_partitions()[1]]
    for G, parts in cases:
        formed_products.clear()
        got = cayley_scheme(G, parts)
        ref = validate(ref_cayley_color(G, parts))
        assert not G.is_abelian()
        assert not any(schemes._generates(got.p[g].T)
                       for g in range(1, got.rank))
        assert (got.p == ref.p).all() and (got.inverse == ref.inverse).all()
        assert len(formed_products) == ref_cayley_product_count(
            G, parts)[2] == (G.order - 1) * G.order // 2


def test_generator_failure_names_the_first_failing_pair(recipe2_results,
                                                        formed_products):
    # a partition that is not an S-ring, whose candidate tensor still has
    # a generating part: g's check fails, and the pair loop names the
    # first failing pair, cell and message, as it did before the proof
    # by g existed (these texts were taken from the pair loop alone)
    want = {24: ("partition is not an S-ring: p_1,3^4 is not constant: "
                 "cell (0,8) has 1, expected 0", (1, 3, 4, 0, 8)),
            96: ("partition is not an S-ring: p_1,3^4 is not constant: "
                 "cell (0,8) has 1, expected 0", (1, 3, 4, 0, 8)),
            108: ("partition is not an S-ring: p_1,3^4 is not constant: "
                  "cell (0,6) has 1, expected 0", (1, 3, 4, 0, 6)),
            81: ("partition is not an S-ring: p_1,3^4 is not constant: "
                 "cell (0,13) has 1, expected 0", (1, 3, 4, 0, 13))}
    for res in recipe2_results[:4]:
        parts = corrupted_recipe2_parts(res)
        P = ref_product_group(res)
        g, by_g, by_pairs = ref_cayley_product_count(P, parts)
        assert g is not None and 0 < by_g <= len(parts) - 2 and by_pairs
        formed_products.clear()
        got = cayley_failure(res.system.group, parts, res.U)
        assert len(formed_products) == by_g + by_pairs
        assert got == ref_cayley_products(P, parts)
        if P.order in want:
            assert got == want[P.order]


def ref_write_scheme(scheme, path) -> None:
    """The header, then each row's names joined by spaces, one row at a
    time."""
    names = np.array([str(c) for c in range(scheme.rank)], dtype=object)
    lines = [f"scheme {scheme.v} {scheme.rank}"]
    lines += [" ".join(names[row].tolist()) for row in scheme.color]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def color_matrices():
    """Random color matrices whose names have 1 to 4 digits, each also as
    a transposed view, which is not C-contiguous."""
    rng = np.random.default_rng(5)
    out = []
    for rank in (2, 10, 11, 100, 1001):
        color = rng.integers(0, rank, (40, 40))
        color[7, 3] = rank - 1
        out += [(color, rank), (color.T, rank)]
    assert not out[-1][0].flags.c_contiguous
    return out


def test_scheme_writer_matches_reference(tmp_path, reference_schemes):
    def both_files(scheme):
        got, want = tmp_path / "got.scheme", tmp_path / "want.scheme"
        write_scheme(scheme, got)
        ref_write_scheme(scheme, want)
        assert got.read_bytes() == want.read_bytes()
        return got

    cases = (list(reference_schemes.values()) + thin_schemes()
                + [orbit_scheme(n, units) for n in range(4, 41)
                   for units in unit_groups(n)] + [trivial_scheme(1)])
    for scheme in cases:
        again = read_scheme(both_files(scheme))
        assert again.rank == scheme.rank
        assert (again.color == scheme.color).all()
    for color, rank in color_matrices():
        path = both_files(SimpleNamespace(color=color, v=len(color),
                                          rank=rank))
        matrix, declared = parse_scheme_file(path)
        assert declared == rank and (matrix == color).all()


def test_scheme_writer_in_row_blocks(tmp_path, monkeypatch,
                                     reference_schemes):
    # the body is written a block of rows at a time: blocks of 280 cells,
    # 7 rows of the random matrices and 2 of the 108-point schemes, the
    # last one short, give the bytes of the row-by-row writer
    monkeypatch.setattr(schemes, "row_blocks",
                        lambda matrix, entries=None:
                        groups.row_blocks(matrix, 7 * 40))
    got, want = tmp_path / "got.scheme", tmp_path / "want.scheme"
    cases = list(reference_schemes.values()) + [
        SimpleNamespace(color=color, v=len(color), rank=rank)
        for color, rank in color_matrices()]
    for scheme in cases:
        write_scheme(scheme, got)
        ref_write_scheme(scheme, want)
        assert got.read_bytes() == want.read_bytes()


def test_irregular_relation_rejected():
    # a path on 3 points: the inverse check passes, B_1 is not row-regular
    with pytest.raises(SchemeError) as err:
        validate(np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert str(err.value) == \
        "p_1,1^0 is not constant: cell (1,1) has 2, expected 1"
    assert err.value.witness == (1, 1, 0, 1, 1)
    # nonsymmetric: color 1 = x -> x+1 on C:3 plus one extra arc
    with pytest.raises(SchemeError, match="not constant") as err:
        validate(np.array([[0, 1, 1], [2, 0, 1], [2, 2, 0]]))
    assert err.value.witness[:3] == (1, 2, 0)


def min_distance_octagon():
    """C8 colored by min(distance, 3): row-regular and closed under
    transposition, but B_1 B_2 is 1 at (0,3) and 0 at (0,4), both at
    distance at least 3."""
    d = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
    return np.minimum(np.minimum(d, 8 - d), 3)


def malformed_matrices():
    """Matrices failing each axiom `validate` checks, the octagon above,
    and the Cayley color matrices of every inverse-closed 2- and 3-part
    split of the nonzero classes of C:n up to n = 12, of C:n colored by
    a non-inverse-closed partition, and of the negative-control search."""
    cases = [np.zeros((2, 3), dtype=int), np.zeros((2, 2)),
             np.zeros((0, 0), dtype=int), np.array([[0, -1], [-1, 0]]),
             np.array([[0, 2], [2, 0]]), np.array([[0, 10**12], [10**12, 0]]),
             np.array([[1, 0], [0, 1]]), np.array([[0, 0], [0, 0]]),
             np.array([[0, 1, 1], [2, 0, 1], [1, 2, 0]]),
             np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
             np.array([[0, 1, 1], [2, 0, 1], [2, 2, 0]]),
             min_distance_octagon()]
    for n in range(4, 13):
        pairs = sorted({min(x, n - x) for x in range(1, n)})
        for labels in itertools.product(range(1, 4), repeat=len(pairs)):
            parts = [[0]] + [[x for x in range(1, n)
                              if labels[pairs.index(min(x, n - x))] == c]
                             for c in sorted(set(labels))]
            cases.append(ref_cayley_color(build_family(f"C:{n}"), parts))
        cases.append(ref_cayley_color(build_family(f"C:{n}"),
                                      [[0], [1], list(range(2, n))]))
    return cases


def validate_outcome(validator, matrix):
    try:
        s = validator(matrix)
    except SchemeError as exc:
        return str(exc), exc.witness
    return s.p.tolist(), s.inverse.tolist(), s.valencies.tolist()


@pytest.fixture(params=["packed", "one digit"])
def packing(request, monkeypatch):
    """`digit_runs` as it packs, or cut to runs of one color: the packing
    bound lowered as far as it goes.  FLOAT32_EXACT_LIMIT itself also
    bounds the point count, so the split is lowered here instead."""
    if request.param == "one digit":
        def one_digit_runs(colors, bound):
            return [run for c in colors for run in digit_runs([c], bound)]
        monkeypatch.setattr(schemes, "digit_runs", one_digit_runs)
        monkeypatch.setattr(higmanian, "digit_runs", one_digit_runs)
    return request.param


@pytest.fixture
def generated(monkeypatch):
    """Whether `_proved_by_generator` proved the candidate tensor, False
    when `validate` takes the loop, in call order."""
    proved, found = schemes._proved_by_generator, []

    def recorded(*args):
        found.append(proved(*args))
        return found[-1]

    monkeypatch.setattr(schemes, "_proved_by_generator", recorded)
    return found


def test_validate_matches_unpacked_reference(reference_schemes, packing,
                                             generated):
    schemes_ = list(reference_schemes.values()) + thin_schemes()
    schemes_ += [orbit_scheme(n, units) for n in range(4, 41)
                 for units in unit_groups(n)]
    for scheme in schemes_:
        want = validate_outcome(ref_validate, scheme.color)
        assert validate_outcome(validate, scheme.color) == want
    # one generating color proves the tensor on every desk point, both
    # recipe-1 instances and most orbit schemes
    assert (len(schemes_), sum(generated)) == (237, 198)


def test_validate_failures_match_unpacked_reference(
        packing, negative_control_candidates):
    matrices = malformed_matrices()
    matrices += [ref_cayley_color(G, parts)
                 for G, parts in negative_control_candidates]
    messages = set()
    for matrix in matrices:
        want = validate_outcome(ref_validate, matrix)
        assert validate_outcome(validate, matrix) == want
        if isinstance(want[0], str):
            messages.add(want[0].split(":")[0].split(" is ")[0])
    # the failures reach every kind of product, not just the first of a run
    assert {"p_1,2^3", "p_2,2^1", "p_1,1^2"} <= messages
    assert len(messages) > 20


@pytest.fixture
def failed_digit(monkeypatch):
    """The digit, within its run, of each pair that `DigitRun.check`
    names as failing, read off the packed product's digits, in call
    order and target order."""
    check, found = schemes.DigitRun.check, []

    def recorded(run, *args):
        outcomes = check(run, *args)
        found.extend(run.colors.index(failure[0])
                     for _, failure in outcomes if failure)
        return outcomes

    monkeypatch.setattr(schemes.DigitRun, "check", recorded)
    return found


def test_octagon_fails_at_the_second_digit(packing, failed_digit):
    with pytest.raises(SchemeError) as err:
        validate(min_distance_octagon())
    assert str(err.value) == \
        "p_1,2^3 is not constant: cell (0,4) has 0, expected 1"
    assert err.value.witness == (1, 2, 3, 0, 4)
    # n_1 = 2: the products of B_1 are base-3 digits, B_2 the second, and
    # the check routes 2 and 4 share names the pair from that digit of the
    # packed product, forming no single product
    runs = schemes.digit_runs([1, 2], 2)
    assert [run.colors for run in runs] == \
        ([(1, 2)] if packing == "packed" else [(1,), (2,)])
    # B_1 generates the candidate tensor read at the first cells, so its
    # check fails first, on the same digit; the loop then names the pair
    assert failed_digit == ([1, 1] if packing == "packed" else [0, 0])


@pytest.fixture
def checked_runs(monkeypatch):
    """The colors of each run `DigitRun.check` is called on, in call
    order."""
    check, found = schemes.DigitRun.check, []

    def recorded(run, *args):
        found.append(run.colors)
        return check(run, *args)

    monkeypatch.setattr(schemes.DigitRun, "check", recorded)
    return found


@pytest.mark.parametrize("family, kw", [("q8cp", {"r": 1}),
                                        ("heis", {"q": 3, "r": 1}),
                                        ("q8cp", {"r": 3})])
def test_one_generating_color_makes_one_check(family, kw, checked_runs):
    validate(constructions.construct_family(family, **kw).result.scheme.color)
    assert checked_runs == [(1, 2, 3)]


def test_thin_s3_takes_the_loop(reference_schemes, generated, monkeypatch):
    # non-commutative: every color is tried, and none generates
    generates, tried = schemes._generates, []

    def recorded(lift):
        tried.append(generates(lift))
        return tried[-1]

    monkeypatch.setattr(schemes, "_generates", recorded)
    scheme = reference_schemes["thin S3"]
    assert validate(scheme.color).p.tolist() == scheme.p.tolist()
    assert tried == [False] * 5 and generated == [False]


def octagon_swapped(a, b):
    """C8 colored by min(distance, 3), with the colors of the symmetric
    cell pairs a and b swapped."""
    d = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
    color = np.minimum(np.minimum(d, 8 - d), 3)
    before = color.copy()
    (x, y), (z, w) = a, b
    color[x, y] = color[y, x] = before[z, w]
    color[z, w] = color[w, z] = before[x, y]
    return color


@pytest.mark.parametrize("a, b, checks, want", [
    # color 1 stays the 8-cycle, and colors 2 and 3 lose row-regularity
    ((0, 2), (0, 3), [(1, 2)],
     ("p_2,2^0 is not constant: cell (2,2) has 1, expected 2",
      (2, 2, 0, 2, 2))),
    # color 1, the generator read off row 0, is not row-regular itself
    ((0, 1), (0, 3), [],
     ("p_1,1^0 is not constant: cell (1,1) has 1, expected 2",
      (1, 1, 0, 1, 1))),
], ids=["other color", "generator"])
def test_irregular_rows_named_after_the_generator(a, b, checks, want,
                                                  checked_runs, generated):
    # the valencies come from row 0, and only the generator g's rows are
    # checked before its product.  A failing proof leads to every color's
    # rows, so the message and witness are those of a row check of every
    # color first.  When g's rows hold, its product is formed and fails;
    # when they do not, no product is formed
    matrix = octagon_swapped(a, b)
    assert validate_outcome(validate, matrix) == want
    assert checked_runs == checks and generated == [False]
    assert validate_outcome(ref_validate, matrix) == want


def test_each_check_forms_one_product_pass(monkeypatch, reference_schemes,
                                           negative_control_candidates):
    # a run that fails is named from its packed product: `DigitRun.check`
    # makes one `_first_mismatch` pass per call, pass or fail, in
    # `validate`, in both routes and in the bundle's pass for both
    mismatch, check = schemes._first_mismatch, schemes.DigitRun.check
    passes, checks = [], []

    def counted_mismatch(*args):
        passes.append(None)
        return mismatch(*args)

    def counted_check(run, *args):
        before = len(passes)
        outcomes = check(run, *args)
        checks.append((len(passes) - before,
                       any(failure for _, failure in outcomes),
                       len(outcomes)))
        return outcomes

    monkeypatch.setattr(schemes, "_first_mismatch", counted_mismatch)
    monkeypatch.setattr(schemes.DigitRun, "check", counted_check)
    for matrix in malformed_matrices() + [
            ref_cayley_color(G, parts)
            for G, parts in negative_control_candidates]:
        validate_outcome(validate, matrix)
    for scheme, parab in block_product_cases(reference_schemes):
        is_uniform_by_definition(scheme, parab)
        is_dismantlable(scheme, parab)
        higmanian._block_product_routes(scheme, parab, higmanian._Definition,
                                        higmanian._Dismantle)
    assert {made for made, _, _ in checks} == {1}
    assert sum(failed for _, failed, _ in checks) > 20
    assert {targets for _, _, targets in checks} == {1, 2}


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of a few cells, so that `DigitRun.check`'s products and
    comparisons, route 2's last-cell scan and `validate`'s transpose tiles
    take many blocks on desk-sized schemes."""
    monkeypatch.setattr(schemes, "BLOCK_ENTRIES", 40)
    monkeypatch.setattr(schemes, "GATHER_ENTRIES", 9)
    monkeypatch.setattr(higmanian, "GATHER_ENTRIES", 9)


def test_small_row_blocks_match_references(small_blocks,
                                           negative_control_candidates):
    # a failing cell in a later block is found, and named, as in one block
    matrices = malformed_matrices()
    matrices += [ref_cayley_color(G, parts)
                 for G, parts in negative_control_candidates]
    for matrix in matrices:
        assert validate_outcome(validate, matrix) == \
            validate_outcome(ref_validate, matrix)
    schemes_ = [orbit_scheme(n, units) for n in range(4, 21)
                for units in unit_groups(n)]
    cases = [(scheme, parab) for scheme, parab
             in definition_cases([s for s in schemes_ if s.rank <= 12])
             if parab.num_classes <= 12]
    outcomes = set()
    for scheme, parab in cases:
        res = is_uniform_by_definition(scheme, parab)
        assert res == ref_is_uniform_by_definition(scheme, parab)
        dis = is_dismantlable(scheme, parab)
        assert dis.ok == ref_is_dismantlable(scheme, parab)
        # the shared pass compares each block with both targets
        assert higmanian._block_product_routes(
            scheme, parab, higmanian._Definition, higmanian._Dismantle) == \
            [res, dis]
        outcomes.add((res.ok, res.witness is not None, dis.ok))
    assert {(True, False, True), (False, True, False)} <= outcomes


@pytest.mark.parametrize("blocks", ["whole", "small"])
def test_later_rows_are_named(blocks, request):
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    # the first failing cell of the check, and the inverse-color fault of
    # `validate`, lie past the first row block and transpose tile
    right = np.ones((8, 7), dtype=np.int16)
    right[5, 3] = 2
    run = schemes.DigitRun((1, 2), 2)
    [(values, failure)] = run.check(np.eye(8, dtype=np.float32), right,
                                    (np.zeros((8, 7), dtype=np.int16), [0]))
    assert failure == (1, 5 * 7 + 3) and values.tolist() == [1]
    # digit 1 (color 2) differs in row 1, digit 0 (color 1) only in row 5:
    # the least digit names the pair, at its own first cell
    right = np.full((8, 7), 3, dtype=np.int16)
    right[1, 2], right[5, 3] = 2, 1
    [(values, failure)] = run.check(np.eye(8, dtype=np.float32), right,
                                    (np.zeros((8, 7), dtype=np.int16), [0]))
    assert failure == (1, 5 * 7 + 3) and values.tolist() == [0]
    # one product compared with three targets: each gets the result of a
    # call of its own, as the second closes at cell 0 and the others run
    # on to row 5
    zeros = np.zeros((8, 7), dtype=np.int16)
    halves = np.repeat(np.array([0, 1], dtype=np.int16), [5, 3])[:, None]
    targets = [(zeros, [0]), (zeros, [5 * 7 + 3]),
               (np.repeat(halves, 7, axis=1), [0, 5 * 7 + 3])]
    shared = run.check(np.eye(8, dtype=np.float32), right, *targets)
    alone = [run.check(np.eye(8, dtype=np.float32), right, target)[0]
             for target in targets]
    assert [(v.tolist(), f) for v, f in shared] == \
        [(v.tolist(), f) for v, f in alone]
    assert [f for _, f in shared] == [(1, 5 * 7 + 3), (1, 0), (1, 5 * 7)]
    matrix = 1 - np.eye(8, dtype=np.int64)
    matrix[6, 7] = 2
    want = ("relation 1 has no single inverse color (witness (7,6))", (7, 6))
    assert validate_outcome(validate, matrix) == want
    assert validate_outcome(ref_validate, matrix) == want


@pytest.mark.parametrize("bound, widths", [
    (1, [7]), (243, [3, 3, 1]), (254, [3, 3, 1]), (255, [2, 2, 2, 1]),
    (4094, [2, 2, 2, 1]), (4095, [1] * 7), (FLOAT32_EXACT_LIMIT - 2, [1] * 7),
])
def test_digit_runs_stay_exact_in_float32(bound, widths):
    # a run closes before (bound + 1)^len reaches 2^24; a product whose
    # digits are at most bound is then an exact float32 integer, and
    # unpacks back
    runs = digit_runs(list(range(7)), bound)
    assert [len(run.colors) for run in runs] == widths
    assert [c for run in runs for c in run.colors] == list(range(7))
    rng = np.random.default_rng(bound)
    for run in runs:
        assert run.base ** len(run.colors) < FLOAT32_EXACT_LIMIT
        # weights summing to bound on 7 rows of colors: each digit of the
        # product is at most bound, and column 0 reaches it
        cuts = np.sort(rng.integers(0, bound + 1, size=6))
        weights = np.diff(cuts, prepend=0, append=bound)
        right = rng.integers(0, 8, size=(7, 50))  # color 7 is in no run
        right[:, 0] = run.colors[-1]
        packed = run.pack(right)
        assert packed.dtype == np.float32
        digits = [weights @ (right == j) for j in run.colors]
        assert (run.unpack(weights.astype(np.float32) @ packed)
                == digits).all()


def definition_cases(schemes):
    return [(scheme, parab) for scheme in schemes
            for parab in nontrivial_parabolics(scheme)]


def block_product_cases(reference_schemes):
    """The parabolics of the orbit schemes of C:4 to C:30 up to rank 12, the
    thin schemes and the reference schemes."""
    schemes = [orbit_scheme(n, units) for n in range(4, 31)
               for units in unit_groups(n)]
    return definition_cases([s for s in schemes if s.rank <= 12]
                            + thin_schemes() + list(reference_schemes.values()))


def test_definition_matches_reference(reference_schemes):
    cases = definition_cases(list(reference_schemes.values()) + thin_schemes())
    assert any(ref_is_uniform_by_definition(*case).ok for case in cases)
    for scheme, parab in cases:
        assert is_uniform_by_definition(scheme, parab) == \
            ref_is_uniform_by_definition(scheme, parab)


def test_definition_matches_reference_on_orbit_schemes():
    schemes = [orbit_scheme(n, units) for n in range(4, 31)
               for units in unit_groups(n)]
    schemes = [s for s in schemes if s.rank <= 12]
    results = []
    for scheme, parab in definition_cases(schemes):
        ref = ref_is_uniform_by_definition(scheme, parab)
        assert is_uniform_by_definition(scheme, parab) == ref
        results.append(ref)
    # both outcomes of the block check, and symmetric and nonsymmetric input
    assert any(res.ok for res in results)
    assert any(res.witness is not None for res in results)
    assert any(not s.is_symmetric() for s in schemes)


@pytest.mark.parametrize("n, units, shape, witness", [
    (9, (1, 8), (3, 3), (1, 0, 1, 1, 2, 3)),
    (15, (1, 2, 4, 8), (5, 3), (1, 0, 1, 1, 1, 3)),
    (15, (1, 2, 4, 8), (3, 5), (1, 0, 1, 1, 3, 2)),
    # the first cell of the failing triple would name color 7 here
    (27, (1, 8, 10, 17, 19, 26), (3, 9), (1, 0, 1, 1, 2, 3)),
])
def test_definition_witnesses_pinned(n, units, shape, witness):
    scheme = orbit_scheme(n, units)
    (parab,) = [e for e in nontrivial_parabolics(scheme)
                if (e.num_classes, e.n_class) == shape]
    res = is_uniform_by_definition(scheme, parab)
    assert (res.ok, res.cork, res.witness) == (False, 2, witness)


def test_skipped_block_products_are_determined(reference_schemes):
    # routes 2 and 4 skip each pair (i, j) with a color inside the
    # parabolic: through any class G its product is p_ij^k on the k-cells
    # of the rows in G (of the columns, when only j is inside) and 0
    # elsewhere, constant on every cell set either route compares
    skipped = 0
    for scheme, parab in block_product_cases(reference_schemes):
        r, inside = scheme.rank, parab.colors
        basis = [(scheme.color == i).astype(np.int64) for i in range(r)]
        for i, j in itertools.product(range(r), repeat=2):
            if i not in inside and j not in inside:
                continue
            full = scheme.p[i, j][scheme.color]
            for gi, gpts in enumerate(map(list, classes_of(parab))):
                in_g = parab.class_of == gi
                rows_or_cols = in_g[:, None] if i in inside else in_g[None, :]
                product = basis[i][:, gpts] @ basis[j][gpts, :]
                assert (product == np.where(rows_or_cols, full, 0)).all()
                skipped += 1
    assert skipped > 1000


@pytest.mark.parametrize("n, units, shape, witness, unions_checked", [
    (9, (1, 8), (3, 3), (0, 1), 2),
    (9, (1,), (3, 3), (1, 2), 1),
    (15, (1, 2, 4, 8), (3, 5), (0, 1), 2),
])
def test_dismantle_witnesses_pinned(n, units, shape, witness,
                                    unions_checked):
    scheme = orbit_scheme(n, units)
    (parab,) = [e for e in nontrivial_parabolics(scheme)
                if (e.num_classes, e.n_class) == shape]
    res = is_dismantlable(scheme, parab)
    assert (res.ok, res.witness, res.unions_checked) == \
        (False, witness, unions_checked)


def test_outside_pairs_cover_each_transpose_pair_once(reference_schemes):
    for scheme, parab in block_product_cases(reference_schemes):
        inverse, outside = scheme.inverse, parab.outside
        runs, _ = _outside_blocks(scheme, parab)
        pairs = [(i, j) for i, run in runs for j in run.colors]
        assert pairs == sorted(pairs)
        transposes = [(int(inverse[j]), int(inverse[i])) for i, j in pairs]
        # each ordered pair is a kept pair or the transpose of one, and no
        # two kept pairs are transposes of each other
        assert set(pairs) | set(transposes) == \
            set(itertools.product(outside, repeat=2))
        assert len(set(map(frozenset, zip(pairs, transposes)))) == len(pairs)


class CountedMatmul(np.ndarray):
    """A float array that logs the left color of each product it forms as
    left operand; its slices and casts keep the color."""
    log: list = []

    def __array_finalize__(self, obj):
        self.color = getattr(obj, "color", None)

    def __matmul__(self, other):
        CountedMatmul.log.append(self.color)
        return super().__matmul__(other)


def logged_outside_blocks(outside_blocks):
    """`_outside_blocks` whose outside bases log, in CountedMatmul.log, the
    left color of each product formed through any class."""
    def logged(scheme, parab):
        runs, block = outside_blocks(scheme, parab)

        def logged_block(gi):
            off, sub, right, basis = block(gi)
            for i in basis:
                basis[i] = basis[i].view(CountedMatmul)
                basis[i].color = i
            return off, sub, right, basis
        return runs, logged_block
    return logged


def test_each_route_forms_one_product_per_class_and_pair(reference_schemes,
                                                         monkeypatch):
    # a route that passes forms one packed product for every class but the
    # last and every run of `_outside_blocks` but the last, no more and no
    # fewer: the last class is decided from the tensor.  No route forms a
    # product of the last run, the pair (L, L*) for L the largest outside
    # color, pass or fail
    outside_blocks = higmanian._outside_blocks
    monkeypatch.setattr(higmanian, "_outside_blocks",
                        logged_outside_blocks(outside_blocks))
    passed = {is_uniform_by_definition: 0, is_dismantlable: 0}
    failed = 0
    for scheme, parab in block_product_cases(reference_schemes):
        want = ((parab.num_classes - 1)
                * (len(outside_blocks(scheme, parab)[0]) - 1))
        for route in passed:
            CountedMatmul.log = []
            ok = route(scheme, parab).ok
            assert parab.outside[-1] not in CountedMatmul.log
            if ok:
                assert len(CountedMatmul.log) == want, (route, scheme, parab)
                passed[route] += want > 0
            else:
                failed += bool(CountedMatmul.log)
    # heis 3 1's F: pairs (S, S), (S, T), (T, T) in runs [S, T] and [T]
    # through each of 4 classes.  [T] is the last run, and the last class
    # is derived: 3 products, where every run through every class took 8
    # and single pairs 12
    heis = reference_schemes["heis {'q': 3, 'r': 1}"]
    F = next(e for e in nontrivial_parabolics(heis) if e.corank == 2)
    runs, _ = outside_blocks(heis, F)
    assert [len(run.colors) for _, run in runs] == [2, 1]
    for route in passed:
        CountedMatmul.log = []
        assert route(heis, F).ok and CountedMatmul.log == [runs[0][0]] * 3
    assert min(passed.values()) > 10 and failed > 10
    # the bundle forms F's products once for both routes: 3, where a pass
    # per route took 6.  Route 2 fails on E's corank with no product, and
    # route 4 does not try E once F passes
    CountedMatmul.log = []
    assert verdict_bundle(heis).consistent
    assert CountedMatmul.log == [runs[0][0]] * 3


def test_route4_forms_the_last_class_when_its_constants_differ(
        reference_schemes, monkeypatch):
    # route 4's derived check passes on every case at hand, so it is forced
    # to fail here: the last class's products are then formed, c per
    # checked run, and every result and witness is unchanged.  Route 2
    # still derives the last class in the shared pass
    outside_blocks = higmanian._outside_blocks
    derive, derived = higmanian._Dismantle.derive, []

    def recorded(route, gi):
        derived.append(derive(route, gi))
        return derived[-1]

    monkeypatch.setattr(higmanian._Dismantle, "derive", recorded)
    cases = [(scheme, parab, [is_uniform_by_definition(scheme, parab),
                              is_dismantlable(scheme, parab)])
             for scheme, parab in block_product_cases(reference_schemes)]
    assert len(derived) > 50 and all(derived)
    # the constants compared are values of the products: with 3 or more
    # classes, every color has a cell off every class
    for scheme, parab, _ in cases:
        if parab.num_classes >= 3:
            for gi in range(parab.num_classes):
                off = np.flatnonzero(parab.class_of != gi)
                assert len(np.unique(scheme.color[np.ix_(off, off)])) == \
                    scheme.rank
    monkeypatch.setattr(higmanian._Dismantle, "derive",
                        lambda route, gi: False)
    monkeypatch.setattr(higmanian, "_outside_blocks",
                        logged_outside_blocks(outside_blocks))
    formed = 0
    for scheme, parab, want in cases:
        per_class = len(outside_blocks(scheme, parab)[0]) - 1
        CountedMatmul.log = []
        assert is_dismantlable(scheme, parab) == want[1]
        if want[1].ok:
            assert len(CountedMatmul.log) == parab.num_classes * per_class
            formed += per_class > 0
        CountedMatmul.log = []
        assert higmanian._block_product_routes(
            scheme, parab, higmanian._Definition,
            higmanian._Dismantle) == want
        if want[1].ok:
            assert len(CountedMatmul.log) == parab.num_classes * per_class
    assert formed > 10
    # heis 3 1's bundle: 4 products of the run [S, T], one per class
    heis = reference_schemes["heis {'q': 3, 'r': 1}"]
    CountedMatmul.log = []
    assert verdict_bundle(heis).consistent and len(CountedMatmul.log) == 4


def test_route2_derives_the_values_it_would_form(reference_schemes,
                                                 monkeypatch):
    # route 2 passes on the last class with no product, and every result,
    # witness included, is that of the pass that forms the last class's
    # products
    cases = [(scheme, parab, is_uniform_by_definition(scheme, parab))
             for scheme, parab in block_product_cases(reference_schemes)
             if parab.corank == 2]
    monkeypatch.setattr(higmanian._Definition, "derive",
                        lambda route, gi: False)
    for scheme, parab, res in cases:
        assert is_uniform_by_definition(scheme, parab) == res
    assert sum(res.ok for _, _, res in cases) > 50


class LoggedRows(np.ndarray):
    """An int16 color matrix that logs the row slices read from it."""
    rows: list = []

    def __getitem__(self, item):
        if isinstance(item, slice):
            LoggedRows.rows.append(item)
        return super().__getitem__(item)


@pytest.mark.parametrize("blocks", ["whole", "small"])
def test_route2_last_cells_match_a_full_scan(blocks, request,
                                             reference_schemes):
    # the last cell of every (D, L, k) triple, found from the bottom row
    # block up, is the last one of a scan of the whole matrix; with small
    # blocks the scan stops before the top
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    stopped = corank2 = 0
    for scheme, parab in block_product_cases(reference_schemes):
        if parab.corank != 2:
            continue
        corank2 += 1
        r, v, c = scheme.rank, scheme.v, parab.num_classes
        class_of = parab.class_of
        key = ((class_of[:, None] * c + class_of) * r + scheme.color).ravel()
        want = np.full(c * c * r, -1)
        np.maximum.at(want, key, np.arange(v * v))
        logged = SchemeTable(scheme.color.view(LoggedRows), scheme.p,
                             scheme.inverse)
        LoggedRows.rows = []
        route = higmanian._Definition(logged, parab,
                                      _outside_blocks(scheme, parab)[0])
        got = np.full(c * c * r, -1)
        got[route.triples] = route.ref_x * v + route.ref_y
        assert (got == want).all()
        scanned = {row for rows in LoggedRows.rows
                   for row in range(*rows.indices(v))}
        assert max(scanned) == v - 1
        stopped += min(scanned) > 0
    assert corank2 > 50
    assert (stopped > 50) == (blocks == "small")


def standalone_details(scheme, det):
    """Route 2's and route 4's results as standalone calls, the way the
    bundle tries the parabolics: route 2 over E, then F, route 4 over F,
    then E, each up to the first that passes."""
    details = []
    for route, order in ((is_uniform_by_definition, (det.E, det.F)),
                         (is_dismantlable, (det.F, det.E))):
        found = {}
        for parab in order:
            found[parab.n_class] = res = route(scheme, parab)
            if res.ok:
                break
        details.append(list(found.items()))
    return details


def test_bundle_details_equal_standalone_routes(reference_schemes,
                                                monkeypatch):
    # one pass over F's classes gives each route the result, and the
    # order, of its standalone calls, on every desk point and every
    # Higmanian reference scheme
    bundled = 0
    for scheme in reference_schemes.values():
        det = detect_higmanian(scheme)
        if det:
            b = verdict_bundle(scheme)
            assert [list(b.definition_details.items()),
                    list(b.dismantle_details.items())] == \
                standalone_details(scheme, det)
            bundled += 1
    assert bundled == 7
    # where route 4 fails on F, the bundle tries E alone.  No scheme at
    # hand fails there, so F's result is forced to fail: the bundle is
    # then inconsistent, and carries E's standalone result
    scheme = reference_schemes["q8cp {'r': 1}"]
    det = detect_higmanian(scheme)
    shared = higmanian._block_product_routes
    forced = DismantleCheck(ok=False, witness=(0,), unions_checked=1)

    def failing_on_f(scheme, parab, *kinds):
        results = shared(scheme, parab, *kinds)
        return results[:1] + [forced] if len(kinds) == 2 else results

    monkeypatch.setattr(higmanian, "_block_product_routes", failing_on_f)
    with pytest.raises(VerdictInconsistencyError) as err:
        verdict_bundle(scheme)
    assert list(err.value.bundle.dismantle_details.items()) == [
        (det.F.n_class, forced),
        (det.E.n_class, is_dismantlable(scheme, det.E))]


@pytest.mark.parametrize("closed", [0, 1], ids=["route 2", "route 4"])
def test_one_route_continues_alone(reference_schemes, monkeypatch, closed):
    # both routes fail at the same class on every failing corank-2 case at
    # hand, so the shared pass never runs on with one target left.  Here
    # the first comparison of one route's target is forced to fail, and
    # the other route, left alone, gets its standalone result, witness
    # included.  At corank 3 only route 4 has a target
    cases = [(scheme, parab, [is_uniform_by_definition(scheme, parab),
                              is_dismantlable(scheme, parab)])
             for scheme, parab in block_product_cases(reference_schemes)]
    check, restrict = schemes.DigitRun.check, higmanian.restriction
    calls, forcing = [], []

    def forced(run, *args):
        outcomes = check(run, *args)
        calls.append(len(outcomes))
        if len(calls) == 1 and len(outcomes) == 2:
            outcomes[closed] = outcomes[closed][0], (run.colors[0], 0)
            forcing.append(closed)
        return outcomes

    def confirming(scheme, points):
        # route 4's forced failure is confirmed on its first union, and
        # `validate`'s checks are not the pass's
        if forcing == [1]:
            forcing.clear()
            raise SchemeError("forced")
        with monkeypatch.context() as m:
            m.setattr(schemes.DigitRun, "check", check)
            return restrict(scheme, points)

    monkeypatch.setattr(schemes.DigitRun, "check", forced)
    monkeypatch.setattr(higmanian, "restriction", confirming)
    alone = {2: 0, 3: 0}
    for scheme, parab, want in cases:
        calls.clear()
        forcing.clear()
        got = higmanian._block_product_routes(
            scheme, parab, higmanian._Definition, higmanian._Dismantle)
        if calls[:1] == [2]:
            assert got[closed].ok is False
            assert got[1 - closed] == want[1 - closed]
            alone[2] += 1 in calls
        else:
            assert got == want and set(calls) <= {1}
            alone[3] += parab.corank == 3 and bool(calls)
    assert alone[2] > 50 and alone[3] > 30


def test_route4_guard_names_no_impossible_witness(reference_schemes,
                                                  monkeypatch):
    # a failing cell always names a union that `restriction` rejects (the
    # proof in `is_dismantlable`).  A failure forced where route 4 passes
    # names none, and the guard raises.  Only the pass's first check is
    # forced, not those of `validate` in `restriction`
    heis = reference_schemes["heis {'q': 3, 'r': 1}"]
    F = next(e for e in nontrivial_parabolics(heis) if e.corank == 2)
    check, calls = schemes.DigitRun.check, []

    def forced(run, *args):
        calls.append(run)
        return [(values, (run.colors[0], 0) if len(calls) == 1 else failure)
                for values, failure in check(run, *args)]

    monkeypatch.setattr(schemes.DigitRun, "check", forced)
    with pytest.raises(RuntimeError, match="both witness unions through "
                       "class 0 induce subschemes"):
        is_dismantlable(heis, F)


def constant_on(values, labels):
    """Per label, whether ``values`` is constant on the cells of that
    label; True for a label with no cell."""
    size = labels.max() + 1
    low = np.full(size, np.iinfo(np.int64).max)
    high = np.full(size, np.iinfo(np.int64).min)
    np.minimum.at(low, labels.ravel(), values.ravel())
    np.maximum.at(high, labels.ravel(), values.ravel())
    return low >= high


def test_skipped_last_products_are_sound(reference_schemes):
    # through every class G, the product of the last pair (L, L*), which
    # neither route forms, is formed here.  Off G it is c minus the
    # products of the (i, L*), i != L, with c(y) = #{z in G : color(y, z)
    # = L} = |G| - sum_{i != L} d_i(y), and d_i(y) the product of (i, i*)
    # on the diagonal cell (y, y).  Wherever those earlier products are
    # constant on every cell set of a route, so is that of (L, L*)
    held = failed = 0
    for scheme, parab in block_product_cases(reference_schemes):
        r, c = scheme.rank, parab.num_classes
        class_of, color = parab.class_of, scheme.color.astype(np.int64)
        outside, last = parab.outside, parab.outside[-1]
        inverse, star = scheme.inverse, scheme.inverse[last]
        basis = {i: (scheme.color == i).astype(np.int64) for i in outside}
        # route 4 labels each cell by its color, route 2 by (D, L, k)
        route_labels = (color, (class_of[:, None] * c + class_of) * r + color)
        for gi in range(c):
            gpts = np.flatnonzero(class_of == gi)
            off = np.ix_(class_of != gi, class_of != gi)
            M = {i: basis[i][:, gpts] @ basis[star][gpts, :] for i in outside}
            earlier = [M[i] for i in outside if i != last] + [
                basis[i][:, gpts] @ basis[inverse[i]][gpts, :]
                for i in outside if i != last]
            counts = basis[last][:, gpts].sum(axis=1)
            assert (sum(M.values())[off] == counts[None, class_of != gi]).all()
            for labels in route_labels:
                if all(constant_on(P[off], labels[off]).all()
                       for P in earlier):
                    assert constant_on(M[last][off], labels[off]).all()
                    held += 1
                else:
                    failed += 1
    assert held > 100 and failed > 100


def test_route4_is_route2_and_its_flag(reference_schemes):
    # on every parabolic of corank 2, route 4 passing implies route 2
    # passing (the proof is in `is_uniform_by_definition`), and where route
    # 2 passes, route 4 passes exactly when each a_ij^k is one value across
    # the class triples
    outcomes = []
    for scheme, parab in block_product_cases(reference_schemes):
        if parab.corank != 2:
            continue
        route2 = is_uniform_by_definition(scheme, parab).ok
        route4 = is_dismantlable(scheme, parab).ok
        assert route2 or not route4
        if route2:
            assert ref_coefficients_consistent(scheme, parab) == route4
        outcomes.append(route2)
    assert outcomes.count(True) > 50 and outcomes.count(False) > 10


def test_routes_on_the_whole_color_set():
    # the parabolic of all colors has one class and no outside color, so
    # no pair: route 4 passes, and route 2 fails on the corank
    scheme = orbit_scheme(9, (1,))
    (whole,) = [e for e in parabolics(scheme)
                if len(e.colors) == scheme.rank]
    assert _outside_blocks(scheme, whole)[0] == []
    assert is_dismantlable(scheme, whole) == DismantleCheck(ok=True)
    assert is_uniform_by_definition(scheme, whole) == \
        DefinitionCheck(ok=False, cork=1)


def test_route_witnesses_from_later_digits(monkeypatch, failed_digit):
    # when a packed product fails, its least differing digit names the
    # failing pair; the results, witnesses included, are those of runs of
    # one color and of the references, also where a later digit fails
    schemes_ = [orbit_scheme(n, units) for n in range(4, 31)
                for units in unit_groups(n)]
    cases = [(scheme, parab) for scheme, parab
             in definition_cases([s for s in schemes_ if s.rank <= 12])
             if parab.num_classes <= 12]
    routes = (is_uniform_by_definition, is_dismantlable)
    packed, later = {}, {route: 0 for route in routes}
    for n, (scheme, parab) in enumerate(cases):
        for route in routes:
            failed_digit.clear()
            packed[n, route] = route(scheme, parab)
            later[route] += failed_digit[:1] not in ([], [0])
    assert min(later.values()) > 5
    for n, (scheme, parab) in enumerate(cases):
        assert packed[n, is_uniform_by_definition] == \
            ref_is_uniform_by_definition(scheme, parab)
        assert packed[n, is_dismantlable].ok == \
            ref_is_dismantlable(scheme, parab)
    with monkeypatch.context() as m:
        m.setattr(higmanian, "digit_runs", lambda colors, bound: [
            run for c in colors for run in digit_runs([c], bound)])
        for n, (scheme, parab) in enumerate(cases):
            for route in routes:
                assert route(scheme, parab) == packed[n, route]
    # C:9 by {1, 8}, classes of 3: the run of color 1 is [1, 2, 4], and
    # route 2 fails at its second digit, the pair (1, 2)
    scheme = orbit_scheme(9, (1, 8))
    (parab,) = [e for e in nontrivial_parabolics(scheme)
                if e.num_classes == 3]
    runs, _ = _outside_blocks(scheme, parab)
    assert runs[0][1].colors == (1, 2, 4)
    failed_digit.clear()
    res = is_uniform_by_definition(scheme, parab)
    assert res.witness[3:5] == (1, 2) and failed_digit == [1]
    assert res == ref_is_uniform_by_definition(scheme, parab)


def test_dismantlable_matches_reference(reference_schemes):
    schemes = [orbit_scheme(n, units) for n in range(4, 41)
               for units in unit_groups(n)]
    schemes = ([s for s in schemes if s.rank <= 16] + thin_schemes()
               + list(reference_schemes.values()))
    outcomes = set()
    for scheme, parab in definition_cases(schemes):
        if parab.num_classes > 12:
            continue
        res = is_dismantlable(scheme, parab)
        assert res.ok == ref_is_dismantlable(scheme, parab)
        outcomes.add(res.ok)
        if not res.ok:
            # the witness is a union that `restriction` rejects
            assert 1 <= len(res.witness) <= 5
            classes = classes_of(parab)
            with pytest.raises(SchemeError):
                restriction(scheme, [x for ci in res.witness
                                     for x in classes[ci]])
    assert outcomes == {True, False}


def test_dismantlable_passes_up_nested_parabolics(reference_schemes):
    # for parabolics P < Q every Q-class is a union of P-classes, so every
    # union of Q-classes is one of P-classes: P dismantlable implies Q
    # dismantlable, and route 4 on E cannot pass where it fails on F.  P
    # in fact never passes below a nontrivial Q: take P-classes G1, G2 in
    # one Q-class and G3 in another; a color of Q \ P joins G1 to G2, and
    # no point of G3 meets it in the union of the three
    orbits = [orbit_scheme(n, units) for n in range(6, 31)
              for units in unit_groups(n)]
    counts = {}
    for name, schemes in (
            ("reference", list(reference_schemes.values())),
            ("orbit", [s for s in orbits if s.rank <= 16])):
        pairs = p_ok = q_fails = 0
        for scheme in schemes:
            parabs = nontrivial_parabolics(scheme)
            ok = {e.colors: is_dismantlable(scheme, e).ok for e in parabs}
            for P, Q in itertools.permutations(parabs, 2):
                if P.colors < Q.colors:
                    assert ok[Q.colors] or not ok[P.colors]
                    pairs += 1
                    p_ok += ok[P.colors]
                    q_fails += not ok[Q.colors]
        counts[name] = pairs, p_ok, q_fails
    # (nested pairs, P passing, Q failing)
    assert counts == {"reference": (8, 0, 0), "orbit": (153, 0, 64)}


def rank5_schemes(reference_schemes, negative_controls):
    """The rank-5 schemes at hand: the reference schemes, the negative
    controls and the rank-5 orbit schemes of C:4 to C:60."""
    orbits = [(n, orbit_parts(n, units))
              for n in range(4, 61) for units in unit_groups(n)]
    return ([s for s in reference_schemes.values() if s.rank == 5]
            + [scheme for _, scheme, _ in negative_controls]
            + [cayley_scheme(build_family(f"C:{n}"), parts)
               for n, parts in orbits if len(parts) == 5])


def test_detection_matches_reference_count(reference_schemes,
                                           negative_controls, monkeypatch):
    # k is read from the tensor; the reference detection counts it on the
    # v x v matrix.  Params, the second labeling and the rejection reason
    # must agree on every rank-5 scheme at hand.
    schemes = rank5_schemes(reference_schemes, negative_controls)
    def checked_ref_count(scheme, F, color):
        # the count is constant wherever detection asks for it
        k = ref_per_class_count(scheme, F, color)
        assert k is not None
        return k

    reasons, alts = set(), 0
    for scheme in schemes:
        got = detect_higmanian(scheme)
        with monkeypatch.context() as m:
            m.setattr(higmanian, "_per_class_count", checked_ref_count)
            ref = detect_higmanian(scheme)
        assert (got.reason, got.params, got.alt_params) == \
            (ref.reason, ref.params, ref.alt_params)
        reasons.add(got.reason)
        alts += got.alt_params is not None
    # both outcomes, and the n_S = n_T case with two labelings
    assert None in reasons and len(reasons) > 1 and alts


def test_detected_schemes_are_indecomposable(reference_schemes,
                                             negative_controls):
    # detection reads indecomposability off its parabolic chain: no
    # nontrivial parabolic of an accepted scheme is a wreath factor
    accepted = 0
    for scheme in rank5_schemes(reference_schemes, negative_controls):
        if not detect_higmanian(scheme):
            continue
        accepted += 1
        for parab in nontrivial_parabolics(scheme):
            assert not wreath_checked(scheme, parab)
    assert accepted > len(negative_controls)


def ref_detect_chain(scheme):
    """Detection by a search over every ordered pair of nontrivial
    parabolics for the chain E < F, rk(E) = cork(F) = 2, rk(F) = cork(E)
    = 3, with no test of their count, and k counted on the v x v matrix:
    ``(params, alt_params, relation_order)``, or None with no chain."""
    if scheme.rank != 5 or not scheme.is_symmetric():
        return None
    for E, F in itertools.permutations(nontrivial_parabolics(scheme), 2):
        if (E.colors < F.colors and len(E.colors) == 2
                and len(F.colors) == 3 and F.corank == 2
                and E.corank == 3):
            break
    else:
        return None
    a, b = F.outside
    s_color, t_color = (a, b) if (scheme.valencies[a]
                                  >= scheme.valencies[b]) else (b, a)
    f, m, n = scheme.v // F.n_class, F.n_class // E.n_class, E.n_class
    (e_color,) = E.colors - {0}
    (g_color,) = F.colors - E.colors
    params = HigmanianParams(f, m, n, ref_per_class_count(scheme, F, s_color),
                             int(scheme.p[t_color, s_color, t_color]))
    alt = None
    if scheme.valencies[a] == scheme.valencies[b]:
        alt = HigmanianParams(f, m, n,
                              ref_per_class_count(scheme, F, t_color),
                              int(scheme.p[s_color, t_color, s_color]))
        if alt.t > params.t:
            params, alt = alt, params
            s_color, t_color = t_color, s_color
    return params, alt, (0, e_color, s_color, t_color, g_color)


def test_detection_matches_chain_search(reference_schemes, negative_controls,
                                        negative_control_candidates):
    # a chain leaves no third nontrivial parabolic (`detect_higmanian`'s
    # docstring), so testing the count first loses no scheme: the same
    # acceptance, params, second labeling and relation order as the search
    # over every pair, on every rank-5 scheme and S-ring at hand
    srings = []
    for G, parts in negative_control_candidates:
        try:
            srings.append(cayley_scheme(G, parts))
        except SchemeError:
            pass
    accepted = 0
    for scheme in rank5_schemes(reference_schemes, negative_controls) + srings:
        got, ref = detect_higmanian(scheme), ref_detect_chain(scheme)
        assert bool(got) == (ref is not None)
        if got:
            accepted += 1
            assert len(nontrivial_parabolics(scheme)) == 2
            assert (got.params, got.alt_params, got.relation_order) == ref
    assert len(negative_controls) < accepted < len(srings)


def route3_params():
    """Table 2 at every grid point that has it, the nonuniform P24_BAD, and
    a sweep of small valid tuples, irrational eigenvalues among them."""
    out = []
    for family, q, r, j in TABLE_GRID:
        try:
            out.append(table2_params(family, q, r, j))
        except ConstructionError:
            pass
    out.append(HigmanianParams(3, 4, 2, 4, 2))
    for f, m, n in itertools.product((2, 3), (2, 3), (2, 3)):
        for k in range((m * n + 1) // 2, m * n):
            out.append(HigmanianParams(f, m, n, k, (f + k) % 3))
    return out


def test_route3_matches_reference():
    # one Krein sum per sorted triple and one multiplicity formula must give
    # exactly the numbers of the ordered-triple loop and the closed form
    irrational = 0
    for params in route3_params():
        data = spectral_data(params)
        x1, x3 = eigenvalue_pair(params)
        assert data.multiplicities == \
            ref_higmanian_multiplicities(params, x1, x3)
        assert krein(data.P, data.multiplicities, data.valencies).q == \
            ref_krein(data.P, data.multiplicities, data.valencies)
        irrational += not x1.is_rational
    assert irrational


def oracle_cases(constructions_by_family):
    """(scheme, exact data, relation order) of the four desk points and the
    octagon, the only rank-5 Higmanian orbit scheme of C:4-C:60."""
    found = {f"{fam} {dict(kw)}": con.result.scheme
             for (fam, kw), con in constructions_by_family.items()}
    G, parts = small_partitions()["octagon"]
    found["octagon"] = cayley_scheme(G, parts)
    cases = {}
    for name, scheme in found.items():
        det = detect_higmanian(scheme)
        cases[name] = (scheme, spectral_data(det.params), det.relation_order)
    return cases


def test_oracle_matches_dense_reference(constructions_by_family):
    # the same multiplicities and eigenmatrix as eigh on M; the rows of P
    # are far apart, so P within 1e-9 pins the row matching too
    cases = oracle_cases(constructions_by_family)
    assert len(cases) == 5
    for name, (scheme, exact, order) in cases.items():
        res = float_eigen_oracle(scheme, exact, relation_order=order)
        ref = ref_float_eigen_oracle(scheme, exact, relation_order=order)
        assert res.multiplicities == ref.multiplicities, name
        assert np.abs(res.P - ref.P).max() <= 1e-9, name
        assert res.max_abs_error < 1e-8, name


def test_oracle_rejects_what_dense_reference_rejects(q8_construction):
    scheme = q8_construction.result.scheme
    det = q8_construction.result.detection
    exact = spectral_data(det.params)
    order = list(det.relation_order)
    p108 = spectral_data(HigmanianParams(4, 9, 3, 18, 16))
    wrong = [
        (p108, range(scheme.rank)),
        (p108, order),
        (exact, [order[i] for i in (0, 1, 3, 2, 4)]),  # S and T swapped
        (dataclasses.replace(
            exact, multiplicities=exact.multiplicities[::-1]), order),
    ]
    for data, relation_order in wrong:
        messages = []
        for oracle in (float_eigen_oracle, ref_float_eigen_oracle):
            with pytest.raises(SpectralError) as info:
                oracle(scheme, data, relation_order=relation_order)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


# -- the integer kernel against the Fraction kernel ---------------------------------

PARITY_RADICANDS = (2, 3, 5, 6, 10, 15, 8, 12, 18, 0, 1, 4)
KERNELS = (QN, RefQuadraticNumber)


def assert_canonical(x):
    """den > 0, gcd(a, b, den) = 1, D square-free, and b = 0 iff D = 0."""
    a, b, den, D = x._a, x._b, x._den, x.D
    assert den > 0 and math.gcd(a, b, den) == 1, (a, b, den)
    assert D == 0 or (D > 1 and square_free_decomposition(D) == (1, D)), D
    assert (b == 0) == (D == 0), (b, D)


def outcome(fn, *args):
    """fn(*args) seen through `observe`, or the type and text of its error."""
    try:
        return observe(fn(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def observe(x):
    """Everything a value shows through the public interface."""
    if not isinstance(x, KERNELS):
        return x
    if isinstance(x, QN):
        assert_canonical(x)
    return (str(x), repr(x), float(x), x.sign(), bool(x), x.is_rational,
            x.is_integer, x.a, x.b, x.D, outcome(x.as_integer),
            outcome(x.as_fraction))


def parity_coefficient(rng):
    roll = rng.random()
    if roll < 0.2:
        return rng.choice((0, 1, -1))
    if roll < 0.4:
        return rng.randint(-60, 60)
    return Fraction(rng.randint(-60, 60), rng.randint(1, 50))


def parity_operands(rng, count):
    """(a, b, D) triples: zero, +-1, square-free and square-laden radicands."""
    out = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 2), (0, -1, 8),
           (1, 1, 1), (0, 1, 4), (Fraction(1, 2), Fraction(-1, 2), 12)]
    for _ in range(count):
        out.append((parity_coefficient(rng), parity_coefficient(rng),
                    rng.choice(PARITY_RADICANDS)))
    return out


BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv,
              operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
              operator.ge, lambda x, y: (x + y) - y == x)


def test_kernel_matches_fraction_reference():
    rng = random.Random(12)
    triples = parity_operands(rng, 150)
    for abD in triples + [(1, 1, -2)]:
        assert outcome(QN, *abD) == outcome(RefQuadraticNumber, *abD), abD
    pairs = [(rng.choice(triples), rng.choice(triples)) for _ in range(1500)]
    # one side an int or a Fraction, for the reflected operators
    pairs += [(abD, parity_coefficient(rng)) for abD in triples]
    mixed = 0
    for x, y in pairs:
        sides = [(K(*x), K(*y) if isinstance(y, tuple) else y)
                 for K in KERNELS]
        for unary in (operator.neg, abs, lambda z: z.inverse()):
            assert outcome(unary, sides[0][0]) == \
                outcome(unary, sides[1][0]), (x, unary)
        for op in BINARY_OPS:
            for swap in (False, True):
                got, want = (outcome(op, *(s[::-1] if swap else s))
                             for s in sides)
                assert got == want, (x, y, op, swap)
                mixed += isinstance(got, tuple) and got[0] is ValueError
    assert mixed  # incompatible radicals raise alike


def test_sqrt_and_roots_match_fraction_reference():
    rng = random.Random(13)
    radicands = [0, 1, 4, 8, 12, 18, -1, Fraction(18, 5), Fraction(1, 2)]
    radicands += [parity_coefficient(rng) for _ in range(300)]
    for x in radicands:
        assert outcome(QN.sqrt, x) == \
            outcome(RefQuadraticNumber.sqrt, x), x
    for _ in range(300):
        b, c = parity_coefficient(rng), parity_coefficient(rng)
        got, want = (outcome(lambda: tuple(map(observe, f(b, c))))
                     for f in (quadratic_roots, ref_quadratic_roots))
        assert got == want, (b, c)


def library_spectral(p):
    """Route 3's exact data from the library: P, multiplicities, Krein."""
    data = spectral.spectral_data(p)
    return data, spectral.krein(data.P, data.multiplicities, data.valencies)


def reference_spectral(p):
    """The same data from the QuadraticNumber loops on the closed-form P;
    the zero pattern is read off the reference Krein parameters."""
    P = spectral.higmanian_eigenmatrix(p)
    valencies = tuple(x.as_integer() for x in P[0])
    data = EigenData(P=P, multiplicities=ref_multiplicity_check(P, valencies),
                     valencies=valencies)
    ref_eigen_check(data)
    q = ref_sorted_krein(data.P, data.multiplicities, data.valencies)
    nonzero = tuple(tuple(tuple(map(bool, row)) for row in plane)
                    for plane in q)
    return data, KreinTensor(q=q, nonzero=nonzero)


def kernel_outputs(params_list, n_lams, spectral_data):
    """str of every exact quantity routes 1 and 3 and the linked-system
    branches produce, through the module-level names a kernel swap patches,
    with route 3's data from ``spectral_data``."""
    out = []
    for p in params_list:
        data, kr = spectral_data(p)
        qh = spectral.is_q_higmanian(data.multiplicities, kr)
        values = [x for row in data.P for x in row] + list(data.multiplicities)
        values += [x for plane in kr.q for row in plane for x in row]
        values += higmanian.uniformity_rhs(p.f, p.m, p.n, p.k)
        out.append((p.astuple(), data.valencies, qh.verdict, qh.certificates,
                    values))
    for n, lam in n_lams:
        out.append(((n, lam), [x for pair in constructions.semiregular_mu_nu(
            n, lam) for x in pair]))
    return out


def test_routes_match_under_fraction_reference(monkeypatch):
    # route 3's integer kernel does no QuadraticNumber arithmetic, so the
    # Fraction side runs the QuadraticNumber loops it replaced
    params_list = route3_params()
    n_lams = [(n, lam) for n in range(1, 9) for lam in range(1, 9)]
    for family, q, r, j in TABLE_GRID:
        try:
            m, n, k, lam, *_ = table1_params(family, q, r, j)
        except ConstructionError:
            continue
        n_lams.append((n, lam))
    fast = kernel_outputs(params_list, n_lams, library_spectral)
    for mod in (spectral, higmanian, constructions):
        monkeypatch.setattr(mod, "QN", RefQuadraticNumber)
    monkeypatch.setattr(spectral, "quadratic_roots", ref_quadratic_roots)
    slow = kernel_outputs(params_list, n_lams, reference_spectral)
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        *got_head, got_values = got
        *want_head, want_values = want
        assert got_head == want_head
        assert all(isinstance(x, QN) for x in got_values)
        assert all(isinstance(x, RefQuadraticNumber) for x in want_values)
        for x in got_values:
            assert_canonical(x)
        assert list(map(str, got_values)) == list(map(str, want_values)), \
            got_head


# -- route 3's integer kernel against the QuadraticNumber loops --------------------

def spectral_outcomes(P, multiplicities, valencies):
    """What multiplicity_check, EigenData.check and krein give on the
    integer kernel and on the QuadraticNumber loops: values or errors."""
    data = EigenData(P=P, multiplicities=multiplicities, valencies=valencies)
    got = (outcome(multiplicity_check, P, valencies), outcome(data.check),
           outcome(lambda: krein(P, multiplicities, valencies).q))
    want = (outcome(ref_multiplicity_check, P, valencies),
            outcome(ref_eigen_check, data),
            outcome(ref_sorted_krein, P, multiplicities, valencies))
    return got, want


def kernel_values(x):
    """Every QuadraticNumber in a nested tuple."""
    if isinstance(x, QN):
        return [x]
    if isinstance(x, tuple):
        return [y for item in x for y in kernel_values(item)]
    return []


def test_spectral_kernel_matches_qn_loops_on_route3_params():
    # Table 2 at every grid point, the nonuniform P24_BAD and the sweep,
    # irrational eigenvalues among them
    for params in route3_params():
        data = spectral_data(params)
        got, want = spectral_outcomes(data.P, data.multiplicities,
                                      data.valencies)
        assert got == want, params
        assert got[1] is None  # the data passes its check
        for x in kernel_values(got):
            assert_canonical(x)


def replaced(P, i, j, x):
    rows = [list(row) for row in P]
    rows[i][j] = x
    return tuple(map(tuple, rows))


def corrupted_spectral_inputs():
    """(name, P, multiplicities, valencies) that break the spectral data."""
    good = spectral_data(HigmanianParams(3, 4, 2, 4, 3))   # rational
    bad = spectral_data(HigmanianParams(3, 4, 2, 4, 2))    # in Q(sqrt 2)
    out = [
        ("nonpositive multiplicity", good.P,
         (QN(1), QN(-4), QN(9), QN(16), QN(2)), good.valencies),
        ("zero multiplicity denominator",
         replaced(replaced(replaced(good.P, 2, 0, QN(0)), 2, 1, QN(0)),
                  2, 4, QN(0)), good.multiplicities, good.valencies),
        ("entry in Q(sqrt 3)", replaced(bad.P, 1, 2, QN(1, 1, 3)),
         bad.multiplicities, bad.valencies),
        ("pure radical sqrt 3", replaced(bad.P, 1, 2, QN(0, 1, 3)),
         bad.multiplicities, bad.valencies),
        ("multiplicities in Q(sqrt 3)", bad.P,
         (QN(1), QN(6, 1, 3), QN(9), QN(6, -1, 3), QN(2)), bad.valencies),
        # in P24_BAD columns 2 and 3 cancel each other's sqrt 2 in every
        # s_ijk; one entry + 1 breaks that, so krein's m_1 m_1 s_111 mixes
        # the two radicals
        ("krein across Q(sqrt 2) and Q(sqrt 3)",
         replaced(bad.P, 1, 2, bad.P[1][2] + 1),
         (QN(1), QN(6, 1, 3), QN(9), QN(6, -1, 3), QN(2)), bad.valencies),
    ]
    for data, name in ((good, "P24"), (bad, "P24_BAD")):
        for i, j in itertools.product(range(1, 5), range(5)):
            out.append((f"{name} P[{i}][{j}] + 1",
                        replaced(data.P, i, j, data.P[i][j] + 1),
                        data.multiplicities, data.valencies))
    return out


def test_spectral_kernel_matches_qn_loops_on_corrupted_inputs():
    errors = set()
    for name, P, mults, valencies in corrupted_spectral_inputs():
        got, want = spectral_outcomes(P, mults, valencies)
        assert got == want, name
        errors |= {x[1] for x in got if isinstance(x, tuple) and len(x) == 2
                   and x[0] in (SpectralError, ValueError)}
    assert {"nonpositive multiplicity",
            "zero denominator in multiplicity formula",
            "incompatible radicals sqrt(3), sqrt(2)",
            "column orthogonality fails at (0,1)"} <= errors, errors


def test_spectral_verdict_makes_few_qn_operations(monkeypatch):
    # route 3 works on integers; only the eigenvalue pair is formed with
    # QuadraticNumber operators
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        op = QN.__dict__[name]
        monkeypatch.setattr(QN, name, lambda x, y, _op=op:
                            calls.append(1) or _op(x, y))
    for params in route3_params():
        calls.clear()
        higmanian._spectral_verdict(params)
        assert len(calls) <= 16, (params, len(calls))


def test_gre_multiply_matches_reference(constructions_by_family):
    # random multisets in every built-in group, the linked-system members of
    # every desk construction, and empty sets
    rng = np.random.default_rng(0)
    cases = []
    for spec in BUILTIN_SPECS:
        G = build_family(spec)
        cases.append((G, (), ()))
        for _ in range(20):
            xs, ys = (rng.integers(0, G.order, rng.integers(0, 2 * G.order))
                      for _ in range(2))
            cases += [(G, xs, ys), (G, xs.tolist(), ()), (G, (), ys.tolist())]
    for con in constructions_by_family.values():
        G, sets = con.system.group, con.system.sets
        cases += [(G, a, b) for a in sets for b in sets]
    for G, xs, ys in cases:
        got, want = gre_multiply(G, xs, ys), ref_gre_multiply(G, xs, ys)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == (G.order,) and (got == want).all()


def test_rds_search_matches_reference(constructions_by_family):
    # the four desk points; central order-2 subgroups of small groups;
    # C:32/{0,16}, whose wide frontier dies at the last level; a trivial N,
    # N = G, and m % n != 0
    cases = [(con.system.group, con.system.forbidden)
             for con in constructions_by_family.values()]
    for spec, elements in (("C:4", [0, 2]), ("GenDih:C:4", [0, 2]),
                           ("Prod:C:2,C:4", [0, 2]), ("C:32", [0, 16]),
                           ("Q8cp:1", [0]), ("C:6", [0, 3])):
        G = build_family(spec)
        cases.append((G, G.subgroup(elements)))
    G = build_family("Heis:3:1")
    cases.append((G, G.subgroup(range(G.order))))
    sizes = []
    for G, N in cases:
        got = search_semiregular_rds(G, N)
        assert got == ref_search_semiregular_rds(G, N)
        assert all(type(x) is int for rds in got for x in rds)
        sizes.append(len(got))
    assert sizes == [16, 512, 405, 486, 4, 0, 8, 0, 1, 0, 0]


# -- linked systems against the verifier that formed every product ------------------

def ref_verify_dds(G, N, X):
    """`verify_dds` with one constancy loop per part."""
    xs = tuple(sorted(set(int(x) for x in X)))
    if xs and not 0 <= xs[0] <= xs[-1] < G.order:
        raise ConstructionError(f"element outside 0..{G.order - 1}")
    diffs = gre_multiply(G, xs, G.inv[list(xs)])
    diffs[G.identity] -= len(xs)
    n_sharp = [x for x in N.elements if x != G.identity]
    outside = [x for x in range(G.order) if x not in N.as_set]
    lam1 = int(diffs[n_sharp[0]]) if n_sharp else 0
    for x in n_sharp:
        if diffs[x] != lam1:
            raise ConstructionError(
                f"difference count not constant on N^#: element {x} has "
                f"{int(diffs[x])}, element {n_sharp[0]} has {lam1}")
    lam2 = int(diffs[outside[0]]) if outside else 0
    for x in outside:
        if diffs[x] != lam2:
            raise ConstructionError(
                f"difference count not constant outside N: element {x} has "
                f"{int(diffs[x])}, element {outside[0]} has {lam2}")
    return constructions.DivisibleDifferenceSet(
        group=G, forbidden=N, elements=xs, m=G.order // N.order,
        n=N.order, k=len(xs), lambda1=lam1, lambda2=lam2)


def test_verify_dds_matches_reference(constructions_by_family):
    # random subsets, most refused on N^#; one random element per coset of
    # N, so 0 on N^# and most refused outside N; the desk members, which
    # pass; a trivial N and N = G, with one part empty
    rng = random.Random(5)
    cases = [(con.system.group, con.system.forbidden, con.system.sets)
             for con in constructions_by_family.values()]
    for spec, elements in (("C:8", [0, 4]), ("Q8cp:2", [0, 1]), ("C:6", [0]),
                           ("C:4", range(4)), ("EA:3:3", range(3))):
        G = build_family(spec)
        cases.append((G, G.subgroup(elements), ()))
    seen = set()
    for G, N, members in cases:
        blocks = cosets(G, N)
        sets = list(members)
        for _ in range(20):
            sets.append(rng.sample(range(G.order), rng.randint(1, G.order)))
            sets.append([rng.choice(b) for b in blocks])
        for X in sets:
            got = dds_outcome(constructions.verify_dds, G, N, X)
            assert got == dds_outcome(ref_verify_dds, G, N, X)
            seen.add(got.split(":")[0] if isinstance(got, str) else "passed")
    assert seen == {"difference count not constant on N^#",
                    "difference count not constant outside N", "passed"}


def dds_outcome(verify, G, N, X):
    """What `verify_dds` or its reference returns, or the text of its
    error."""
    try:
        d = verify(G, N, X)
    except ConstructionError as exc:
        return str(exc)
    return (d.elements, d.m, d.n, d.k, d.lambda1, d.lambda2)


def ref_product_vector(G, cache, a, b):
    key = (a, b)
    if key not in cache:
        cache[key] = gre_multiply(G, a, b)
    return cache[key]


def ref_rds_difference_vector(G, N, k, lam):
    want = np.full(G.order, lam, dtype=np.int64)
    for x in N.elements:
        want[x] = 0
    want[G.identity] = k
    return want


def ref_verify_linked_system(G, N, sets):
    """Check the closed-linked-system product law and recover (chi, psi, mu, nu).

    Every member must be an (m, n, k, lam)-RDS relative to N; the product of
    a member with its inverse partner must equal k*e + lam*(G \\ N) and every
    other product must be two-level on a member of the family, with the same
    (mu, nu) throughout.
    """
    family = [tuple(sorted(set(int(x) for x in s))) for s in sets]
    w = len(family)
    if w < 2:
        raise ConstructionError("a linked system needs w >= 2")
    if len(set(family)) != w:
        raise ConstructionError("family members must be distinct")
    rds = [ref_verify_dds(G, N, s) for s in family]
    if any(d.lambda1 != 0 for d in rds):
        raise ConstructionError("a member hits the forbidden subgroup")
    ks = {d.k for d in rds}
    lams = {d.lambda2 for d in rds}
    if len(ks) != 1 or len(lams) != 1:
        raise ConstructionError("members have different (k, lambda)")
    k, lam = ks.pop(), lams.pop()
    m, n = rds[0].m, rds[0].n

    index = {frozenset(s): i for i, s in enumerate(family)}
    rec_chi = []
    for i, s in enumerate(family):
        inv = frozenset(int(G.inv[x]) for x in s)
        if inv not in index:
            raise ConstructionError(
                f"inverse of member {i} is not in the family")
        rec_chi.append(index[inv])

    cache: dict = {}
    chi_form = ref_rds_difference_vector(G, N, k, lam)
    options: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for a, b in itertools.product(range(w), repeat=2):
        vec = ref_product_vector(G, cache, family[a], family[b])
        if b == rec_chi[a]:
            if not (vec == chi_form).all():
                raise ConstructionError(
                    f"product of member {a} with its inverse partner is not "
                    f"k*e + lam*(G \\ N)")
            continue
        opts = []
        for y, mu, nu in constructions._two_level_options(vec, k):
            c = index.get(y)
            if c is not None:
                opts.append((c, mu, nu))
        if not opts:
            raise ConstructionError(
                f"product of members {a},{b} is not two-level on a family "
                f"member")
        options[(a, b)] = opts

    # pairs constrain each other only through the global (mu, nu): for each
    # (mu, nu) the least pair offers, every pair takes its first option
    # with that (mu, nu)
    pairs = sorted(options)
    if not pairs:
        # w = 2 with chi swapping both members: no psi pairs exist
        raise ConstructionError("every pair is a chi-pair; system is degenerate")
    mu = nu = None
    psi: dict[tuple[int, int], int] = {}
    for _, mu0, nu0 in options[pairs[0]]:
        picks = {pair: next((c for c, mu1, nu1 in options[pair]
                             if (mu1, nu1) == (mu0, nu0)), None)
                 for pair in pairs}
        if None not in picks.values():
            psi, mu, nu = picks, mu0, nu0
            break
    if mu is None:
        raise ConstructionError("no globally consistent (mu, nu)")

    branch = ""
    plus, minus = constructions.semiregular_mu_nu(n, lam)
    if (QN(mu), QN(nu)) == plus:
        branch = "+"
    elif (QN(mu), QN(nu)) == minus:
        branch = "-"
    elif k == m:
        raise ConstructionError(
            f"recovered (mu, nu) = ({mu}, {nu}) matches neither sign branch")
    return constructions.LinkedSystem(
        group=G, forbidden=N, sets=tuple(family), chi=tuple(rec_chi), psi=psi,
        m=m, n=n, k=k, lam=lam, mu=mu, nu=nu, branch=branch)


def ref_close(G, w, k, rds_set, cache, fam):
    """`constructions._close` with an RDS index of frozensets: close a
    family of RDSs (frozensets) under inverses and product images, depth
    first over the viable images; None when it exceeds w members or some
    product has no viable image."""
    if len(fam) > w:
        return None
    for s in fam:
        inv = frozenset(int(G.inv[x]) for x in s)
        if inv not in fam:
            return ref_close(G, w, k, rds_set, cache, fam | {inv})
    for a, b in itertools.product(sorted(fam, key=sorted), repeat=2):
        a_inv = frozenset(int(G.inv[x]) for x in a)
        if b == a_inv:
            continue  # the chi-pair: holds automatically for RDSs
        key = (tuple(sorted(a)), tuple(sorted(b)))
        if key not in cache:
            cache[key] = gre_multiply(G, *key)
        vec = cache[key]
        opts = [y for y, _, _ in constructions._two_level_options(vec, k)]
        if not opts:
            return None
        if any(y in fam for y in opts):
            continue
        viable = [y for y in opts if y in rds_set]
        if not viable:
            return None
        for y in viable:
            got = ref_close(G, w, k, rds_set, cache, fam | {y})
            if got is not None:
                return got
        return None
    return fam if len(fam) == w else None


def ref_search_linked_system(G, N, w, rds_list, mu_nu=None):
    """`search_linked_system` verifying every closed start, repeats too,
    with `ref_close`."""
    rds_set = {frozenset(s) for s in rds_list}
    k = len(rds_list[0])
    cache: dict = {}
    first = None
    for start in rds_list:
        fam = ref_close(G, w, k, rds_set, cache,
                        frozenset({frozenset(start)}))
        if fam is None:
            continue
        try:
            system = ref_verify_linked_system(
                G, N, sorted(tuple(sorted(s)) for s in fam))
        except ConstructionError:
            continue
        if mu_nu is None or (system.mu, system.nu) == mu_nu:
            return system
        if first is None:
            first = system
    return first


def linked_outcome(verify, G, N, sets):
    """What a verifier returns, by field, or the text of its error."""
    try:
        s = verify(G, N, sets)
    except ConstructionError as exc:
        return str(exc)
    return (s.sets, s.chi, tuple(s.psi.items()), s.params, s.branch)


def closed_families(con):
    """Every closed family `ref_close` reaches from some start RDS at a
    desk point, as sorted member lists, in order of first reach."""
    G, N, w = con.system.group, con.system.forbidden, con.system.w
    rds = search_semiregular_rds(G, N)
    rds_set, cache, out = {frozenset(s) for s in rds}, {}, []
    for start in rds:
        fam = ref_close(G, w, len(rds[0]), rds_set, cache,
                        frozenset({frozenset(start)}))
        if fam is not None:
            fam = sorted(tuple(sorted(s)) for s in fam)
            if fam not in out:
                out.append(fam)
    return out


def mutated_families(G, fam):
    """fam with one element replaced (the first element of a member by the
    least element it lacks), one member dropped, or one duplicated."""
    for i, s in enumerate(fam):
        lacks = min(set(range(G.order)) - set(s))
        yield fam[:i] + [(lacks,) + s[1:]] + fam[i + 1:]
        yield fam[:i] + fam[i + 1:]
        yield fam + [s]


def test_verify_linked_system_matches_reference(constructions_by_family):
    cases = []
    for con in constructions_by_family.values():
        G, N = con.system.group, con.system.forbidden
        fams = closed_families(con)
        assert con.system.sets in map(tuple, fams)
        for fam in fams:
            cases.append((G, N, fam))
            cases += [(G, N, bad) for bad in mutated_families(G, fam)]
        if (con.family, con.r) == ("q8cp", 2):
            # unions of the first closed family with each other one: four
            # members, past the RDS and inverse checks into the products
            cases += [(G, N, fams[0] + fam) for fam in fams[1:]]
    # singletons with a trivial N: every product is two-level on a member
    # (with two readings on C:2), so the law is taken, and lam = 0 then
    # has no sign branch
    for spec in ("C:2", "C:3", "C:4"):
        G = build_family(spec)
        cases.append((G, G.subgroup([0]), [(x,) for x in range(G.order)]))
    # a member uneven on N^#, a member hitting N, and unequal k
    c8, q8 = build_family("C:8"), build_family("Q8cp:1")
    cases += [(c8, c8.subgroup([0, 2, 4, 6]), [(0, 2), (1, 3)]),
              (c8, c8.subgroup([0, 4]), [(0, 4), (1, 5)]),
              (q8, q8.center(), [(0, 2, 4, 6), (0, 3, 5, 7), (1,)])]
    seen = set()
    for G, N, sets in cases:
        got = linked_outcome(constructions.verify_linked_system, G, N, sets)
        assert got == linked_outcome(ref_verify_linked_system, G, N, sets)
        seen.add(got if isinstance(got, str) else got[3])
    assert len(seen) > 12


def test_two_member_readings_refused_at_y_inverse_z():
    # Y^-1 Y^-1 has two readings on members, Y and zY, which needs n = 2.
    # The family then holds Y^-1 z, and Y Y^-1 z = m z + (m/2)(G \ N) has
    # three values, so that pair is refused before any law is chosen
    G = build_family("Q8cp:2")
    N = G.center()
    (z,) = [x for x in N.elements if x != G.identity]
    Y = search_semiregular_rds(G, N)[0]

    def image(of):
        return tuple(sorted(int(of[y]) for y in Y))

    zY, y_inv = image(G.mul[z]), image(G.inv)
    y_inv_z = image(G.mul[G.inv, z])
    fam = sorted({Y, zY, y_inv, y_inv_z})
    readings = constructions._two_level_options(
        gre_multiply(G, y_inv, y_inv), len(Y))
    assert {y for y, _, _ in readings} == {frozenset(Y), frozenset(zY)}
    product = gre_multiply(G, Y, y_inv_z)
    assert (product[G.identity], product[z]) == (0, 16)
    assert set(product.tolist()) == {0, 8, 16}
    want = (f"product of members {fam.index(Y)},{fam.index(y_inv_z)} is not "
            f"two-level on a family member")
    for verify in (constructions.verify_linked_system,
                   ref_verify_linked_system):
        assert linked_outcome(verify, G, N, fam) == want


@pytest.mark.parametrize("family, kw", [
    ("q8cp", (("r", 1),)), ("q8cp", (("r", 2),)),
    ("heis", (("q", 3), ("r", 1))), ("ea", (("j", 1), ("q", 3), ("r", 1))),
])
def test_search_linked_system_matches_reference(constructions_by_family,
                                                family, kw):
    con = constructions_by_family[(family, kw)]
    G, N, w = con.system.group, con.system.forbidden, con.system.w
    rds = search_semiregular_rds(G, N)
    table1 = con.table1_expected[5:]
    laws = [tuple(x.as_integer() for x in law) for law in
            constructions.semiregular_mu_nu(N.order, con.system.lam)]
    (other,) = [law for law in laws if law != table1]
    for mu_nu in (None, table1, other):
        got = constructions.search_linked_system(G, N, w, rds_list=rds,
                                                 mu_nu=mu_nu)
        want = ref_search_linked_system(G, N, w, rds, mu_nu)
        assert (got.sets, got.chi, tuple(got.psi.items()), got.params,
                got.branch) == (want.sets, want.chi, tuple(want.psi.items()),
                                want.params, want.branch)
