"""Cross-check of the tensor-derived structure against a brute-force
matrix reference.

The reference below works on the v x v color matrix only: parabolics by a
union-matmul transitivity scan, quotients by scanning every block between
two classes, the wreath test by counting each outside relation per block,
restrictions by a row-major relabeling loop, intersection numbers from all
r^2 products, the definitional uniformity check from all r^2 block
products of every class, dismantlability by restricting to every union
of classes, and detection's per-class count k by counting each point's
neighbors in every class.  `higman.schemes` takes parabolics, coranks and
the wreath test from the intersection tensor instead, `validate` skips the
products the algebra determines, `is_uniform_by_definition` and
`is_dismantlable` skip transpose pairs and every pair with a color inside
the parabolic (whose product through a class is p_ij^k on the rows or
columns in the class and 0 elsewhere, tested directly; the pair list they
share is checked to cover every ordered pair of outside colors, and the
witnesses of both are pinned on orbit schemes), `is_dismantlable`
decides every union from one pass over the class products, and detection
reads k from the tensor; both must agree everywhere.  Route 3 is checked the same way: the Krein parameters against
the loop over every ordered triple, and the multiplicities against the
closed form in (f, m, n, k) and the eigenvalue pair.  Subset products
`gre_multiply` are checked against a weighted scatter of one table row per
element of the smaller side, the block-wise RDS search against a
backtracking search that adds one element and one difference at a time,
and Cayley schemes, whose tensor comes from the products of the parts,
against `validate` on their color matrices.  The integer kernel of
`QuadraticNumber` is checked against the Fraction kernel it replaced: the
same printed values, order, errors and route-1/route-3 outputs.  Each of
routes 2 and 4, when it passes, is counted to form one product per class
and pair.  `verify_linked_system` is checked against the verifier that
formed every product, the inverse-partner ones and repeats included: the
same system or the same error on every closed family of the desk points,
mutated ones and unions, and the same search result on each branch.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import total_ordering

import numpy as np
import pytest

from higman import constructions, higmanian, spectral
from higman.cli import TABLE_GRID
from higman.constructions import (ConstructionError, search_semiregular_rds,
                                  table1_params, table2_params)
from higman.groups import build_family, cosets, gre_multiply, quaternion_group
from higman.higmanian import (DefinitionCheck, HigmanianParams,
                              _outside_blocks, detect_higmanian,
                              is_dismantlable, is_uniform_by_definition)
from higman.quadratic import QuadraticNumber as QN
from higman.quadratic import quadratic_roots, square_free_decomposition
from higman.schemes import (SchemeError, cayley_scheme, is_wreath_over,
                            nontrivial_parabolics, parabolics, quotient,
                            restriction, trivial_scheme, validate,
                            wreath_product)
from higman.spectral import eigenvalue_pair, krein, spectral_data
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


def ref_restriction_colors(scheme, points):
    pts = sorted(set(points))
    return ref_relabel(scheme.color[np.ix_(pts, pts)])


def ref_is_uniform_by_definition(scheme, parab):
    """Every block product A_i^{DG} A_j^{GL}, each class G and all (i, j) in
    order, scattered into a (D, L, k) table; the last write is the
    reference, the first row-major cell that differs is the witness."""
    cork = parab.corank
    if cork != 2:
        return DefinitionCheck(ok=False, cork=cork)
    r, v, c = scheme.rank, scheme.v, parab.num_classes
    class_of = parab.class_of
    color = scheme.color.astype(np.int64)
    basis = [(scheme.color == i).astype(np.float64) for i in range(r)]
    member = np.zeros((v, c))
    member[np.arange(v), class_of] = 1.0
    occurs = [np.rint(member.T @ basis[i] @ member).astype(np.int64) > 0
              for i in range(r)]
    flat_key = ((class_of[:, None] * c + class_of[None, :]) * r
                + color).ravel()
    gmin = np.full((r, r, r), np.iinfo(np.int64).max, dtype=np.int64)
    gmax = np.full((r, r, r), -1, dtype=np.int64)
    for gi in range(c):
        gpts = list(parab.classes[gi])
        for i in range(r):
            for j in range(r):
                M = np.rint(basis[i][:, gpts] @ basis[j][gpts, :]).astype(
                    np.int64).ravel()
                table = np.zeros(c * c * r, dtype=np.int64)
                table[flat_key] = M
                bad = np.nonzero(table[flat_key] != M)[0]
                if len(bad):
                    x, y = divmod(int(bad[0]), v)
                    return DefinitionCheck(
                        ok=False, cork=2,
                        witness=(int(class_of[x]), gi, int(class_of[y]),
                                 i, j, int(color[x, y])))
                adm = occurs[i][:, gi][:, None] & occurs[j][gi, :][None, :]
                blocks = table.reshape(c, c, r)
                for k in range(r):
                    sel = adm & occurs[k]
                    if sel.any():
                        vals = blocks[:, :, k][sel]
                        gmin[i, j, k] = min(gmin[i, j, k], int(vals.min()))
                        gmax[i, j, k] = max(gmax[i, j, k], int(vals.max()))
    seen = gmax >= 0
    consistent = bool((gmin[seen] == gmax[seen]).all())
    return DefinitionCheck(ok=True, cork=2, coefficients_consistent=consistent)


def ref_is_dismantlable(scheme, parab):
    """Whether every nonempty union of classes induces a subscheme, by
    restricting to each union in turn."""
    c = parab.num_classes
    for mask in range(1, 1 << c):
        pts = [x for ci in range(c) if mask >> ci & 1
               for x in parab.classes[ci]]
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


def ref_higmanian_multiplicities(params, x1, x3):
    """Closed-form multiplicities (m_0, ..., m_4) given the eigenvalue pair."""
    f, m, n, k = params.f, params.m, params.n, params.k
    mn = m * n
    top = QN(f * (f - 1) * m * (n - 1) * k * (mn - k))
    base = QN((f - 1) * k * (mn - k))
    m1 = top / (base + x1 * x1 * (m * (n - 1)))
    m3 = top / (base + x3 * x3 * (m * (n - 1)))
    return (QN(1), m1, QN(f * (m - 1)), m3, QN(f - 1))


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
    q8 = quaternion_group()
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
    assert [(e.colors, e.classes) for e in got] == [r[:2] for r in ref]
    for parab, (colors, classes, class_of) in zip(got, ref):
        assert parab.class_of.tolist() == class_of.tolist()
        ref_q = validate(ref_quotient_colors(scheme, classes))
        assert parab.corank == ref_q.rank
        q = quotient(scheme, parab)
        assert q.color.dtype == ref_q.color.dtype
        assert q.color.tobytes() == ref_q.color.tobytes()
        if not parab.is_trivial():
            assert is_wreath_over(scheme, parab) == ref_is_wreath(
                scheme, colors, classes, class_of)
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
        pts = parab.classes[-1] + parab.classes[0]
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
    assert is_wreath_over(w, mid) and mid.corank == 2
    two = two_level_wreath()
    mids = [e for e in parabolics(two) if not e.is_trivial()]
    assert [e.n_class for e in mids] == [2, 6]
    assert all(is_wreath_over(two, e) for e in mids)


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


def test_cayley_scheme_matches_validate(constructions_by_family,
                                        example1_results,
                                        negative_control_candidates):
    # cayley_scheme decides the S-ring from the products of the parts;
    # validate must accept the same color matrices and derive the same
    # tensor.  Every Cayley scheme the suite builds, and every candidate
    # partition of the negative-control search, accepted or not.
    partitions = [con.result.partition
                  for con in constructions_by_family.values()]
    partitions += [res.partition for res in example1_results]
    cases = [(pt.group, pt.parts) for pt in partitions]
    cases += list(small_partitions().values()) + thin_partitions()
    cases += [(build_family(f"C:{n}"), orbit_parts(n, units))
              for n in range(4, 41) for units in unit_groups(n)]
    cases += negative_control_candidates
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
            for gi, gpts in enumerate(parab.classes):
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
        pairs, _ = _outside_blocks(scheme, parab)
        assert pairs == sorted(pairs)
        transposes = [(int(inverse[j]), int(inverse[i])) for i, j in pairs]
        # each ordered pair is a kept pair or the transpose of one, and no
        # two kept pairs are transposes of each other
        assert set(pairs) | set(transposes) == \
            set(itertools.product(outside, repeat=2))
        assert len(set(map(frozenset, zip(pairs, transposes)))) == len(pairs)


class CountedMatmul(np.ndarray):
    """A float array that counts the products it forms as left operand."""
    products = 0

    def __matmul__(self, other):
        CountedMatmul.products += 1
        return super().__matmul__(other)


def test_each_route_forms_one_product_per_class_and_pair(reference_schemes,
                                                         monkeypatch):
    # a route that passes forms basis products for every class and every
    # pair of `_outside_blocks`, no more and no fewer
    def counted_blocks(scheme, parab):
        pairs, bases = outside_blocks(scheme, parab)
        return pairs, ({i: b.view(CountedMatmul) for i, b in basis.items()}
                       for basis in bases)

    outside_blocks = higmanian._outside_blocks
    monkeypatch.setattr(higmanian, "_outside_blocks", counted_blocks)
    passed = {is_uniform_by_definition: 0, is_dismantlable: 0}
    for scheme, parab in block_product_cases(reference_schemes):
        want = parab.num_classes * len(outside_blocks(scheme, parab)[0])
        for route in passed:
            CountedMatmul.products = 0
            if route(scheme, parab).ok:
                assert CountedMatmul.products == want, (route, scheme, parab)
                passed[route] += want > 0
    heis = reference_schemes["heis {'q': 3, 'r': 1}"]
    F = next(e for e in nontrivial_parabolics(heis) if e.corank == 2)
    CountedMatmul.products = 0
    assert is_dismantlable(heis, F).ok and CountedMatmul.products == 12
    assert min(passed.values()) > 10


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
            with pytest.raises(SchemeError):
                restriction(scheme, [x for ci in res.witness
                                     for x in parab.classes[ci]])
    assert outcomes == {True, False}


def test_detection_matches_reference_count(reference_schemes,
                                           negative_controls, monkeypatch):
    # k is read from the tensor; the reference detection counts it on the
    # v x v matrix.  Params, the second labeling and the rejection reason
    # must agree on every rank-5 scheme at hand.
    orbits = [(n, orbit_parts(n, units))
              for n in range(4, 61) for units in unit_groups(n)]
    schemes = ([s for s in reference_schemes.values() if s.rank == 5]
               + [scheme for _, scheme, _ in negative_controls]
               + [cayley_scheme(build_family(f"C:{n}"), parts)
                  for n, parts in orbits if len(parts) == 5])
    def checked_ref_count(scheme, F, color):
        # the count is constant wherever detection asks for it
        k = ref_per_class_count(scheme, F, color)
        assert k is not None
        return k

    reasons, alts = set(), 0
    for scheme in schemes:
        got = detect_higmanian(scheme, strict=False)
        with monkeypatch.context() as m:
            m.setattr(higmanian, "_per_class_count", checked_ref_count)
            ref = detect_higmanian(scheme, strict=False)
        assert (got.reason, got.params, got.alt_params) == \
            (ref.reason, ref.params, ref.alt_params)
        reasons.add(got.reason)
        alts += got.alt_params is not None
    # both outcomes, and the n_S = n_T case with two labelings
    assert None in reasons and len(reasons) > 1 and alts


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


def kernel_outputs(params_list, n_lams):
    """str of every exact quantity routes 1 and 3 and the linked-system
    branches produce, through the module-level names a kernel swap patches."""
    out = []
    for p in params_list:
        data = spectral.spectral_data(p)
        kr = spectral.krein(data.P, data.multiplicities, data.valencies)
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
    params_list = route3_params()
    n_lams = [(n, lam) for n in range(1, 9) for lam in range(1, 9)]
    for family, q, r, j in TABLE_GRID:
        try:
            m, n, k, lam, *_ = table1_params(family, q, r, j)
        except ConstructionError:
            continue
        n_lams.append((n, lam))
    fast = kernel_outputs(params_list, n_lams)
    for mod in (spectral, higmanian, constructions):
        monkeypatch.setattr(mod, "QN", RefQuadraticNumber)
    monkeypatch.setattr(spectral, "quadratic_roots", ref_quadratic_roots)
    slow = kernel_outputs(params_list, n_lams)
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
    cases = [(con.group, con.forbidden)
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


def ref_verify_linked_system(G, N, sets, chi=None):
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
    if chi is not None and tuple(chi) != tuple(rec_chi):
        raise ConstructionError("supplied chi disagrees with the inverses")

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


def ref_search_linked_system(G, N, w, rds_list, mu_nu=None):
    """`search_linked_system` verifying every closed start, repeats too."""
    rds_set = {frozenset(s) for s in rds_list}
    k = len(rds_list[0])
    cache: dict = {}
    first = None
    for start in rds_list:
        fam = constructions._close(G, w, k, rds_set, cache,
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


def linked_outcome(verify, G, N, sets, chi=None):
    """What a verifier returns, by field, or the text of its error."""
    try:
        s = verify(G, N, sets, chi)
    except ConstructionError as exc:
        return str(exc)
    return (s.sets, s.chi, tuple(s.psi.items()), s.params, s.branch)


def closed_families(con):
    """Every closed family `_close` reaches from some start RDS at a desk
    point, as sorted member lists, in order of first reach."""
    G, N, w = con.group, con.forbidden, con.system.w
    rds = search_semiregular_rds(G, N)
    rds_set, cache, out = {frozenset(s) for s in rds}, {}, []
    for start in rds:
        fam = constructions._close(G, w, len(rds[0]), rds_set, cache,
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
        G, N = con.group, con.forbidden
        fams = closed_families(con)
        assert con.system.sets in map(tuple, fams)
        for fam in fams:
            chi = ref_verify_linked_system(G, N, fam).chi
            cases += [(G, N, fam, None), (G, N, fam, chi),
                      (G, N, fam, chi[::-1])]
            cases += [(G, N, bad, None) for bad in mutated_families(G, fam)]
        if (con.family, con.r) == ("q8cp", 2):
            # unions of the first closed family with each other one: four
            # members, past the RDS and inverse checks into the products
            cases += [(G, N, fams[0] + fam, None) for fam in fams[1:]]
    # singletons with a trivial N: every product is two-level on a member
    # (with two readings on C:2), so the law is taken, and lam = 0 then
    # has no sign branch
    for spec in ("C:2", "C:3", "C:4"):
        G = build_family(spec)
        cases.append((G, G.subgroup([0]), [(x,) for x in range(G.order)],
                      None))
    # a member uneven on N^#, a member hitting N, and unequal k
    c8, q8 = build_family("C:8"), build_family("Q8cp:1")
    cases += [(c8, c8.subgroup([0, 2, 4, 6]), [(0, 2), (1, 3)], None),
              (c8, c8.subgroup([0, 4]), [(0, 4), (1, 5)], None),
              (q8, q8.center(), [(0, 2, 4, 6), (0, 3, 5, 7), (1,)], None)]
    seen = set()
    for G, N, sets, chi in cases:
        got = linked_outcome(constructions.verify_linked_system,
                             G, N, sets, chi)
        assert got == linked_outcome(ref_verify_linked_system, G, N, sets, chi)
        seen.add(got if isinstance(got, str) else got[3])
    assert len(seen) > 12


@pytest.mark.parametrize("family, kw", [
    ("q8cp", (("r", 1),)), ("q8cp", (("r", 2),)),
    ("heis", (("q", 3), ("r", 1))), ("ea", (("j", 1), ("q", 3), ("r", 1))),
])
def test_search_linked_system_matches_reference(constructions_by_family,
                                                family, kw):
    con = constructions_by_family[(family, kw)]
    G, N, w = con.group, con.forbidden, con.system.w
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
