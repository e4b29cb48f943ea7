"""Explicit finite groups stored as dense multiplication tables.

Everything downstream (difference sets, S-rings, Cayley schemes) reduces to
table lookups and subset products, so a group here is nothing more than
an order x order table of element indices, validated on construction.
Built-in families cover the groups the constructions need: cyclic groups,
elementary abelian groups, Heisenberg groups over small finite fields,
central products of quaternion groups, generalized dihedral extensions and
direct products.  Spec strings: ``C:<n>``, ``EA:<p>:<k>``, ``Heis:<q>:<r>``,
``Q8cp:<r>``, ``GenDih:<spec>``, ``Prod:<spec>,<spec>``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# largest order a built-in family may have: an int32 table of 2^28 entries
# (1 GiB) is checked before it is allocated
GROUP_ORDER_LIMIT = 1 << 14
# most GenDih and Prod heads in one spec: each nests a call of build_family
SPEC_HEAD_LIMIT = 32
MAX_DIGITS = 18  # every number of this many digits fits int64


class GroupError(ValueError):
    """Raised when a table, subgroup or map fails the group axioms."""


class GroupOrderError(GroupError):
    """A group spec names an order over GROUP_ORDER_LIMIT."""


class FiniteGroup:
    """A finite group given by its multiplication table.

    Immutable after construction.  ``mul[x, y]`` is the index of the product
    x*y; identity and inverses are derived and checked.  Associativity is
    decided exactly at every order by Light's test on a generating set:
    ``generators`` is the greedy sequence of least elements not yet reached.
    Each scan of the check compares blocks of at most 2^20 table entries,
    so its transients stay a few MB at every order.  Every table is checked
    except a direct product's, which :func:`direct_product` derives from
    its two checked factors; so EA:p:k, a product of copies of C_p, is not
    checked either.
    """

    def __init__(self, mul, name: str = "") -> None:
        mul = np.asarray(mul, dtype=np.int32)
        if mul.ndim != 2 or not 0 < mul.shape[0] == mul.shape[1]:
            raise GroupError("multiplication table must be square, not empty")
        n = mul.shape[0]
        if mul.min() < 0 or mul.max() >= n:
            raise GroupError("table entries out of range")

        # a left and a right identity coincide, so at most one element
        # has both its row and its column equal to the identity map
        rng = np.arange(n)
        row_ok = np.empty(n, dtype=bool)
        col_ok = np.ones(n, dtype=bool)
        for rows in row_blocks(mul):
            row_ok[rows] = (mul[rows] == rng).all(1)
            col_ok &= (mul[rows] == rng[rows, None]).all(0)
        ids = np.flatnonzero(row_ok & col_ok)
        if len(ids) != 1:
            raise GroupError("table has no two-sided identity")
        identity = int(ids[0])

        counts = np.empty(n, dtype=np.intp)
        inv = np.empty(n, dtype=np.int32)
        for rows in row_blocks(mul):
            xs, ys = np.nonzero(mul[rows] == identity)
            two_sided = mul[ys, xs + rows.start] == identity
            xs, ys = xs[two_sided], ys[two_sided]
            counts[rows] = np.bincount(xs, minlength=len(counts[rows]))
            inv[xs + rows.start] = ys
        if (counts > 1).any():
            raise GroupError(f"element {np.argmax(counts > 1)} has two inverses")
        if (counts == 0).any():
            raise GroupError("some element has no two-sided inverse")

        # Light's test: the a with (x*a)*y = x*(a*y) for all x, y are closed
        # under products, so the table is associative once they generate it.
        # Each new generator g lies outside the reached subgroup R, so R*g is
        # disjoint from R and at most log2(n) generators are needed.
        gens: list[int] = []
        for g in _greedy_generators(mul, identity):
            for rows in row_blocks(mul):
                # (x*g)*y against x*(g*y)
                block = mul[rows]
                bad = mul[block[:, g]] != np.take(block, mul[g], axis=1)
                if bad.any():
                    x, y = np.argwhere(bad)[0]
                    raise GroupError(
                        f"associativity fails at ({rows.start + x},{g},{y})")
            gens.append(g)
        self._store(mul, identity, inv, name)
        self.generators = tuple(gens)

    def _store(self, mul: np.ndarray, identity: int, inv: np.ndarray,
               name: str) -> None:
        self.order: int = len(mul)
        self.mul: np.ndarray = mul
        self.mul.setflags(write=False)
        self.identity: int = identity
        self.inv: np.ndarray = inv
        self.inv.setflags(write=False)
        self.name = name

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        # a checked table stores the generators of its test in __init__;
        # a direct product finds the same sequence when first asked
        return tuple(_greedy_generators(self.mul, self.identity))

    # -- basic queries -------------------------------------------------------

    def element_order(self, x: int) -> int:
        y, n = x, 1
        while y != self.identity:
            y = int(self.mul[y, x])
            n += 1
        return n

    def element_orders(self) -> list[int]:
        return [self.element_order(x) for x in range(self.order)]

    def is_abelian(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    # -- subgroups -----------------------------------------------------------

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        return Subgroup(self, elements)

    def generated_subgroup(self, gens: Iterable[int]) -> "Subgroup":
        return Subgroup(self, _closure(self.mul, [self.identity, *gens]))

    def center(self) -> "Subgroup":
        return Subgroup(self, np.flatnonzero((self.mul == self.mul.T).all(1)))

    def __repr__(self) -> str:
        tag = self.name or "FiniteGroup"
        return f"<{tag} of order {self.order}>"


# table or matrix entries that one step of a row-blocked loop handles at
# once: the group check, a closure, and the packed products of `schemes`
BLOCK_ENTRIES = 1 << 20


def row_blocks(matrix: np.ndarray,
               entries: int = BLOCK_ENTRIES) -> Iterator[slice]:
    """Consecutive row blocks of the 2-d ``matrix``, as slices, of at most
    ``entries`` entries and one row at least."""
    step = max(1, entries // matrix.shape[1])
    return (slice(start, start + step)
            for start in range(0, len(matrix), step))


def _greedy_generators(mul: np.ndarray, identity: int) -> Iterator[int]:
    """Yield the least element outside the subgroup reached so far, until
    the whole group is reached.  The subgroup is extended by each yielded
    element only when the next one is asked for, so a caller can test an
    element before it is used."""
    rng = np.arange(len(mul))
    reached = np.array([identity])
    while len(reached) < len(mul):
        g = int(np.setdiff1d(rng, reached)[0])
        yield g
        reached = _closure(mul, [*reached, g])


def _closure(mul: np.ndarray, elements: Sequence[int]) -> np.ndarray:
    """Sorted elements of the subgroup generated by ``elements``, which must
    include the identity and multiply associatively: the set is replaced by
    all its products until it stops growing."""
    reached = np.unique(elements)
    while len(reached) < len(mul):
        products = np.zeros(len(mul), dtype=bool)
        step = max(1, BLOCK_ENTRIES // len(reached))
        for start in range(0, len(reached), step):
            products[mul[np.ix_(reached[start:start + step], reached)]] = True
        if products.sum() == len(reached):
            break
        reached = np.flatnonzero(products)
    return reached


class Subgroup:
    """A validated subgroup, kept as a sorted tuple of element indices."""

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]) -> None:
        els = tuple(sorted(set(int(x) for x in elements)))
        if els and not 0 <= els[0] <= els[-1] < parent.order:
            raise GroupError(f"subgroup element outside 0..{parent.order - 1}")
        if parent.identity not in els:
            raise GroupError("subgroup must contain the identity")
        # a finite subset closed under products is closed under inverses
        outside = np.argwhere(~np.isin(parent.mul[np.ix_(els, els)], els))
        if len(outside):
            x, y = (els[i] for i in outside[0])
            raise GroupError(f"subgroup not closed at ({x},{y})")
        # closed, so a subgroup: its order divides the group's (Lagrange)
        self.parent = parent
        self.elements = els
        self.as_set = frozenset(els)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.as_set

    def __repr__(self) -> str:
        return f"<Subgroup of order {self.order}>"


def cosets(G: FiniteGroup, H: Subgroup) -> list[tuple[int, ...]]:
    """Right cosets Hg, each sorted, ordered by minimal element."""
    if H.parent is not G:
        raise GroupError("subgroup belongs to a different group")
    cols = np.sort(G.mul[list(H.elements)], axis=0)  # column g: Hg, sorted
    _, first = np.unique(cols[0], return_index=True)
    return [tuple(int(x) for x in cols[:, g]) for g in first]


# -- subset products ---------------------------------------------------------

def gre_multiply(G: FiniteGroup, xs: Sequence[int],
                 ys: Sequence[int]) -> np.ndarray:
    """The group-ring product of two subsets, as int64 counts: entry g is the
    number of pairs (x, y) in xs x ys with xy = g.  Repeated elements count
    once per occurrence.  The table is gathered by rows, then columns, and
    counted in memory order."""
    xs, ys = (np.asarray(s, dtype=np.intp) for s in (xs, ys))
    return np.bincount(G.mul[xs][:, ys].ravel("K"), minlength=G.order)


def gre_multiply_product(A: FiniteGroup, B: FiniteGroup, xs: Sequence[int],
                         ys: Sequence[int]) -> np.ndarray:
    """`gre_multiply` on A x B, with (a, b) at index a*|B| + b as in
    `direct_product`, from the factors' tables: the product of (a, b) and
    (c, d) is A.mul[a, c]*|B| + B.mul[b, d].  No A x B table is built.  The
    keys are formed a block of xs at a time, from the rows of each table
    that the block reads; each block, of keys or of rows, has at most
    BLOCK_ENTRIES cells."""
    nb = B.order
    xa, xb = np.divmod(np.asarray(xs, dtype=np.intp), nb)
    ya, yb = np.divmod(np.asarray(ys, dtype=np.intp), nb)
    counts = np.zeros(A.order * nb, dtype=np.int64)
    step = max(1, BLOCK_ENTRIES // max(len(ya), A.order, nb))
    for s in range(0, len(xa), step):
        keys = A.mul[xa[s:s + step]][:, ya] * np.int32(nb)
        keys += B.mul[xb[s:s + step]][:, yb]
        # the gathers come out in column-major order: count in memory order
        counts += np.bincount(keys.ravel("K"), minlength=len(counts))
    return counts


# -- isomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class GroupIsomorphism:
    """A validated isomorphism between two explicit groups."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __post_init__(self):
        G, H, m = self.source, self.target, self.map
        if G.order != H.order or sorted(m) != list(range(G.order)):
            raise GroupError("map is not a bijection")
        marr = np.asarray(m, dtype=np.int32)
        if not (marr[G.mul] == H.mul[np.ix_(marr, marr)]).all():
            raise GroupError("map is not a homomorphism")

    def __call__(self, x: int) -> int:
        return self.map[x]


def isomorphisms(G: FiniteGroup, H: FiniteGroup) -> Iterator[GroupIsomorphism]:
    """Yield all isomorphisms G -> H, trying every image of the generators
    whose element orders match, in lex order (meant for small orders)."""
    if G.order != H.order:
        return
    if sorted(G.element_orders()) != sorted(H.element_orders()):
        return
    gens = G.generators
    h_orders = H.element_orders()
    # express every element of G as a product of generators, breadth first
    word = {G.identity: ()}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = int(G.mul[x, g])
                if y not in word:
                    word[y] = word[x] + (gi,)
                    nxt.append(y)
        frontier = nxt
    candidates = [[h for h in range(H.order)
                   if h_orders[h] == G.element_order(g)] for g in gens]
    for images in itertools.product(*candidates):
        out = []
        for x in range(G.order):
            y = H.identity
            for gi in word[x]:
                y = int(H.mul[y, images[gi]])
            out.append(y)
        if len(set(out)) == len(out):
            try:
                yield GroupIsomorphism(G, H, tuple(out))
            except GroupError:
                pass


# -- finite fields (internal, for the Heisenberg family) ---------------------

# fixed irreducible polynomials (coefficients ascending, monic) for the small
# prime powers the constructions touch; anything else falls back to the
# lexicographically least monic irreducible, which is deterministic too.
# The element numbering of GF(p^i) and of every group over it depends on
# these choices, so they stay as they are even where they are not the least.
_IRREDUCIBLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, i) with q = p^i, or raise."""
    if q < 2:
        raise GroupError(f"{q} is not a prime power")
    # the least divisor is prime; none up to sqrt(q) means q is prime
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    i, m = 0, q
    while m % p == 0:
        m //= p
        i += 1
    if m != 1:
        raise GroupError(f"{q} is not a prime power")
    return p, i


def _base_digits(p: int, k: int) -> np.ndarray:
    """Row x holds the k base-p digits of x, least significant first."""
    return np.arange(p ** k)[:, None] // p ** np.arange(k) % p


def _poly_mul(p: int, i: int, poly: Sequence[int]) -> np.ndarray:
    """Multiplication table of F_p[X]/(poly), digit t being the coefficient
    of X^t: a*b = sum_t a_t C^t b, with C the companion matrix of poly."""
    digits = _base_digits(p, i)
    comp = np.eye(i, k=-1, dtype=np.int64)
    comp[:, -1] = -np.asarray(poly[:i])
    powers = [digits]  # powers[t][b] = digits of X^t * b
    for _ in range(1, i):
        powers.append(powers[-1] @ comp.T % p)
    stacked = np.stack(powers)
    out = np.zeros((p ** i, p ** i), dtype=np.int32)
    for s in range(i):
        out += (digits @ stacked[:, :, s] % p * p ** s).astype(np.int32)
    return out


def _gf_mul(p: int, i: int) -> np.ndarray:
    """Multiplication table of GF(p^i) modulo the fixed polynomial, else the
    least monic irreducible: the first candidate without zero divisors."""
    fixed = [_IRREDUCIBLE[(p, i)]] if (p, i) in _IRREDUCIBLE else []
    for poly in fixed + [tuple(d) + (1,) for d in _base_digits(p, i)]:
        mul = _poly_mul(p, i, poly)
        if mul[1:, 1:].all():
            return mul
    # unreachable: F_p has a monic irreducible polynomial of every degree
    # (Gauss's count), and the rows of _base_digits(p, i), each with a
    # leading 1 appended, are every monic polynomial of degree i
    raise GroupError("no irreducible polynomial found")


# -- built-in families -------------------------------------------------------

def check_order(base: int, exp: int = 1) -> int:
    """base**exp, or GroupOrderError if that exceeds GROUP_ORDER_LIMIT.  Bit
    lengths are compared first, so a huge power is never expanded."""
    if (exp * (base.bit_length() - 1) >= GROUP_ORDER_LIMIT.bit_length()
            or base ** exp > GROUP_ORDER_LIMIT):
        order = f"{base}^{exp}" if exp > 1 else f"{base}"
        raise GroupOrderError(f"group order {order} exceeds the limit "
                              f"{GROUP_ORDER_LIMIT}")
    return base ** exp


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group needs order >= 1")
    check_order(n)
    idx = np.arange(n, dtype=np.int32)
    mul = idx[:, None] + idx[None, :]
    mul %= n
    return FiniteGroup(mul, name=f"C:{n}")


def direct_product(A: FiniteGroup, B: FiniteGroup, name: str = "") -> FiniteGroup:
    """A x B with (a, b) at index a*|B| + b and the componentwise product.

    The table is not checked again: the componentwise product of two
    checked groups is associative, its identity is (e_A, e_B) and the
    inverse of (a, b) is (a^-1, b^-1), so both are read off the factors.
    ``generators`` is computed on first use, the same greedy sequence the
    check would find.
    """
    na, nb = A.order, B.order
    check_order(na * nb)
    mul = (A.mul[:, None, :, None] * nb + B.mul[None, :, None, :]).reshape(
        na * nb, na * nb)
    inv = (A.inv[:, None] * nb + B.inv[None, :]).reshape(na * nb)
    P = FiniteGroup.__new__(FiniteGroup)
    P._store(mul, A.identity * nb + B.identity, inv,
             name or f"Prod:{A.name},{B.name}")
    return P


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z/p)^k, also the additive group of GF(p^k), as C_p and k - 1 direct
    products with it.  Each product appends C_p as the least significant
    base-p digit, so x + y adds the digits of x and y mod p.  Only C_p's
    table is checked, as a direct product of checked groups is a group.
    The guards come first, so a refused spec allocates no table."""
    if k < 1:
        raise GroupError("rank must be >= 1")
    check_order(p, k)
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    cp = cyclic_group(p)
    G = functools.reduce(direct_product, [cp] * (k - 1), cp)
    G.name = f"EA:{p}:{k}"
    return G


def heisenberg_group(q: int, r: int) -> FiniteGroup:
    """Tuples (a, b, c) in F_q^r x F_q^r x F_q with
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a.b'), indexed by the base-q
    digits a, b, c, most significant first.  On base-p digits
    (a+a', b+b', c+c') is the addition of EA:p:(2r+1)i, q = p^i, whose
    table this reads; a.b' is the index of (0, 0, a.b').  The tables are
    read with flat `take`s, a block of rows of at most BLOCK_ENTRIES
    entries at a time; every flat index is below n^2 <= 2^28, so int32.
    The product table is checked.
    """
    if r < 1:
        raise GroupError("r must be >= 1")
    n = check_order(q, 2 * r + 1)
    p, i = prime_power(q)
    add = elementary_abelian(p, (2 * r + 1) * i).mul
    flat_add, flat_fmul = add.ravel(), _gf_mul(p, i).ravel()
    x = np.arange(n, dtype=np.int32)
    mul = np.empty_like(add)
    for rows in row_blocks(add):
        dot = np.zeros_like(add[rows])
        for t in range(r):
            a_t = x[rows] // q ** (2 * r - t) % q
            b_t = x // q ** (r - t) % q
            dot *= n
            dot += flat_fmul.take(a_t[:, None] * q + b_t)
            dot = flat_add.take(dot)
        mul[rows] = flat_add.take(add[rows] * n + dot)
    return FiniteGroup(mul, name=f"Heis:{q}:{r}")


def central_product_q8(r: int) -> FiniteGroup:
    """Central product of r copies of Q8, built from its quadratic form.

    Bit 0 of an element is its sign and bits 2t+1, 2t+2 are the axis bits
    (x0, x1) of factor t, with 1, i, j, k as 00, 10, 01, 11, so Q8cp:1 is
    numbered 1, -1, i, -i, j, -j, k, -k.  The axes multiply by XOR and the
    sign picks up the cocycle beta(x, y) = sum_t x0 y0 + x1 y1 + x1 y0
    mod 2.  Its diagonal g^2 = sum_t x0^2 + x0 x1 + x1^2 is a quadratic
    form of Arf invariant r mod 2.
    """
    if r < 1:
        raise GroupError("r must be >= 1")
    x = np.arange(check_order(2, 2 * r + 1), dtype=np.int32)
    mul = x[:, None] ^ x
    for t in range(r):
        x0 = ((x >> 2 * t + 1) & 1).astype(bool)
        x1 = ((x >> 2 * t + 2) & 1).astype(bool)
        mul ^= np.outer(x0, x0) ^ np.outer(x1, x1 ^ x0)
    return FiniteGroup(mul, name=f"Q8cp:{r}")


def generalized_dihedral(G: FiniteGroup) -> FiniteGroup:
    """<G, u> with u of order 2 inverting every element; abelian G only.

    Elements are enumerated as G followed by Gu, so index g is g and
    index |G|+g is the element g*u.
    """
    if not G.is_abelian():
        raise GroupError("generalized dihedral needs an abelian group")
    n = G.order
    check_order(2 * n)
    mul = np.empty((2 * n, 2 * n), dtype=np.int32)
    # (g)(h) = gh ; (g)(hu) = (gh)u ; (gu)(h) = (g h^-1)u ; (gu)(hu) = g h^-1
    mul[:n, :n] = G.mul
    mul[:n, n:] = G.mul + n
    ginv = G.mul[:, G.inv]
    mul[n:, :n] = ginv + n
    mul[n:, n:] = ginv
    return FiniteGroup(mul, name=f"GenDih:{G.name}" if G.name else "")


def build_family(spec: str) -> FiniteGroup:
    """Build a named group from a family spec string, whose numbers are
    spelled as `digit_fault` allows."""
    if spec.count("GenDih:") + spec.count("Prod:") > SPEC_HEAD_LIMIT:
        raise GroupError(f"spec has more than {SPEC_HEAD_LIMIT} GenDih and "
                         f"Prod heads")
    head, _, rest = spec.partition(":")
    if head == "C":
        return cyclic_group(*_int_parts(rest, 1, "C:<n>"))
    if head == "EA":
        p, k = _int_parts(rest, 2, "EA:<p>:<k>")
        return elementary_abelian(p, k)
    if head == "Heis":
        q, r = _int_parts(rest, 2, "Heis:<q>:<r>")
        return heisenberg_group(q, r)
    if head == "Q8cp":
        return central_product_q8(*_int_parts(rest, 1, "Q8cp:<r>"))
    if head == "GenDih":
        if not rest:
            raise GroupError("GenDih needs an inner spec")
        return generalized_dihedral(build_family(rest))
    if head == "Prod":
        # each Prod head has one comma, after its left factor, and heads
        # outnumber commas before any earlier one: so the left factor ends
        # at the first comma with as many heads before it as commas
        parts = rest.split(",")
        heads = itertools.accumulate(p.count("Prod:") for p in parts[:-1])
        cut = next((c for c, n in enumerate(heads, 1) if n < c), None)
        if cut:
            left, right = ",".join(parts[:cut]), ",".join(parts[cut:])
            try:
                return direct_product(build_family(left), build_family(right),
                                      name=f"Prod:{left},{right}")
            except GroupOrderError:
                raise
            except GroupError:
                pass
        raise GroupError(f"cannot parse product spec {spec!r}")
    raise GroupError(f"unknown family spec {spec!r}")


def digit_fault(token: str | bytes, noun: str = "token") -> str | None:
    """None for 1 to MAX_DIGITS ASCII digits, the one spelling of a number
    in every input, files and specs alike, so int() reads it at once and
    it fits int64; otherwise the fault of ``token``, naming ``noun``."""
    if not (token.isascii() and token.isdigit()):
        return f"non-integer {noun}"
    if len(token) > MAX_DIGITS:
        return f"{noun} of more than {MAX_DIGITS} digits"
    return None


def _int_parts(s: str, n: int, usage: str) -> list[int]:
    parts = s.split(":")
    if len(parts) != n or any(map(digit_fault, parts)):
        raise GroupError(f"bad spec, expected {usage}")
    return [int(x) for x in parts]
