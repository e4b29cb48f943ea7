"""Group tables built from base-p digit arithmetic and array operations,
checked against the per-element loops they replaced and against pinned
table digests."""

import hashlib
import random
from typing import Sequence

import numpy as np
import pytest

from higman.groups import (_IRREDUCIBLE, FiniteGroup, GroupError, Subgroup,
                           _gf_mul, build_family, cosets, elementary_abelian)

from conftest import cyclic_subgroups


class _ReferenceGF:
    """GF(p^i) by per-element digit loops and polynomial division."""

    def __init__(self, p: int, i: int) -> None:
        self.p, self.i, self.q = p, i, p ** i
        if i == 1:
            self.poly = None
        else:
            poly = _IRREDUCIBLE.get((p, i))
            if poly is None or not self._irreducible(poly):
                poly = self._least_irreducible()
            self.poly = poly

    def _digits(self, x: int, n: int | None = None) -> list[int]:
        out = []
        for _ in range(self.i if n is None else n):
            out.append(x % self.p)
            x //= self.p
        return out

    def _encode(self, digits: Sequence[int]) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d % self.p
        return out

    def add(self, x: int, y: int) -> int:
        return self._encode([a + b for a, b in zip(self._digits(x),
                                                   self._digits(y))])

    def mul(self, x: int, y: int) -> int:
        if self.i == 1:
            return (x * y) % self.p
        a, b = self._digits(x), self._digits(y)
        prod = [0] * (2 * self.i - 1)
        for ai, av in enumerate(a):
            for bi, bv in enumerate(b):
                prod[ai + bi] += av * bv
        for d in range(len(prod) - 1, self.i - 1, -1):
            c = prod[d] % self.p
            if c:
                for j in range(self.i):
                    prod[d - self.i + j] -= c * self.poly[j]
            prod[d] = 0
        return self._encode(prod[:self.i])

    def _poly_mod(self, num: list[int], den: Sequence[int]) -> list[int]:
        num = [c % self.p for c in num]
        while len(num) > len(den) - 1:
            lead = num[-1]
            if lead:
                for j in range(len(den)):
                    k = len(num) - len(den) + j
                    num[k] = (num[k] - lead * den[j]) % self.p
            num.pop()
        return num

    def _irreducible(self, poly: Sequence[int]) -> bool:
        if poly[-1] != 1 or len(poly) != self.i + 1:
            return False
        for d in range(1, self.i // 2 + 1):
            for cand in range(self.p ** d):
                if not any(self._poly_mod(list(poly),
                                          self._digits(cand, d) + [1])):
                    return False
        return True

    def _least_irreducible(self) -> tuple[int, ...]:
        for tail in range(self.p ** self.i):
            poly = tuple(self._digits(tail)) + (1,)
            if self._irreducible(poly):
                return poly
        raise AssertionError("no irreducible polynomial")

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        els = range(self.q)
        return (np.array([[self.add(x, y) for y in els] for x in els]),
                np.array([[self.mul(x, y) for y in els] for x in els]))


FALLBACK_FIELDS = [(3, 4), (2, 7), (5, 3), (11, 2)]
PRIME_FIELDS = [(p, 1) for p in (2, 3, 5, 7)]


@pytest.mark.parametrize("p,i", sorted(_IRREDUCIBLE) + PRIME_FIELDS
                         + FALLBACK_FIELDS)
def test_field_tables_match_digit_loops(p, i):
    add, mul = _ReferenceGF(p, i).tables()
    assert (elementary_abelian(p, i).mul == add).all()
    assert (_gf_mul(p, i) == mul).all()


EA_GRID = ([(2, k) for k in range(1, 11)] + [(3, k) for k in range(1, 7)]
           + [(5, k) for k in range(1, 4)])


@pytest.mark.parametrize("p,k", EA_GRID)
def test_digit_add_matches_digit_formula(p, k):
    # the digit-at-a-time table against one pass of % p per digit
    digits = np.arange(p ** k)[:, None] // p ** np.arange(k) % p
    want = sum((d[:, None] + d[None, :]) % p * p ** t
               for t, d in enumerate(digits.T))
    got = elementary_abelian(p, k).mul
    assert got.dtype == np.int32 and (got == want).all()


@pytest.mark.parametrize("p,k", EA_GRID)
def test_elementary_abelian_checks_only_its_cyclic_factor(p, k, monkeypatch):
    # EA:p:k is C_p and k - 1 direct products with it: the one table
    # checked is C_p's, and a checked copy of the product agrees with it
    checked_names = []
    init = FiniteGroup.__init__

    def counted(group, mul, name=""):
        checked_names.append(name)
        init(group, mul, name)
    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    G = elementary_abelian(p, k)
    monkeypatch.undo()
    assert checked_names == [f"C:{p}"] and G.name == f"EA:{p}:{k}"
    copy = FiniteGroup(G.mul)
    assert copy.identity == G.identity and copy.generators == G.generators
    assert G.inv.dtype == copy.inv.dtype and (G.inv == copy.inv).all()


def test_fixed_polynomials_kept_where_not_least():
    # the numbering of GF(9), GF(25), GF(49) and GF(64) depends on these
    for field in [(3, 2), (5, 2), (7, 2), (2, 6)]:
        ref = _ReferenceGF(*field)
        assert ref.poly == _IRREDUCIBLE[field]
        assert ref.poly != ref._least_irreducible()


# sha256 of mul.astype('<i4').tobytes(), first 16 hex digits, as built by the
# per-element loops these builders replaced; Q8cp:r as built by r - 1 rounds
# of direct product and quotient by the identified central involutions;
# Heis:3:3 and Heis:5:1 as built from whole-table gathers, before the row
# blocks: Heis:3:3, at 2187^2 entries, spans five of them
PINNED_DIGESTS = {
    "Heis:3:1": "5a006f1ce2a029a0",
    "Heis:3:2": "8c9c1e8cfc4a07f7",
    "Heis:3:3": "c3e59626e0e3ddec",
    "Heis:5:1": "fe11097c4957490b",
    "Heis:4:1": "dc7384de1f7b670a",
    "Heis:9:1": "496a272739f2334d",
    "EA:3:3": "fccb855f84f4a7e4",
    "EA:3:6": "31e15af675efac89",
    "Q8cp:1": "ad417e51a0214d79",
    "Q8cp:2": "6136f0eae196adeb",
    "Q8cp:3": "76ff313ff3c8f160",
    "Q8cp:4": "d43ed90b3801b823",
    "Q8cp:5": "4850106a8d130261",
    "Prod:Heis:3:2,C:4": "675a3fa018db18ce",
}


@pytest.mark.parametrize("spec", sorted(PINNED_DIGESTS))
def test_family_tables_pinned(spec):
    mul = build_family(spec).mul.astype("<i4").tobytes()
    assert hashlib.sha256(mul).hexdigest()[:16] == PINNED_DIGESTS[spec]


@pytest.mark.parametrize("spec", [
    "C:200000", "Heis:81:1", "Heis:3:1000000000", "EA:2:15",
    "EA:1000000007:2", "Q8cp:7", "Prod:Heis:3:3,C:8", "Prod:C:200000,C:2",
    "Prod:C:2,Heis:81:1"])
def test_order_limit_refused_before_allocation(spec):
    with pytest.raises(GroupError, match="exceeds the limit"):
        build_family(spec)



def _loop_cosets(G, H):
    seen, blocks = set(), []
    for g in range(G.order):
        if g not in seen:
            block = tuple(sorted(int(G.mul[h, g]) for h in H.elements))
            seen.update(block)
            blocks.append(block)
    return sorted(blocks, key=lambda b: b[0])


@pytest.mark.parametrize("spec", ["Q8cp:2", "Heis:3:1", "GenDih:C:6",
                                  "Prod:C:2,C:4", "Prod:Q8cp:1,C:3"])
def test_subgroup_tables_match_element_loops(spec):
    G = build_family(spec)
    n = G.order
    center = [x for x in range(n)
              if all(G.mul[x, y] == G.mul[y, x] for y in range(n))]
    assert G.center().elements == tuple(center)
    for H in cyclic_subgroups(G):
        assert cosets(G, H) == _loop_cosets(G, H)
    rng = random.Random(7)
    for _ in range(200):
        els = {G.identity} | {x for x in range(n) if rng.random() < 0.1}
        closed = all(int(G.mul[x, y]) in els for x in els for y in els)
        try:
            Subgroup(G, els)
        except GroupError as exc:
            assert not closed and "not closed" in str(exc)
        else:
            assert closed
