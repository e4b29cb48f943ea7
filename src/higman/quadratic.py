"""Exact arithmetic in real quadratic extensions of the rationals.

A value is stored as a + b*sqrt(D) with a, b rational and D a square-free
nonnegative integer.  D is normalized on construction (square factors are
pulled into b; D = 1 collapses to a rational with D = 0), so equality is
structural on the triple (a, b, D).  Nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

_FracLike = int | Fraction


def square_free_decomposition(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d square-free, for n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, d, p = 1, 1, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


@total_ordering
class QuadraticNumber:
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
    def sqrt(cls, x: _FracLike) -> QuadraticNumber:
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

    def _coerce(self, other) -> QuadraticNumber | None:
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other)
        return None

    def _join(self, other: QuadraticNumber) -> int:
        """Common D for a binary operation; mixing two radicals is an error."""
        if self.D == 0 or other.D == 0:
            return self.D or other.D
        if self.D != other.D:
            raise ValueError(f"incompatible radicals sqrt({self.D}), sqrt({other.D})")
        return self.D

    def __add__(self, other) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._join(o)
        return QuadraticNumber(self.a + o.a, self.b + o.b, D)

    __radd__ = __add__

    def __neg__(self) -> QuadraticNumber:
        return QuadraticNumber(-self.a, -self.b, self.D)

    def __sub__(self, other) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> QuadraticNumber:
        return (-self) + other

    def __mul__(self, other) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._join(o)
        return QuadraticNumber(self.a * o.a + self.b * o.b * D,
                               self.a * o.b + self.b * o.a, D)

    __rmul__ = __mul__

    def inverse(self) -> QuadraticNumber:
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return QuadraticNumber(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> QuadraticNumber:
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

    def __abs__(self) -> QuadraticNumber:
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


def quadratic_roots(b: Fraction, c: Fraction) -> tuple[QuadraticNumber, QuadraticNumber]:
    """Exact roots of x^2 + b*x + c = 0 (requires a nonnegative discriminant)."""
    disc = b * b - 4 * c
    if disc < 0:
        raise ValueError(f"negative discriminant {disc}")
    s = QuadraticNumber.sqrt(disc)
    return (QuadraticNumber(-b) + s) / 2, (QuadraticNumber(-b) - s) / 2
