"""Exact arithmetic in real quadratic extensions of the rationals.

A value is four Python integers: (a + b*sqrt(D)) / den, with

* den > 0 and gcd(a, b, den) = 1,
* D a square-free nonnegative integer,
* b = 0 exactly when D = 0 (a rational carries no radical).

These invariants make the form canonical, so equality and hashing are
structural on the integers.  The public constructor takes rational a, b and
any D >= 0 and normalizes once: square factors of D go into b, and D = 1
collapses to a rational.  Every arithmetic result is built from integers
over the operands' already square-free D, with one sign flip and one gcd;
no Fraction and no factorization run there.  Nothing here ever rounds,
and Python integers do not overflow.  The rational coefficients are read
as the Fraction properties `a` and `b`, from which `str`, `repr` and
`float` are computed.  An exact kernel that works on the integers
themselves reads them with `integers` and turns each result into one
canonical value with `from_integers`.
"""

from __future__ import annotations

import math
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


def _new(a: int, b: int, den: int, D: int) -> QuadraticNumber:
    """(a + b*sqrt(D)) / den for integers with den != 0 and D square-free,
    brought to the canonical form."""
    if den < 0:
        a, b, den = -a, -b, -den
    if not b:
        D = 0
    g = math.gcd(a, b, den)
    if g != 1:
        a //= g
        b //= g
        den //= g
    x = object.__new__(QuadraticNumber)
    x._a = a
    x._b = b
    x._den = den
    x.D = D
    return x


@total_ordering
class QuadraticNumber:
    """An exact element (a + b*sqrt(D))/den of Q(sqrt(D)), D square-free."""

    __slots__ = ("_a", "_b", "_den", "D")

    def __init__(self, a: _FracLike = 0, b: _FracLike = 0, D: int = 0) -> None:
        if type(a) is int and type(b) is int:  # the common case: no Fraction
            den = 1
        else:
            a, b = Fraction(a), Fraction(b)
            den = math.lcm(a.denominator, b.denominator)
            a = a.numerator * (den // a.denominator)
            b = b.numerator * (den // b.denominator)
        if D < 0:
            raise ValueError("D must be nonnegative")
        if b and D > 0:
            s, D = square_free_decomposition(D)
            b *= s
            if D == 1:
                a, b, D = a + b, 0, 0
        else:
            b, D = 0, 0
        g = math.gcd(a, b, den)
        self._a: int = a // g
        self._b: int = b // g
        self._den: int = den // g
        self.D: int = D

    # (a + b*sqrt(D)) / den from integers, den != 0 and D square-free (as
    # `integers` gives them), normalized once: for exact kernels that work
    # on the integers and build one value per result
    from_integers = staticmethod(_new)

    def integers(self) -> tuple[int, int, int, int]:
        """The canonical integers (a, b, den, D) of (a + b*sqrt(D)) / den."""
        return self._a, self._b, self._den, self.D

    @classmethod
    def sqrt(cls, x: _FracLike) -> QuadraticNumber:
        """Exact square root of a nonnegative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative radicand")
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = square_free_decomposition(x.numerator * x.denominator)
        if d == 1:
            return _new(s, 0, x.denominator, 0)
        return _new(0, s, x.denominator, d)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(D)."""
        return Fraction(self._b, self._den)

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_integer(self) -> bool:
        return self._b == 0 and self._den == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self._a

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> QuadraticNumber | None:
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return _new(other.numerator, 0, other.denominator, 0)
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
        return _new(self._a * o._den + o._a * self._den,
                    self._b * o._den + o._b * self._den, self._den * o._den, D)

    __radd__ = __add__

    def __neg__(self) -> QuadraticNumber:
        return _new(-self._a, -self._b, self._den, self.D)

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
        return _new(self._a * o._a + self._b * o._b * D,
                    self._a * o._b + self._b * o._a, self._den * o._den, D)

    __rmul__ = __mul__

    def inverse(self) -> QuadraticNumber:
        # den / (a + b sqrt D) = den (a - b sqrt D) / (a^2 - b^2 D)
        norm = self._a * self._a - self._b * self._b * self.D
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return _new(self._den * self._a, -self._den * self._b, norm, self.D)

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
        """Sign of the real value, computed exactly (den > 0)."""
        a, b = self._a, self._b
        if b == 0:
            return (a > 0) - (a < 0)
        sign_b = 1 if b > 0 else -1
        if a == 0 or (a > 0) == (b > 0):
            return sign_b
        # opposite signs; a^2 != b^2 D as D > 1 is square-free, so the
        # larger square decides
        return -sign_b if a * a > b * b * self.D else sign_b

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._a == o._a and self._b == o._b and self._den == o._den
                and self.D == o.D)

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __abs__(self) -> QuadraticNumber:
        return -self if self.sign() < 0 else self

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._den, self.D))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.D ** 0.5

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        root = f"√{self.D}"
        bs = "" if b == 1 else ("-" if b == -1 else str(b))
        if a == 0:
            return f"{bs}{root}"
        sign = "+" if b > 0 else "-"
        mag = abs(b)
        ms = "" if mag == 1 else str(mag)
        return f"{a}{sign}{ms}{root}"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a!r}, {self.b!r}, {self.D})"


def quadratic_roots(b: Fraction, c: Fraction) -> tuple[QuadraticNumber, QuadraticNumber]:
    """Exact roots of x^2 + b*x + c = 0 (requires a nonnegative discriminant)."""
    disc = b * b - 4 * c
    if disc < 0:
        raise ValueError(f"negative discriminant {disc}")
    s = QuadraticNumber.sqrt(disc)
    return (QuadraticNumber(-b) + s) / 2, (QuadraticNumber(-b) - s) / 2
