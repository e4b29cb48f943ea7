import random
from fractions import Fraction

import pytest

from higman.quadratic import (QuadraticNumber, quadratic_roots,
                              square_free_decomposition)

QN = QuadraticNumber


def test_square_free_decomposition():
    assert square_free_decomposition(0) == (0, 1)
    assert square_free_decomposition(1) == (1, 1)
    assert square_free_decomposition(12) == (2, 3)
    assert square_free_decomposition(16) == (4, 1)
    assert square_free_decomposition(45) == (3, 5)


def test_normalization():
    assert QN(0, 1, 12) == QN(0, 2, 3)
    assert QN(3, 2, 1) == QN(5)
    assert QN(3, 0, 7) == QN(3)
    assert QN(1, 5, 0) == QN(1)          # b*sqrt(0) vanishes
    assert QN(0, Fraction(1, 2), 8) == QN(0, 1, 2)


def test_integers_round_trip():
    # from_integers takes any integers over a square-free D and normalizes
    # them: sign of den, gcd, and D = 0 for a rational
    rng = random.Random(3)
    for _ in range(200):
        x = QN(Fraction(rng.randint(-30, 30), rng.randint(1, 20)),
               Fraction(rng.randint(-30, 30), rng.randint(1, 20)),
               rng.choice((0, 2, 3, 8, 12)))
        assert QN.from_integers(*x.integers()) == x
        a, b, den, D = x.integers()
        k = rng.choice((-3, -1, 2, 7))
        assert QN.from_integers(k * a, k * b, k * den, D) == x
    assert QN.from_integers(2, 4, -6, 3).integers() == (-1, -2, 3, 3)
    assert QN.from_integers(4, 0, 6, 5).integers() == (2, 0, 3, 0)


def test_sqrt():
    assert QN.sqrt(4) == QN(2)
    assert QN.sqrt(Fraction(16, 4)) == QN(2)
    assert QN.sqrt(8) == QN(0, 2, 2)
    assert QN.sqrt(Fraction(1, 2)) == QN(0, Fraction(1, 2), 2)
    assert QN.sqrt(0) == QN(0)
    with pytest.raises(ValueError):
        QN.sqrt(-1)
    x = QN.sqrt(Fraction(18, 5))
    assert x * x == QN(Fraction(18, 5))


def test_arithmetic_identities():
    rng = random.Random(7)
    for _ in range(200):
        D = rng.choice([2, 3, 5, 7])
        a = QN(rng.randint(-9, 9), rng.randint(-9, 9), D)
        b = QN(rng.randint(-9, 9), rng.randint(-9, 9), D)
        c = QN(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               rng.randint(-9, 9), D)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        if b:
            assert (a / b) * b == a
        assert float(a + b) == pytest.approx(float(a) + float(b))


def test_incompatible_radicals():
    with pytest.raises(ValueError):
        QN(0, 1, 2) + QN(0, 1, 3)
    # rationals mix with anything
    assert QN(1) + QN(0, 1, 3) == QN(1, 1, 3)


def test_exact_ordering():
    assert QN(1, 1, 2) > QN(2)           # 1 + sqrt2 = 2.414...
    assert QN(0, 1, 2) < QN(0, 2, 2)
    assert QN(7, -4, 3) > QN(0)          # 7 - 4*sqrt3 = 0.07...
    assert QN(7, -5, 2) < QN(0)          # 7 - 5*sqrt2 = -0.07...
    assert abs(QN(0, -2, 5)) == QN(0, 2, 5)
    assert QN(3, 1, 2).sign() == 1
    assert QN(-3, -1, 2).sign() == -1


def test_integrality_predicates():
    assert QN(4).is_integer
    assert not QN(Fraction(1, 2)).is_integer
    assert not QN(1, 1, 2).is_rational
    assert QN(6).as_integer() == 6
    with pytest.raises(ValueError):
        QN(0, 1, 2).as_fraction()


def test_inverse():
    x = QN(1, 1, 2)
    assert x * x.inverse() == QN(1)
    assert (x * x).inverse() == x.inverse() * x.inverse()
    assert x.inverse() == QN(-1, 1, 2)
    with pytest.raises(ZeroDivisionError):
        QN(0).inverse()


def test_str_format():
    assert str(QN(1, 1, 2)) == "1+√2"
    assert str(QN(0, -2, 3)) == "-2√3"
    assert str(QN(Fraction(1, 2))) == "1/2"
    assert str(QN(2, -1, 5)) == "2-√5"


def test_quadratic_roots():
    hi, lo = quadratic_roots(Fraction(-2), Fraction(-8))
    assert (hi, lo) == (QN(4), QN(-2))
    hi, lo = quadratic_roots(Fraction(0), Fraction(-8))
    assert hi == QN(0, 2, 2) and lo == QN(0, -2, 2)
    with pytest.raises(ValueError):
        quadratic_roots(Fraction(0), Fraction(1))
    # Vieta, including irrational roots
    b, c = Fraction(3, 2), Fraction(-5, 4)
    hi, lo = quadratic_roots(b, c)
    assert hi + lo == QN(-b)
    assert hi * lo == QN(c)


def test_exact_far_past_machine_integers():
    # (1+√2)^n = H_n + P_n √2 with the Pell numbers P_n = 2P_{n-1} + P_{n-2}
    # and H_n = P_n + P_{n-1}
    pell = [0, 1]
    while len(pell) <= 200:
        pell.append(2 * pell[-1] + pell[-2])
    unit = QN(1, 1, 2)
    x = QN(1)
    for _ in range(200):
        x = x * unit
    assert pell[200] > 2 ** 100
    assert x == QN(pell[200] + pell[199], pell[200], 2)
    assert x.b == pell[200] and x.sign() == 1 and x > pell[200]
    for _ in range(200):
        x = x / unit
    assert x == 1 and x.is_integer and x.as_integer() == 1
    # the norm H_n^2 - 2 P_n^2 = (-1)^n = 1
    y = QN(pell[200] + pell[199], pell[200], 2)
    assert y * QN(pell[200] + pell[199], -pell[200], 2) == 1
    assert y.inverse() == QN(pell[200] + pell[199], -pell[200], 2)


def test_traced_operators_stay_on_the_class():
    # the benchmark's tracer wraps these eight names in the class __dict__
    # and counts only the outermost call, so __sub__ must go through __add__
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        assert name in QN.__dict__, name
