import random
from fractions import Fraction

import mpmath
import pytest

from siegeleis.arith import divisors, moebius
from siegeleis.cyclotomic import Cyclotomic, RootU, cyclotomic_polynomial
from siegeleis.scalars import Exact, mp_workdps, to_mpc


def test_rootu_normalization_and_products():
    assert RootU(Fraction(5, 4)).t == Fraction(1, 4)
    assert RootU(Fraction(1, 3)) * RootU(Fraction(2, 3)) == RootU.one()
    assert (RootU(Fraction(1, 8)) ** 4).t == Fraction(1, 2)
    assert RootU(Fraction(1, 2)).as_fraction() == -1
    with pytest.raises(ValueError):
        RootU(Fraction(1, 3)).as_fraction()


def test_cyclotomic_polynomial():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


def _poly_divide_reference(num: list, den: list) -> list:
    """Long division over Q, one Fraction quotient per step; remainder must vanish."""
    num = [Fraction(c) for c in num]
    terms = [(j, dj) for j, dj in enumerate(den) if dj]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = num[i + len(den) - 1] / den[-1]
        if c:
            for j, dj in terms:
                num[i + j] -= c * dj
    assert not any(num[: len(den) - 1])
    return out


def _cyclotomic_polynomial_reference(n: int) -> tuple:
    """Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), multiplied and divided over Q."""
    poly = [Fraction(1)]
    below = []
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            # times x^d - 1: shift by d, less the polynomial itself
            poly = [-c for c in poly] + [Fraction(0)] * d
            for i, c in enumerate(poly[: len(poly) - d]):
                poly[i + d] -= c
        elif mu == -1:
            below.append([Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)])
    for den in below:
        poly = _poly_divide_reference(poly, den)
    return tuple(poly)


def test_integer_cyclotomic_polynomials_match_fraction_reference():
    for n in range(1, 301):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi)
        assert phi[-1] == 1
        assert phi == _cyclotomic_polynomial_reference(n)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 301):
        prod = [1]
        for d in divisors(n):
            out = [0] * (len(prod) + len(cyclotomic_polynomial(d)) - 1)
            for j, c in enumerate(cyclotomic_polynomial(d)):
                if c:
                    for i, a in enumerate(prod):
                        out[i + j] += a * c
            prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_relations_collapse():
    # 1 + zeta_3 + zeta_3^2 = 0 canonically
    z = Cyclotomic.zeta_power(3, 1)
    total = 1 + z + z * z
    assert total.is_rational() and total.as_fraction() == 0


def test_field_inverse():
    rng = random.Random(9)
    for n in (3, 4, 5, 8, 12):
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            x = Cyclotomic(n, coeffs)
            if x == 0 or not any(x.c):
                continue
            prod = x * x.inverse()
            assert prod.is_rational() and prod.as_fraction() == 1


def test_mixed_order_arithmetic():
    a = Cyclotomic.zeta_power(3, 1)
    b = Cyclotomic.zeta_power(4, 1)
    with mp_workdps():
        lhs = to_mpc(a * b)
        rhs = to_mpc(a) * to_mpc(b)
        assert abs(lhs - rhs) < mpmath.mpf(10) ** -40


def test_conjugate():
    x = Cyclotomic.zeta_power(5, 2) + 3
    with mp_workdps():
        assert abs(to_mpc(x.conjugate()) - mpmath.conj(to_mpc(x))) < mpmath.mpf(10) ** -40


def test_exact_scalar_algebra():
    assert Exact.sqrt(12) == Exact(Fraction(2), 0, 3)
    y = Exact.sqrt(3) * Exact.sqrt(3)
    assert y.is_rational() and y.as_fraction() == 3
    z = Exact.pi(2) * Exact.of(Fraction(1, 6))  # zeta(2)
    q = Exact.pi(4) / z / z * Exact.of(Fraction(1, 36))
    assert q.is_rational() and q.as_fraction() == 1
    with pytest.raises(ValueError):
        (Exact.pi(1) + Exact.of(1))
    with mp_workdps():
        val = to_mpc(Exact(Fraction(1, 2), 1, 2))  # pi sqrt(2) / 2
        assert abs(val - mpmath.pi * mpmath.sqrt(2) / 2) < mpmath.mpf(10) ** -40
