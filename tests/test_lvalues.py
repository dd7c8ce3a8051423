import math
from fractions import Fraction

import mpmath
import pytest

from siegeleis import lvalues
from siegeleis.arith import fundamental_discriminant
from siegeleis.characters import DirichletCharacter, kronecker_character
from siegeleis.lvalues import (
    bernoulli,
    bernoulli_polynomial,
    cohen_h,
    dirichlet_l,
    generalized_bernoulli,
    l_quadratic_exact,
    zeta,
    zeta_series_tail_bound,
)
from siegeleis.scalars import Exact, get_precision, mp_workdps, set_precision, to_mpc


def test_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9))


def test_zeta_exact():
    assert zeta(2) == Exact(Fraction(1, 6), 2)
    assert zeta(4) == Exact(Fraction(1, 90), 4)
    assert zeta(6) == Exact(Fraction(1, 945), 6)
    with pytest.raises(ValueError):
        zeta(1)


def test_zeta_numeric_vs_exact():
    with mp_workdps():
        for k in (2, 4, 6, 8, 10, 20):
            assert abs(to_mpc(zeta(k)) - mpmath.zeta(k)) < mpmath.mpf(10) ** -50
        assert abs(zeta(3) - mpmath.zeta(3)) == 0  # same code path


def test_series_tail_bound():
    # truncation at n = T contributes < T^(1-k)/(k-1)
    with mp_workdps():
        for k in (2, 3, 4):
            for terms in (10, 100, 1000):
                partial, bound = zeta_series_tail_bound(k, terms)
                err = abs(mpmath.zeta(k) - partial)
                assert err < float(bound)


def test_dirichlet_l_catalan():
    with mp_workdps():
        l = dirichlet_l(2, kronecker_character(-4))
        assert abs(l - mpmath.catalan) < mpmath.mpf(10) ** -40


def test_dirichlet_l_imprimitive_euler_factor():
    # trivial character mod 2: L(k) = (1 - 2^-k) zeta(k)
    triv2 = DirichletCharacter(2, 1)
    with mp_workdps():
        for k in (2, 3, 5):
            lv = dirichlet_l(k, triv2)
            want = (1 - mpmath.mpf(2) ** -k) * mpmath.zeta(k)
            assert abs(to_mpc(lv) - want) < mpmath.mpf(10) ** -40


def test_dirichlet_l_induced_characters():
    # induced = primitive times the finite Euler product, moduli <= 24
    from siegeleis.characters import characters_mod

    with mp_workdps():
        for N in range(2, 25):
            for eta in characters_mod(N):
                if eta.is_primitive():
                    continue
                core = eta.primitive_core()
                k = 3
                whole = to_mpc(dirichlet_l(k, eta))
                val = to_mpc(dirichlet_l(k, core))
                for p in eta.lost_euler_primes():
                    val *= 1 - to_mpc(core(p)) / mpmath.mpf(p) ** k
                assert abs(whole - val) < mpmath.mpf(10) ** -40


def test_l_quadratic_exact_vs_numeric():
    with mp_workdps():
        for D, n in [(-4, 1), (-4, 3), (-3, 3), (5, 2), (-7, 5), (8, 4), (12, 2), (-8, 3), (1, 4)]:
            ex = to_mpc(l_quadratic_exact(n, D))
            if n >= 2:
                num = to_mpc(dirichlet_l(n, kronecker_character(D)))
                assert abs(ex - num) < mpmath.mpf(10) ** -40
        assert abs(to_mpc(l_quadratic_exact(1, -4)) - mpmath.pi / 4) < mpmath.mpf(10) ** -40


def test_l_quadratic_parity_guard():
    with pytest.raises(ValueError):
        l_quadratic_exact(2, -4)


def test_generalized_bernoulli():
    assert generalized_bernoulli(3, kronecker_character(-3)) == Fraction(2, 3)
    assert generalized_bernoulli(3, kronecker_character(-4)) == Fraction(3, 2)
    assert bernoulli_polynomial(3, Fraction(1, 3)) == Fraction(1, 27)


def test_bernoulli_polynomial_matches_sum():
    for n in range(13):
        for x in (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(5, 2), Fraction(22, 9)):
            want = sum(math.comb(n, j) * bernoulli(j) * x ** (n - j) for j in range(n + 1))
            assert bernoulli_polynomial(n, x) == want


def test_generalized_bernoulli_matches_definition():
    # B_(n, chi) = f^(n-1) sum_a chi(a) B_n(a/f), evaluated here residue by
    # residue, for D = 1 and every fundamental |D| <= 400
    fundamental = [D for D in range(-400, 401) if D % 4 in (0, 1) and D and fundamental_discriminant(D).f == 1]
    for D in fundamental:
        chi = kronecker_character(D)
        f = abs(D)
        points = [
            (Fraction(a, f), 1 if chi.exponent(a) == 0 else -1)
            for a in range(1, f + 1)
            if chi.exponent(a) is not None
        ]
        for n in range(1, 13):
            total = sum(sign * bernoulli_polynomial(n, x) for x, sign in points)
            assert generalized_bernoulli(n, chi) == Fraction(f) ** (n - 1) * total, (D, n)
    with pytest.raises(ValueError):
        generalized_bernoulli(3, DirichletCharacter(7, 3))


def test_dirichlet_l_cache_keyed_by_precision():
    saved = get_precision()
    try:
        for k, psi in [(2, kronecker_character(-4)), (4, DirichletCharacter(7, 3))]:
            set_precision(192)
            low = dirichlet_l(k, psi)
            set_precision(320)
            high = dirichlet_l(k, psi)
            fresh = lvalues._dirichlet_l(k, psi)
            assert high == fresh and high != low
    finally:
        set_precision(saved)


def test_dirichlet_l_cache_keyed_by_character():
    # characters of one modulus, and one character at two moduli, each get their own value
    from siegeleis.characters import characters_mod

    for psi in characters_mod(7) + [DirichletCharacter(14, 3), DirichletCharacter(21, 10)]:
        for k in (2, 3):
            assert dirichlet_l(k, psi) == lvalues._dirichlet_l(k, psi), (k, psi)


def test_cohen_h():
    assert cohen_h(3, 0) == Fraction(-1, 252)  # zeta(-5)
    assert cohen_h(3, 3) == Fraction(-2, 9)
    assert cohen_h(3, 4) == Fraction(-1, 2)
    assert cohen_h(3, 1) == 0  # (-1)^3 * 1 = 3 mod 4
    assert cohen_h(2, 3) == 0  # 3 = 3 mod 4 with r even
