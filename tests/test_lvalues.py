from fractions import Fraction

import mpmath
import pytest

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
from siegeleis.scalars import Exact, mp_workdps, to_mpc


def test_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9))


def test_zeta_exact():
    assert zeta(2).value == Exact(Fraction(1, 6), 2)
    assert zeta(4).value == Exact(Fraction(1, 90), 4)
    assert zeta(6).value == Exact(Fraction(1, 945), 6)
    with pytest.raises(ValueError):
        zeta(1)


def test_zeta_numeric_vs_exact():
    with mp_workdps():
        for k in (2, 4, 6, 8, 10, 20):
            assert abs(zeta(k).value.to_mpf() - mpmath.zeta(k)) < mpmath.mpf(10) ** -50
        assert abs(zeta(3).value - mpmath.zeta(3)) == 0  # same code path


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
        assert abs(l.value - mpmath.catalan) < mpmath.mpf(10) ** -40


def test_dirichlet_l_imprimitive_euler_factor():
    # trivial character mod 2: L(k) = (1 - 2^-k) zeta(k)
    triv2 = DirichletCharacter(2, 1)
    with mp_workdps():
        for k in (2, 3, 5):
            lv = dirichlet_l(k, triv2)
            want = (1 - mpmath.mpf(2) ** -k) * mpmath.zeta(k)
            assert abs(to_mpc(lv.value) - want) < mpmath.mpf(10) ** -40


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
                whole = dirichlet_l(k, eta).to_mpc()
                val = dirichlet_l(k, core).to_mpc()
                for p in eta.lost_euler_primes():
                    val *= 1 - to_mpc(core(p)) / mpmath.mpf(p) ** k
                assert abs(whole - val) < mpmath.mpf(10) ** -40


def test_l_quadratic_exact_vs_numeric():
    with mp_workdps():
        for D, n in [(-4, 1), (-4, 3), (-3, 3), (5, 2), (-7, 5), (8, 4), (12, 2), (-8, 3), (1, 4)]:
            ex = to_mpc(l_quadratic_exact(n, D))
            if n >= 2:
                num = dirichlet_l(n, kronecker_character(D)).to_mpc()
                assert abs(ex - num) < mpmath.mpf(10) ** -40
        assert abs(to_mpc(l_quadratic_exact(1, -4)) - mpmath.pi / 4) < mpmath.mpf(10) ** -40


def test_l_quadratic_parity_guard():
    with pytest.raises(ValueError):
        l_quadratic_exact(2, -4)


def test_generalized_bernoulli():
    assert generalized_bernoulli(3, kronecker_character(-3)) == Fraction(2, 3)
    assert generalized_bernoulli(3, kronecker_character(-4)) == Fraction(3, 2)
    assert bernoulli_polynomial(3, Fraction(1, 3)) == Fraction(1, 27)


def test_cohen_h():
    assert cohen_h(3, 0) == Fraction(-1, 252)  # zeta(-5)
    assert cohen_h(3, 3) == Fraction(-2, 9)
    assert cohen_h(3, 4) == Fraction(-1, 2)
    assert cohen_h(3, 1) == 0  # (-1)^3 * 1 = 3 mod 4
    assert cohen_h(2, 3) == 0  # 3 = 3 mod 4 with r even
