import math
from fractions import Fraction

import mpmath
import pytest

from siegeleis.arith import HalfIntegralForm
from siegeleis.characters import DirichletCharacter
from siegeleis.fourier import (
    EisensteinSpec,
    UnsupportedPlaceError,
    coefficient,
    eichler_zagier_coefficient,
    expand,
    format_value,
)
from siegeleis.scalars import mp_workdps

TRIV = DirichletCharacter(1, 1)
ETA3 = DirichletCharacter(3, 2)


def test_spec_validation():
    EisensteinSpec(4, TRIV)
    EisensteinSpec(5, ETA3)
    with pytest.raises(ValueError):
        EisensteinSpec(3, TRIV)  # weight too small
    with pytest.raises(ValueError):
        EisensteinSpec(4, ETA3)  # parity mismatch
    with pytest.raises(ValueError):
        EisensteinSpec(4, DirichletCharacter(2, 1))  # no primitive character mod 2


def test_constant_term():
    assert coefficient(EisensteinSpec(4, TRIV), HalfIntegralForm(0, 0, 0)).value == 1
    assert coefficient(EisensteinSpec(5, ETA3), HalfIntegralForm(0, 0, 0)).is_zero()


def test_level_one_rank1():
    spec = EisensteinSpec(4, TRIV)
    for n in range(1, 11):
        sig = sum(d**3 for d in range(1, n + 1) if n % d == 0)
        assert coefficient(spec, HalfIntegralForm(n, 0, 0)).value == 240 * sig
    # symmetry orbit (0, 0, m) and content on rank-1 forms like (1, 2, 1)
    assert coefficient(spec, HalfIntegralForm(0, 0, 1)).value == 240
    assert coefficient(spec, HalfIntegralForm(1, 2, 1)).value == 240
    assert coefficient(spec, HalfIntegralForm(2, 4, 2)).value == 240 * 9


def test_level_one_classical_rank2():
    spec = EisensteinSpec(4, TRIV)
    assert coefficient(spec, HalfIntegralForm(1, 1, 1)).value == 13440
    assert coefficient(spec, HalfIntegralForm(1, 0, 1)).value == 30240


def test_support_zero():
    spec = EisensteinSpec(4, TRIV)
    assert coefficient(spec, HalfIntegralForm(1, 3, 1)).is_zero()  # not psd
    assert coefficient(spec, HalfIntegralForm(-1, 0, 1)).is_zero()
    spec3 = EisensteinSpec(5, ETA3)
    assert coefficient(spec3, HalfIntegralForm(1, 1, 3)).is_zero()  # 9 does not divide m


def test_comparator_matches_assembly():
    for k in (4, 6):
        spec = EisensteinSpec(k, TRIV)
        for n in range(0, 6):
            for m in range(0, 6):
                rb = math.isqrt(4 * n * m)
                for r in range(-rb, rb + 1):
                    T = HalfIntegralForm(n, r, m)
                    if not T.is_positive_semidefinite() or T.delta > 100:
                        continue
                    assert coefficient(spec, T).value == eichler_zagier_coefficient(T, k)


def test_comparator_domain():
    with pytest.raises(ValueError):
        eichler_zagier_coefficient(HalfIntegralForm(1, 0, 1), 5)


def test_level3_rank1():
    spec = EisensteinSpec(5, ETA3)
    rec = coefficient(spec, HalfIntegralForm(1, 6, 9))
    assert rec.mode == "numeric" and not rec.is_zero()
    # the r_N condition fails for r = 0 at N > 1
    assert coefficient(spec, HalfIntegralForm(0, 0, 9)).is_zero()
    # rank-1 values for eta quadratic are purely imaginary ((-2 pi i)^5, real L)
    with mp_workdps():
        assert abs(mpmath.mpc(rec.value).real) < mpmath.mpf(10) ** -40


def test_level3_rank2_dual_K_routes():
    spec = EisensteinSpec(5, ETA3)
    with mp_workdps():
        closed = coefficient(spec, HalfIntegralForm(1, 3, 9))
        forced = coefficient(spec, HalfIntegralForm(1, 3, 9), oracle_policy="force")
        assert abs(mpmath.mpc(closed.value) - mpmath.mpc(forced.value)) < mpmath.mpf(10) ** -30
        assert any("K-closed-form" in s for s in closed.notes)
        assert any("K-oracle" in s for s in forced.notes)


def test_unsupported_place():
    eta5 = DirichletCharacter(5, 2)  # order 4: no closed form for K at p = 5
    spec = EisensteinSpec(5, eta5)
    T = HalfIntegralForm(1, 5, 25)
    with pytest.raises(UnsupportedPlaceError) as info:
        coefficient(spec, T, oracle_policy="forbid")
    assert info.value.p == 5
    rec = coefficient(spec, T, oracle_policy="allow")
    assert rec.mode == "numeric"


def test_expand_determinism_and_bounds():
    spec = EisensteinSpec(4, TRIV)
    recs0 = expand(spec, 0)
    assert len(recs0) == 1 and recs0[0].T == HalfIntegralForm(0, 0, 0)
    recs1 = expand(spec, 1)
    assert [r.T for r in recs1] == [
        HalfIntegralForm(0, 0, 0),
        HalfIntegralForm(0, 0, 1),
        HalfIntegralForm(1, 0, 0),
    ]
    assert recs1[1].value == 240 and recs1[2].value == 240
    # byte-identical across runs
    first = [(r.T, format_value(r)) for r in expand(spec, 4)]
    again = [(r.T, format_value(r)) for r in expand(spec, 4)]
    assert first == again
    # every emitted T satisfies the support predicate
    spec3 = EisensteinSpec(5, ETA3)
    for rec in expand(spec3, 10):
        assert rec.T.is_positive_semidefinite() and rec.T.m % 9 == 0


def test_mp_prec_unchanged():
    # mp_workdps must restore mpmath's shared precision, also on the oracle route
    spec = EisensteinSpec(5, ETA3)
    with mpmath.workprec(61):
        expand(spec, 10)
        assert mpmath.mp.prec == 61
        coefficient(spec, HalfIntegralForm(1, 3, 9), oracle_policy="force")
        assert mpmath.mp.prec == 61


def test_expand_matches_coefficient():
    spec = EisensteinSpec(4, TRIV)
    for rec in expand(spec, 2):
        again = coefficient(spec, rec.T)
        assert again.value == rec.value


def test_quadratic_reality():
    # For quadratic eta the only non-real factor is G(eta): rank-2 values
    # are real for even eta and purely imaginary for odd eta.
    eta5 = DirichletCharacter(5, 4)  # even quadratic
    assert eta5.order() == 2
    spec5 = EisensteinSpec(4, eta5)
    spec3 = EisensteinSpec(5, ETA3)  # odd quadratic
    with mp_workdps():
        tol = mpmath.mpf(2) ** (-96)
        for T in (HalfIntegralForm(1, 5, 25), HalfIntegralForm(1, 0, 25), HalfIntegralForm(2, 5, 50)):
            rec = coefficient(spec5, T, oracle_policy="allow")
            if rec.is_zero():
                continue
            assert abs(mpmath.mpc(rec.value).imag) < tol, (T, rec.value)
        for T in (HalfIntegralForm(1, 3, 9), HalfIntegralForm(1, 1, 9), HalfIntegralForm(2, 3, 18)):
            rec = coefficient(spec3, T, oracle_policy="allow")
            if rec.is_zero():
                continue
            assert abs(mpmath.mpc(rec.value).real) < tol, (T, rec.value)


def test_sign_automorphy():
    # diag(1,-1,1,-1) lies in the paramodular group and forces
    # a(n,-r,m) = (-1)^k a(n,r,m); for the assembled formulas this comes out
    # of eta(r_Nhat), the chi_p(-r) factors and K's mu -> -mu symmetry.
    with mp_workdps():
        tol = mpmath.mpf(2) ** (-96)
        spec = EisensteinSpec(5, ETA3)
        for T in (
            HalfIntegralForm(1, 6, 9),   # rank 1
            HalfIntegralForm(1, 1, 9),   # rank 2, r unit at 3
            HalfIntegralForm(1, 3, 9),   # rank 2, K branch
            HalfIntegralForm(2, 3, 18),
        ):
            plus = coefficient(spec, T)
            minus = coefficient(spec, HalfIntegralForm(T.n, -T.r, T.m))
            assert abs(mpmath.mpc(minus.value) + mpmath.mpc(plus.value)) < tol, T
        spec4 = EisensteinSpec(4, TRIV)
        assert coefficient(spec4, HalfIntegralForm(1, 1, 1)).value == coefficient(
            spec4, HalfIntegralForm(1, -1, 1)
        ).value


def test_good_place_collapse():
    # p coprime to N Delta contributes 1 through H~: the (e, f)-parts at such
    # p are empty, i.e. H~ is supported on divisors of f
    from siegeleis.localfactors import h_tilde

    assert h_tilde(-4, 4, TRIV, 1, 1) == 1
    assert h_tilde(-3, 5, ETA3, 1, 1) == 1
