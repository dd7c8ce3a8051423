import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeleis import fourier, localfactors, lvalues
from siegeleis.arith import HalfIntegralForm, content, factorize, fundamental_discriminant, split_by_level
from siegeleis.characters import (
    DirichletCharacter,
    gauss_sum,
    local_component,
    parity,
    power_character,
    primitive_characters_mod,
    product_with_kronecker,
)
from siegeleis.fourier import (
    EisensteinSpec,
    UnsupportedPlaceError,
    coefficient,
    eichler_zagier_coefficient,
    expand,
    format_value,
)
from siegeleis.localfactors import K_closed_form, RamifiedPlaceInput, h_tilde
from siegeleis.lvalues import dirichlet_l
from siegeleis.oracle import k_oracle
from siegeleis.scalars import mp_workdps, to_mpc

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


def test_exact_zero_K_is_zero_record_on_both_routes():
    # an oracle K of exactly 0 gives a zero record, as a closed-form 0 does
    cases = [
        ("5:2", 5, (1, 0, 25), "allow", "p=5:K-oracle(exact)"),
        ("8:5", 4, (1, 8, 64), "allow", "p=2:K-oracle(exact)"),
        ("3:2", 5, (1, 0, 9), "force", "p=3:K-oracle(exact)"),
        ("3:2", 5, (1, 0, 9), "forbid", "p=3:K-closed-form"),
    ]
    for label, k, nrm, policy, note in cases:
        rec = coefficient(EisensteinSpec(k, DirichletCharacter.from_label(label)), HalfIntegralForm(*nrm), policy)
        assert rec.is_zero() and rec.notes == [note], (label, nrm, policy)
        assert format_value(rec) == "0.0,0.0"


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


def _clear_caches():
    lvalues._L_VALUES.clear()
    lvalues.l_quadratic_exact.cache_clear()
    fourier._spec_invariants.cache_clear()
    localfactors.epsilon_exact_parts.cache_clear()


def test_coefficient_cold_and_warm_caches_agree():
    # each T alone with every cache cleared, then all T forward and in reverse
    # with the caches kept: the values must be identical, not merely close
    for spec, bound in ((EisensteinSpec(4, TRIV), 8), (EisensteinSpec(5, ETA3), 10)):
        forms = [rec.T for rec in expand(spec, bound)]
        cold = []
        for T in forms:
            _clear_caches()
            cold.append(coefficient(spec, T).value)
        _clear_caches()
        forward = [coefficient(spec, T).value for T in forms]
        backward = [coefficient(spec, T).value for T in reversed(forms)][::-1]
        assert cold == forward == backward


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
        # places where only the oracle gives K: p = 5, 13 (orders 4, 12) and p = 2
        for label, k, forms in (
            ("5:2", 5, [(1, 5, 25), (2, 5, 25), (1, 10, 50)]),
            ("13:2", 5, [(1, 13, 169), (2, 13, 169)]),
            ("4:3", 5, [(1, 2, 16), (1, 4, 16)]),
            ("8:5", 4, [(1, 2, 64), (1, 4, 64)]),
        ):
            spec = EisensteinSpec(k, DirichletCharacter.from_label(label))
            for nrm in forms:
                T = HalfIntegralForm(*nrm)
                plus = coefficient(spec, T, oracle_policy="allow")
                minus = coefficient(spec, HalfIntegralForm(T.n, -T.r, T.m), oracle_policy="allow")
                assert plus.mode == "numeric" and plus.notes == minus.notes, (label, T)
                assert abs(mpmath.mpc(minus.value) - (-1) ** k * mpmath.mpc(plus.value)) < tol, (label, T)
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


def _spec_for(eta: DirichletCharacter) -> EisensteinSpec:
    return EisensteinSpec(5 if parity(eta) else 4, eta)


def _small_forms(N: int, delta_max: int) -> list[HalfIntegralForm]:
    """Rank-2 forms (n, r, N^2) with n minimal for r and Delta <= delta_max.

    Up to four of the smallest Delta for each pattern of which p | N divide
    r, so the unit and the K branch of every place both occur where they can.
    """
    N2 = N * N
    by_pattern: dict[tuple, list] = {}
    for r in range(-N2, N2):
        n = r * r // (4 * N2) + 1
        delta = 4 * n * N2 - r * r
        if delta <= delta_max:
            pattern = tuple(r % p == 0 for p, _ in factorize(N))
            by_pattern.setdefault(pattern, []).append((delta, n, r))
    return [HalfIntegralForm(n, r, N2) for forms in by_pattern.values() for _, n, r in sorted(forms)[:4]]


def _global_gauss_sum_rank2(spec: EisensteinSpec, T: HalfIntegralForm):
    """The rank-2 formula for N > 1 with a global Gauss sum, as a reference.

    (4 pi)^(2k-1) det(T)^(k-3/2) / (2 (2k-2)!) N^(2-2k) f_Nhat^(3-2k)
    eta(f_Nhat^2) H~ L(k-1, chi_D eta) / (L(k, eta) L(2k-2, eta^2)) G(eta),
    times chi_p(r) at each p | N prime to r, else p^(n_p(2-k)) chi_p(p)^(n_p) K.
    Returns (value, notes), with value None when a K is exactly 0.
    """
    k, eta, N = spec.k, spec.eta, spec.N
    split = fundamental_discriminant(-T.delta)
    D, f = split.D, split.f
    places, notes = [], []
    for p, _ in factorize(N):
        chi_p = local_component(eta, p)
        if T.r % p:
            places.append(chi_p.value(T.r))
            notes.append(f"p={p}:unit")
            continue
        res = K_closed_form(RamifiedPlaceInput(p, chi_p, T, k))
        if res.available:
            K_val, note = res.value, f"p={p}:K-closed-form"
        else:
            K_val, note = k_oracle(T, chi_p, k)[0], f"p={p}:K-oracle(exact)"
        if K_val == 0:
            return None, [note]
        places.append(Fraction(p) ** (chi_p.n_p * (2 - k)) * (chi_p.chi_at_p**chi_p.n_p) * K_val)
        notes.append(note)
    e_hat = split_by_level(content(T), N).r_Nhat
    f_hat = split_by_level(f, N).r_Nhat
    with mp_workdps():
        val = (4 * mpmath.pi) ** (2 * k - 1) / (2 * mpmath.factorial(2 * k - 2))
        val *= (mpmath.mpf(T.delta) / 4) ** (mpmath.mpf(2 * k - 3) / 2)
        val *= mpmath.mpf(N) ** (2 - 2 * k) * mpmath.mpf(f_hat) ** (3 - 2 * k)
        val *= to_mpc(eta(f_hat * f_hat)) * to_mpc(h_tilde(D, k, eta, e_hat, f_hat))
        val *= to_mpc(dirichlet_l(k - 1, product_with_kronecker(eta, D)))
        val /= to_mpc(dirichlet_l(k, eta)) * to_mpc(dirichlet_l(2 * k - 2, power_character(eta, 2)))
        val *= to_mpc(gauss_sum(eta))
        for factor in places:
            val *= to_mpc(factor)
        return val, notes


def test_local_factor_assembly_matches_global_gauss_sum_formula():
    # the product of the ramified local factors equals G(eta) N^(2-2k) times
    # chi_p(r) or p^(n_p(2-k)) chi_p(p)^(n_p) K at each p | N, for every primitive eta mod N
    tol = mpmath.mpf(2) ** -150
    for N in (3, 4, 5, 7, 8, 12):
        for eta in primitive_characters_mod(N):
            spec = _spec_for(eta)
            for T in _small_forms(N, 40):
                rec = coefficient(spec, T, oracle_policy="allow")
                want, notes = _global_gauss_sum_rank2(spec, T)
                assert rec.notes == notes, (eta.label, T)
                if want is None:
                    assert rec.is_zero(), (eta.label, T)
                    continue
                assert rec.mode == "numeric", (eta.label, T)
                with mp_workdps():
                    assert abs(rec.value - want) <= tol * abs(want), (eta.label, T)


# Generators of the U in GL2(Z) with N^2 | b, acting by T[U] = U^t T U,
# each with det(U).
def _lower(T, N):  # [[1, 0], [1, 1]]
    return HalfIntegralForm(T.n + T.r + T.m, T.r + 2 * T.m, T.m), 1


def _upper(T, N):  # [[1, N^2], [0, 1]]
    b = N * N
    return HalfIntegralForm(T.n, T.r + 2 * T.n * b, T.m + T.r * b + T.n * b * b), 1


def _flip(T, N):  # diag(1, -1)
    return HalfIntegralForm(T.n, -T.r, T.m), -1


INVARIANCE_LABELS = ["1:1", "3:2", "4:3", "5:2", "7:3", "8:5", "12:11", "13:4", "15:2", "16:3"]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    label=st.sampled_from(INVARIANCE_LABELS),
    pick=st.integers(min_value=0),
    word=st.lists(st.sampled_from([_lower, _upper, _flip]), min_size=1, max_size=4),
)
def test_gamma0_invariance(label, pick, word):
    # a(T[U]) = det(U)^k a(T) for U in GL2(Z) with N^2 | b
    spec = _spec_for(DirichletCharacter.from_label(label))
    forms = _small_forms(spec.N, 60)
    T = forms[pick % len(forms)]
    U_T, det = T, 1
    for g in word:
        U_T, sign = g(U_T, spec.N)
        det *= sign
    assert U_T.delta == T.delta
    base = coefficient(spec, T, oracle_policy="allow")
    moved = coefficient(spec, U_T, oracle_policy="allow")
    assert (moved.mode, moved.notes) == (base.mode, base.notes)
    if base.mode != "numeric":
        assert moved.value == det**spec.k * base.value
        return
    with mp_workdps():
        assert abs(moved.value - det**spec.k * base.value) <= mpmath.mpf(2) ** -150 * abs(base.value)
