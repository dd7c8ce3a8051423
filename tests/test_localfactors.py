import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from siegeleis.arith import (
    HalfIntegralForm,
    divisors,
    factorize,
    fundamental_discriminant,
    kronecker_symbol,
    moebius,
    valuation,
)
from siegeleis.characters import DirichletCharacter, local_component, gauss_sum, parity, primitive_characters_mod
from siegeleis.localfactors import (
    GoodPlaceInput,
    K_closed_form,
    RamifiedPlaceInput,
    curve_count_ap,
    curve_count_ap_naive,
    curve_count_ap_tilde,
    epsilon_exact_parts,
    h_tilde,
    ramified_K,
    ramified_local_factor,
    unramified_local_factor,
)
from siegeleis.cyclotomic import Cyclotomic, RootU
from siegeleis.scalars import mp_workdps, to_mpc


def quad_char(p):
    return next(chi for chi in primitive_characters_mod(p) if chi.order() == 2)


def test_h_tilde_basic():
    triv = DirichletCharacter(1, 1)
    assert h_tilde(-4, 4, triv, 1, 1) == 1
    # (e, f) = (1, p): 1 + p^(2s-3) - chi_D(p) p^(s-2)
    for p in (3, 5, 7):
        got = h_tilde(-4, 4, triv, 1, p)
        want = 1 + Fraction(p) ** 5 - kronecker_symbol(-4, p) * Fraction(p) ** 2
        assert got == want
    with pytest.raises(ValueError):
        h_tilde(-4, 4, triv, 2, 3)


def test_h_tilde_multiplicative():
    rng = random.Random(7)
    eta = DirichletCharacter(5, 2)
    pairs = 0
    while pairs < 50:
        f1, f2 = rng.randint(1, 200), rng.randint(1, 200)
        if math.gcd(f1, f2) != 1:
            continue
        e1 = rng.choice([d for d in range(1, f1 + 1) if f1 % d == 0])
        e2 = rng.choice([d for d in range(1, f2 + 1) if f2 % d == 0])
        lhs = h_tilde(-4, 4, eta, e1, f1) * h_tilde(-4, 4, eta, e2, f2)
        rhs = h_tilde(-4, 4, eta, e1 * e2, f1 * f2)
        assert lhs == rhs
        pairs += 1


@lru_cache(maxsize=None)
def _h_sum(eta, s, q):
    """sum_(h | q) eta^-2(h) h^(2s-3), the inner sum of H~, tabulated per (eta, s, q)."""
    total = Fraction(0)
    for h in divisors(q):
        vh = eta.inverse_value(h)
        if vh:
            total = total + (vh * vh) * Fraction(h) ** (2 * s - 3)
    return total


def _h_tilde_reference(D, s, eta, e, f):
    """The triple divisor sum as written in the definition of H~ (the former
    `h_tilde` body): sum over d | e, squarefree g | f/d and h | f/(dg).

    The inner sum over h depends only on f/(dg), so it is read from the
    table `_h_sum` instead of being summed again for every (d, g)."""
    total = Fraction(0)
    for d in divisors(e):
        vd = eta.inverse_value(d)
        if not vd:
            continue
        for g in divisors(f // d):
            mu, chg, vg = moebius(g), kronecker_symbol(D, g), eta.inverse_value(g)
            if mu == 0 or chg == 0 or not vg:
                continue
            term = (vd * vg) * (mu * chg * Fraction(d) ** (s - 1) * Fraction(g) ** (s - 2))
            total = total + term * _h_sum(eta, s, f // (d * g))
    return total


def test_h_tilde_matches_triple_divisor_sum():
    # f < 60 includes every f with p | N; s follows the parity of eta
    checked = 0
    for label in ("1:1", "3:2", "5:2", "7:3", "8:5"):
        eta = DirichletCharacter.from_label(label)
        s = 4 + parity(eta)
        for D in (-3, -4, -7, -8, -15, -20, -23, 5, 8, 12):
            for f in range(1, 60):
                for e in divisors(f):
                    assert h_tilde(D, s, eta, e, f) == _h_tilde_reference(D, s, eta, e, f), (label, D, e, f)
                    checked += 1
    assert checked == 5 * 10 * sum(len(divisors(f)) for f in range(1, 60))


def test_unramified_empty_case():
    # e = f = 0: pure Euler-type prefactor
    for p in (3, 5):
        for L in (-1, 0, 1):
            for s in (4, 5):
                got = unramified_local_factor(GoodPlaceInput(p, Fraction(1), L, 0, 0, s))
                P = Fraction(p)
                want = (1 - P**-s) * (1 - P ** (2 - 2 * s)) / (1 - L * P ** (1 - s))
                assert got == want


def test_unramified_guards():
    with pytest.raises(ValueError):
        GoodPlaceInput(3, Fraction(1), 2, 0, 0, 4)
    with pytest.raises(ValueError):
        GoodPlaceInput(3, Fraction(1), 1, 2, 1, 4)
    # p must be prime
    for p in (-3, 0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match="prime"):
            GoodPlaceInput(p, Fraction(1), 1, 0, 0, 4)
    # the pole 1 - L chi_p(p) p^(1-s) = 0, which needs s = 1 and L chi_p(p) = 1
    for L, chip in ((1, 1), (-1, -1)):
        with pytest.raises(ValueError, match="pole"):
            GoodPlaceInput(5, Fraction(chip), L, 0, 0, 1)
    for L, chip, s in ((1, -1, 1), (0, 1, 1), (1, 1, 2)):
        unramified_local_factor(GoodPlaceInput(5, Fraction(chip), L, 0, 0, s))


def test_curve_counts():
    assert curve_count_ap(1, 3) == 0  # forced symmetric at p = 3
    assert curve_count_ap(-4, 5) == -2
    for p in (3, 5, 7, 11, 13):
        for D in (-8, -7, -4, -3, 1, 5, 8, 12, 13):
            a1, a2 = curve_count_ap(D, p), curve_count_ap_naive(D, p)
            assert a1 == a2
            assert abs(a1) < 2 * math.sqrt(p)


def test_curve_count_tilde():
    chi = local_component(quad_char(3), 3)
    # v(f) > v(r): chi(r/f)
    val = curve_count_ap_tilde(3, 9, -3, 3, chi)
    assert val == chi.value(Fraction(3, 9)).as_fraction()
    # v(f) = v(r): independent of the lift of b mod p
    v1 = curve_count_ap_tilde(1, 1, 5, 7, chi_for(7))
    v2 = curve_count_ap_tilde(8, 8, 5, 7, chi_for(7))
    assert v1 == v2


def chi_for(p):
    return local_component(quad_char(p), p)


def test_K_needs_oracle_flag():
    chi = chi_for(3)
    T = HalfIntegralForm(1, 3, 9)
    # p = 2 or non-quadratic: needs-oracle
    eta5 = DirichletCharacter(5, 2)  # order 4
    lc5 = local_component(eta5, 5)
    res = K_closed_form(RamifiedPlaceInput(5, lc5, HalfIntegralForm(1, 5, 25), 4))
    assert res.provenance == "needs-oracle" and not res.available
    with pytest.raises(ValueError):
        K_closed_form(RamifiedPlaceInput(3, chi, HalfIntegralForm(1, 2, 1), 4))


def test_K_table_spec_rows():
    chi = chi_for(3)
    s = 4
    # r = 0, chi(-1) = -1 (p = 3): 0
    res = K_closed_form(RamifiedPlaceInput(3, chi, HalfIntegralForm(1, 0, 9), s))
    assert res.value == 0
    chi5 = chi_for(5)  # chi(-1) = +1 at p = 5
    # r = 0, chi(-1) = 1, v(n) = v(m) - 2: -a_p p^(e(2-s)-1) chi(2pf)
    T = HalfIntegralForm(1, 0, 25)
    res = K_closed_form(RamifiedPlaceInput(5, chi5, T, s))
    split = fundamental_discriminant(-T.delta)
    ap = curve_count_ap(split.D, 5)
    want = -ap * Fraction(5) ** (0 * (2 - s) - 1) * chi5.value(2 * 5 * split.f).as_fraction()
    assert res.value == want
    # r != 0, v(r) - n_p strictly smallest: p^(e(2-s)) (1 - 1/p) chi(pr)
    T = HalfIntegralForm(3, 3, 27)  # a=1, b=0, c=1
    res = K_closed_form(RamifiedPlaceInput(3, chi, T, s))
    want = Fraction(3) ** 0 * (1 - Fraction(1, 3)) * chi.value(3 * 3).as_fraction()
    assert res.value == want


def test_K_table_vs_oracle_grid():
    from siegeleis.oracle import k_oracle

    for p in (3, 5):
        chi = chi_for(p)
        cases = [
            (1, 0, p**2), (2, 0, p**2), (1, 0, p**3), (p, 0, p**3),
            (1, p, p**2), (1, 2 * p**2, p**2), (p, p, p**3), (p**2, p, p**2),
            (1, p, p**3), (p**2, p**2, p**2), (2, p**2, p**4), (1, p, 2 * p**2),
            (2, p, p**2), (1, 3 * p, 2 * p**2), (1, p, 5 * p**2), (1, p, p**4),
        ]
        for (n, r, m) in cases:
            T = HalfIntegralForm(n, r, m)
            if T.delta == 0:
                continue
            for s in (4, 5):
                res = K_closed_form(RamifiedPlaceInput(p, chi, T, s))
                assert k_oracle(T, chi, s) == (res.value, 0), (p, T, s, res.value)


def test_ramified_K_route_per_place():
    # one rule: no K at p not dividing r or where v(m) < 2 n_p, the table where
    # it has a row, the exact defining sum everywhere else
    from siegeleis.oracle import k_oracle

    chi3, chi9 = chi_for(3), local_component(DirichletCharacter(9, 2), 3)
    assert ramified_K(RamifiedPlaceInput(3, chi3, HalfIntegralForm(1, 1, 9), 4)) == (None, "p=3:unit")
    assert ramified_K(RamifiedPlaceInput(3, chi9, HalfIntegralForm(1, 3, 3), 4)) == (None, "p=3:zero")
    cases = [
        (3, chi3, (1, 3, 27), "p=3:K-closed-form"),
        (3, chi3, (1, 0, 9), "p=3:K-closed-form"),
        (5, local_component(DirichletCharacter(5, 2), 5), (1, 5, 25), "p=5:K-oracle(exact)"),
        (2, local_component(DirichletCharacter(8, 5), 2), (1, 8, 64), "p=2:K-oracle(exact)"),
        (3, chi9, (1, 3, 81), "p=3:K-oracle(exact)"),
    ]
    for p, chi, nrm, note in cases:
        T = HalfIntegralForm(*nrm)
        K, got = ramified_K(RamifiedPlaceInput(p, chi, T, 5))
        assert got == note and K == k_oracle(T, chi, 5)[0], (p, nrm)


def test_ramified_vanishing():
    # v(m) < 2 n_p kills the factor
    chi = chi_for(3)
    T = HalfIntegralForm(1, 1, 3)
    assert ramified_local_factor(RamifiedPlaceInput(3, chi, T, 4), None) == 0


def test_ramified_unit_r_branch():
    # v(r) = 0: value p^(n_p(2-2s)) (1 - 2 zeta_6) chi(-r), K unused; at the
    # character mod 3, p^(n_p/2) epsilon = 1 - 2 zeta_6 = -i sqrt(3)
    chi = chi_for(3)
    T = HalfIntegralForm(1, 1, 9)
    closed = ramified_local_factor(RamifiedPlaceInput(3, chi, T, 4), None)
    part = 1 - 2 * Cyclotomic.zeta_power(6, 1)
    assert closed == Fraction(3) ** (2 - 8) * part * chi.value(-1).as_scalar()


def test_ramified_vs_oracle():
    from siegeleis.oracle import k_oracle, ramified_integral_exact

    chi = chi_for(3)
    with mp_workdps():
        for (n, r, m) in [(1, 1, 9), (1, 0, 9), (1, 3, 9), (1, 3, 27), (2, 3, 9)]:
            T = HalfIntegralForm(n, r, m)
            s = 4
            inp = RamifiedPlaceInput(3, chi, T, s)
            res = K_closed_form(inp)
            K_val = res.value if res.available else k_oracle(T, chi, s)[0]
            closed = ramified_local_factor(inp, K_val)
            oracle, tail = ramified_integral_exact(T, chi, s, i_max=5)
            assert abs(to_mpc(closed) - oracle) <= float(tail) + mpmath.mpf(10) ** -40


def test_epsilon_factor():
    # epsilon(1/2, chi_p, psi_p) = part / p^(n_p/2), with psi = e^(-2 pi i {x});
    # at the character mod 3 it is -i, so part = 1 - 2 zeta_6 = -i sqrt(3)
    part3, n_p = epsilon_exact_parts(chi_for(3))
    assert n_p == 1 and part3 == 1 - 2 * Cyclotomic.zeta_power(6, 1)
    # |epsilon| = 1: part conj(part) = p^(n_p), for quadratic chi_p, p <= 20,
    # and for every local component of a primitive character mod N <= 24
    locals_ = [chi_for(p) for p in (3, 5, 7, 11, 13, 17, 19)]
    locals_ += [local_component(eta, p) for N in range(3, 25) for eta in primitive_characters_mod(N)
                for p, _ in factorize(N)]
    for chi in locals_:
        part, n_p = epsilon_exact_parts(chi)
        assert part * part.conjugate() == chi.p**n_p, (chi.p, n_p)
    with pytest.raises(ValueError):
        epsilon_exact_parts(local_component(DirichletCharacter(1, 1), 3))


def test_epsilon_global_product():
    # prod over p | N of eps(1/2, chi_p, psi_p) = (-1)^k G(eta) / sqrt(N), so
    # the exact parts multiply to eta(-1) G(eta), as eta(-1) = (-1)^k
    for N in (3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 20, 21, 24):
        for eta in primitive_characters_mod(N):
            prod = Fraction(1)
            for p, _ in factorize(N):
                prod = epsilon_exact_parts(local_component(eta, p))[0] * prod
            assert prod == eta(-1).as_scalar() * gauss_sum(eta), eta.label


def _local_gauss_sum_reference(chi) -> Cyclotomic:
    """G(eta_p) term by term, from the unit values chi_p(u) = eta_p(u)^(-1)."""
    q = chi.p**chi.n_p
    total = Cyclotomic.from_rational(0, q)
    for u in range(1, q):
        if u % chi.p:
            total = total + (chi.unit_value(u).inverse() * RootU(Fraction(u, q))).as_scalar()
    return total


def test_local_gauss_sum_histogram_matches_termwise_sum():
    for N in range(3, 31):
        for eta in primitive_characters_mod(N):
            for p, _ in factorize(N):
                chi = local_component(eta, p)
                got, want = gauss_sum(chi.eta_p), _local_gauss_sum_reference(chi)
                assert (got.n, got.num, got.den) == (want.n, want.num, want.den), (eta.label, p)
