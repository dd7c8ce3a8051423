import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from siegeleis.arith import HalfIntegralForm, fundamental_discriminant, kronecker_symbol, valuation
from siegeleis.characters import DirichletCharacter, local_component, primitive_characters_mod
from siegeleis.cyclotomic import RootU
from siegeleis.localfactors import GoodPlaceInput, unramified_local_factor
from siegeleis.oracle import (
    IDENT,
    S1,
    S2,
    TruncationWindow,
    UncertifiedOracleError,
    bootstrap_minor_valuation,
    brute_force_local_integral,
    c0_matrix,
    frac_part,
    generating_series_check,
    k_oracle,
    lower_unipotent,
    mat_mul,
    paramodular_class_index,
    psi_phase,
    ramified_section_value,
    spherical_section_value,
    spherical_weight,
    unramified_integral_exact,
    upper_unipotent,
    vol_sq_shell_ge,
    volume_R,
    volume_R_exact,
    volume_S,
    sl2_lower_identity,
)
from siegeleis.oracle import _f_integrand_value, _mat, _ramanujan, _residue_valuation_counts
from siegeleis.scalars import mp_workdps, to_mpc
from siegeleis.verify import _quadratic_local


def quad_local(p):
    eta = next(chi for chi in primitive_characters_mod(p) if chi.order() == 2)
    return local_component(eta, p)


def test_frac_part():
    assert frac_part(Fraction(7, 9), 3) == Fraction(7, 9)
    assert frac_part(Fraction(7, 18), 3) == frac_part(Fraction(7 * pow(2, -1, 9), 9), 3)
    assert frac_part(Fraction(5), 3) == 0
    assert psi_phase(Fraction(1, 3), 3) == RootU(Fraction(-1, 3))


def test_spherical_values():
    # identity and Weyl elements: spherical value 1
    assert spherical_section_value(IDENT, Fraction(1), 4, 3) == 1
    w = mat_mul(S2, S1, S2)
    assert spherical_section_value(w, Fraction(1), 4, 3) == 1
    # diag(p, p, 1/p, 1/p): A = p I, u = 1 -> chi(p)^2 p^(-2s)
    for p in (3, 5):
        g = _mat([[p, 0, 0, 0], [0, p, 0, 0], [0, 0, Fraction(1, p), 0], [0, 0, 0, Fraction(1, p)]])
        assert spherical_weight(g, p) == 2
        val = spherical_section_value(g, RootU(Fraction(1, 2)), 4, p)
        assert val == Fraction(p) ** -8  # (-1)^2 = 1


def test_spherical_right_invariance():
    from siegeleis.oracle import _random_integral_k

    rng = random.Random(20)
    for p in (3, 5):
        g = mat_mul(mat_mul(S2, S1, S2), upper_unipotent(Fraction(1, p), Fraction(2, p * p), 3))
        base = spherical_weight(g, p)
        for _ in range(20):
            k = _random_integral_k(rng, p)
            assert spherical_weight(mat_mul(g, k), p) == base


def test_sl2_identity():
    for x in (Fraction(1, 3), Fraction(5, 9), Fraction(7), Fraction(-4, 27)):
        assert sl2_lower_identity(x)


def test_bootstrap():
    for p in (3, 5):
        assert bootstrap_minor_valuation(p, 200, seed=1234) == 200


def test_paramodular_classifier():
    for p in (3, 5):
        chi = quad_local(p)
        for i in (0, 1):
            assert paramodular_class_index(c0_matrix(Fraction(p**i)), p, 1) == i
        # left P-translation and right K(p^2)-translation invariance
        g = c0_matrix(Fraction(p))
        q = _mat([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, Fraction(1, 2), 0], [0, 0, Fraction(1, 3), Fraction(1, 2)]])
        # q not symplectic; use a clean parabolic instead
        q = _mat([[1, 0, 1, 2], [0, 1, 3, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert paramodular_class_index(mat_mul(q, g), p, 1) == 1


def test_ramified_section_matches_lemma():
    rng = random.Random(42)
    s212 = mat_mul(S2, S1, S2)
    for p in (3, 5):
        chi = quad_local(p)
        for _ in range(60):
            mu = Fraction(rng.randint(-8, 8), p ** rng.randint(0, 2))
            kap = Fraction(rng.randint(-8, 8), p ** rng.randint(0, 3))
            lam = Fraction(rng.randint(-8, 8), p ** rng.randint(0, 2))
            g = mat_mul(s212, upper_unipotent(mu, kap, lam))
            assert ramified_section_value(g, chi, 4) == _f_integrand_value(mu, kap, lam, chi, 4)


def test_ramified_section_normalization_and_support():
    for p in (3, 5):
        chi = quad_local(p)
        got = ramified_section_value(c0_matrix(Fraction(p)), chi, 4)
        assert got == (chi.chi_at_p ** (-1)).as_scalar()
        assert ramified_section_value(IDENT, chi, 4) == 0


def test_ramified_section_paramodular_invariance():
    rng = random.Random(7)
    s212 = mat_mul(S2, S1, S2)
    p = 3
    chi = quad_local(p)

    def random_paramod():
        gens = []
        for _ in range(rng.randint(2, 5)):
            c = rng.randrange(4)
            if c == 0:
                gens.append(
                    upper_unipotent(rng.randint(-4, 4), Fraction(rng.randint(-4, 4), p**2), rng.randint(-4, 4))
                )
            elif c == 1:
                gens.append(c0_matrix(p**2 * rng.randint(-2, 2)))
            elif c == 2:
                a = rng.choice([1, -1, 1 + p, 2])
                b = rng.choice([1, -1, 2])
                u = rng.choice([1, -1])
                gens.append(_mat([[a, 0, 0, 0], [0, b, 0, 0], [0, 0, Fraction(u, b), 0], [0, 0, 0, Fraction(u, a)]]))
            else:
                gens.append(_mat([[0, 0, 0, Fraction(1, p**2)], [0, 0, 1, 0], [0, -1, 0, 0], [-(p**2), 0, 0, 0]]))
        out = IDENT
        for h in gens:
            out = mat_mul(out, h)
        return out

    for _ in range(40):
        mu = Fraction(rng.randint(-6, 6), p ** rng.randint(0, 2))
        kap = Fraction(rng.randint(-6, 6), p ** rng.randint(0, 3))
        lam = Fraction(rng.randint(-6, 6), p ** rng.randint(0, 2))
        g = mat_mul(s212, upper_unipotent(mu, kap, lam))
        k = random_paramod()
        assert ramified_section_value(mat_mul(g, k), chi, 4) == ramified_section_value(g, chi, 4)


def test_vol_sq_shell_ge_vs_counting():
    rng = random.Random(1)
    for p in (3, 5):
        for _ in range(25):
            vc = rng.randint(-3, 3)
            unit = rng.choice([1, 2, 3, 4, 6, 7])
            if unit % p == 0:
                unit += 1
            c = Fraction(unit) * Fraction(p) ** vc
            # u^2 - c = (u^2 b - a) / b for c = a/b, so v_p(u^2 - c) is an
            # integer valuation less v_p(b); infinite when u^2 = c
            a, b = c.numerator, c.denominator
            vb = _int_valuation(b, p)
            q = p**7
            shells = Counter(
                math.inf if u * u * b == a else _int_valuation(u * u * b - a, p) - vb for u in range(1, q) if u % p
            )
            for t0 in range(-2, 5):
                cnt = sum(n for v, n in shells.items() if v >= t0)
                assert vol_sq_shell_ge(p, c, t0) == Fraction(cnt, q)


def _int_valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_ramanujan_sums():
    import cmath

    for p in (3, 5):
        for i in range(0, 4):
            for n in (1, 2, p, 3 * p, p * p, 4 * p * p):
                direct = (
                    sum(cmath.exp(-2j * cmath.pi * n * u / p**i) for u in range(1, p**i + 1) if u % p)
                    if i
                    else 1
                )
                assert abs(_ramanujan(p, i, n) - direct) < 1e-6


def test_unramified_exact_vs_closed_form():
    for p in (3, 5):
        for (n, m) in [(1, 1), (1, -1), (2, 3), (1, p), (p, p), (1, -p * p), (2, p * p), (p, p**3), (1, p**4)]:
            T = HalfIntegralForm(n, 0, m)
            split = fundamental_discriminant(-T.delta)
            e_p = min(valuation(n, p), valuation(m, p))
            dD = valuation(split.D, p) if split.D % p == 0 else 0
            f_p = (valuation(T.delta, p) - dD) // 2
            L = kronecker_symbol(split.D, p)
            for zeta in (1, -1):
                for s in (4, 5):
                    formula = unramified_local_factor(GoodPlaceInput(p, Fraction(zeta), L, e_p, f_p, s))
                    oracle = unramified_integral_exact(T, p, Fraction(zeta), s)
                    assert formula == oracle


def test_unramified_exact_guards():
    with pytest.raises(ValueError):
        unramified_integral_exact(HalfIntegralForm(1, 1, 1), 3, Fraction(1), 4)
    with pytest.raises(ValueError):
        unramified_integral_exact(HalfIntegralForm(1, 0, 1), 2, Fraction(1), 4)


def test_riemann_sum_cross_check():
    # dumb windowed Riemann sum vs exact oracle and invariance under
    # unimodular congruence T -> A T A^t (here r != 0 allowed)
    with mp_workdps():
        T = HalfIntegralForm(1, 0, 1)
        val, win = brute_force_local_integral(T, 3, None, 4, TruncationWindow(3, 0, Fraction(0)))
        exact = unramified_integral_exact(T, 3, Fraction(1), 4)
        assert abs(val - to_mpc(exact)) <= float(win.tail)
        # congruent pair: (1,0,1) ~ A T A^t with A = [[1,1],[0,1]]: (2, 2... )
        T2 = HalfIntegralForm(1, 2, 2)  # A T A^t for A = [[1,0],[1,1]]
        val2, win2 = brute_force_local_integral(T2, 3, None, 4, TruncationWindow(3, 0, Fraction(0)))
        assert abs(val2 - to_mpc(exact)) <= float(win2.tail) + float(win.tail)


def test_riemann_certify_guard():
    with pytest.raises(UncertifiedOracleError):
        brute_force_local_integral(
            HalfIntegralForm(1, 0, 1), 3, None, 4, TruncationWindow(2, 0, Fraction(0)), certify=Fraction(1, 3**10)
        )


def test_k_oracle_exactness():
    # the adaptive refinement resolves completely on these and certifies 0
    chi = quad_local(3)
    val, bound = k_oracle(HalfIntegralForm(1, 3, 9), chi, 4)
    assert bound == 0 and val == Fraction(-8, 27)


def _k_oracle_reference(T, chi, s, j_extra=6):
    """The per-class Fraction refinement that `k_oracle` replaced, kept as it was."""
    p, n_p = chi.p, chi.n_p
    n, r, m = T.n, T.r, T.m
    if T.delta == 0:
        raise ValueError("K needs nonsingular T")
    vals = [valuation(x, p) for x in (n, r, m) if x != 0]
    j_max = max(vals + [0]) + 2 * n_p + j_extra

    def F(mu: Fraction) -> Fraction:
        return n + r * mu / p**n_p + m * mu * mu / p ** (2 * n_p)

    X = Fraction(p) ** (2 - s)
    total = Fraction(0)
    bound = Fraction(0)
    # stack of classes (u, depth): mu = u + p^depth Z_p, u a unit mod p^depth
    stack = [(u, 1) for u in range(1, p)]
    while stack:
        u, d = stack.pop()
        center = F(Fraction(u))
        # F(u + h) - F(u) has valuation >= d - 2 n_p for v(h) >= d
        unc = d - 2 * n_p
        vF = valuation(center, p) if center else None
        if vF is None or vF >= unc:
            # valuation not yet decided on the class
            if d >= j_max:
                # contribute to the certified bound: |chi| = 1,
                # measure p^(-d), and j >= unc
                j_lo = max(unc, 1 - n_p)
                bound += Fraction(p) ** (-d) * _geom_abs_reference(X, j_lo)
                continue
            stack.extend((u + p**d * t, d + 1) for t in range(p))
            continue
        j = vF
        # need the unit of arg = F(u)/mu mod p^(n_p) stable on the class:
        # perturbation of F is p^(unc), need unc >= j + n_p; mu-unit needs
        # d >= n_p.
        if unc < j + n_p or d < n_p:
            if d >= j_max:
                bound += Fraction(p) ** (-d) * abs(X) ** max(j, 1 - n_p)
                continue
            stack.extend((u + p**d * t, d + 1) for t in range(p))
            continue
        if j < 1 - n_p:
            raise AssertionError("support violates j >= 1 - n_p")
        arg = center / Fraction(u)
        val = chi.value(arg).as_scalar()
        total = total + val * Fraction(p) ** (-d) * X**j
    return total, bound


def _geom_abs_reference(X, j_lo):
    aX = abs(X)
    return aX**j_lo / (1 - aX)


def _assert_k_oracle_matches_reference(T, chi, s, j_extra):
    got = k_oracle(T, chi, s, j_extra)
    want = _k_oracle_reference(T, chi, s, j_extra)
    assert got == want, (T, chi.p, s, j_extra)
    assert type(got[0]) is type(want[0]) and type(got[1]) is type(want[1])
    assert str(got[0]) == str(want[0])  # same cyclotomic field, not only equal


def test_k_oracle_matches_fraction_refinement_quadratic():
    # the K-table grid of the verify suite.  chi(p), s and j_extra rotate
    # over the forms to keep the Fraction reference within a few seconds; the
    # class tree depends only on the form and j_extra.  With n_p = 1 only the
    # undecided-class branch of the bound can be reached.
    for p in (3, 5):
        forms = [
            (1, 0, p**2), (1, 0, 2 * p**2), (2, 0, p**2), (1, 0, p**3), (1, 0, p**4),
            (p, 0, p**3), (1, p, p**2), (1, 2 * p**2, p**2), (p, p, p**3),
            (p**2, p, p**2), (1, p, p**3), (p**2, p**2, p**2), (2, p**2, p**4),
            (1, p, 2 * p**2), (2, p, p**2), (1, 3 * p, 2 * p**2), (4, 2 * p, p**2),
            (1, p, 5 * p**2), (3, p, p**2), (1, p, p**4), (p, p**2, p**3),
        ]
        chis = [_quadratic_local(p, 1), _quadratic_local(p, -1)]
        for idx, nrm in enumerate(forms):
            chi, s, j_extra = chis[idx % 2], 4 + (idx // 2) % 2, (1, 2, 6)[idx % 3]
            _assert_k_oracle_matches_reference(HalfIntegralForm(*nrm), chi, s, j_extra)


def test_k_oracle_matches_fraction_refinement_higher_order():
    # orders 4, 6 and 6, as (character, p, form, s, j_extra)
    cases = [
        ("5:2", 5, (1, 0, 25), 4, 1), ("5:2", 5, (2, 5, 125), 5, 6), ("5:2", 5, (1, 5, 25), 4, 6),
        ("5:2", 5, (5, 0, 25), 5, 2), ("5:2", 5, (3, 10, 25), 4, 1),
        ("7:3", 7, (1, 0, 49), 5, 6), ("7:3", 7, (2, 7, 343), 4, 1), ("7:3", 7, (3, 14, 49), 5, 2),
        # n_p = 2: the first two reach j_max on classes whose valuation is
        # decided but whose unit class is not, the second branch of the bound
        ("9:2", 3, (1, 9, 243), 4, 1), ("9:2", 3, (2, -9, 729), 5, 1), ("9:2", 3, (1, 0, 81), 4, 6),
        ("9:2", 3, (1, 9, 81), 5, 2),
    ]
    for label, p, nrm, s, j_extra in cases:
        chi = local_component(DirichletCharacter.from_label(label), p)
        _assert_k_oracle_matches_reference(HalfIntegralForm(*nrm), chi, s, j_extra)
    # a class below the support raises in both
    chi = local_component(DirichletCharacter.from_label("9:2"), 3)
    for fn in (k_oracle, _k_oracle_reference):
        with pytest.raises(AssertionError):
            fn(HalfIntegralForm(1, 1, 81), chi, 4, 1)


def test_volume_counting():
    # first volume-table row at p = 3: vol R(0,0) for unit n, m = 1 - 1/3
    T = HalfIntegralForm(1, 0, 1)
    assert volume_R(0, 0, T, 3, 8) == Fraction(2, 3)
    # S(i,j) = R(i-1,j) - R(i,j)
    T = HalfIntegralForm(1, 0, 9)
    for i in range(0, 3):
        for j in (-1, 0, 1):
            assert volume_S(i, j, T, 3, 8) == volume_R(i - 1, j, T, 3, 8) - volume_R(i, j, T, 3, 8)


def _residue_counts_by_enumeration(nrm, j, p, B):
    """v(n + r u p^-j + m u^2 p^-2j) for every unit u mod p^B, one at a time."""
    n, r, m = nrm
    t = 2 * max(j, 0)
    c0, c1, c2 = n * p**t, r * p ** (t - j), m * p ** (t - 2 * j)
    horizon = B - t - 1
    counts = Counter()
    undecided = 0
    for u in range(1, p**B):
        if u % p == 0:
            continue
        val = c0 + c1 * u + c2 * u * u
        v = math.inf if val == 0 else _int_valuation(val, p)
        if v - t >= horizon:
            undecided += 1
        else:
            counts[v - t] += 1
    return dict(counts), undecided, horizon


def test_residue_counts_by_classes_match_enumeration():
    rng = random.Random(3)
    for p, B_max in ((3, 6), (5, 5)):
        forms = [
            (1, 0, 1), (-1, 0, 1), (1, 1, 1), (-2, 3, p**2), (1, p, p**2), (p**2, p, 1),
            (-p, 2 * p, p**3), (-1, 2, -1), (0, 0, 0), (0, p, 0),
        ]
        forms += [
            (rng.randint(-20, 20) * p ** rng.randint(0, 3), rng.randint(-9, 9) * p ** rng.randint(0, 2),
             rng.randint(-20, 20) * p ** rng.randint(0, 4))
            for _ in range(6)
        ]
        for nrm in forms:
            for j in (-1, 0, 1, 2):
                for B in range(1, B_max + 1):
                    got = _residue_valuation_counts(nrm, j, p, B)
                    assert got == _residue_counts_by_enumeration(nrm, j, p, B), (nrm, j, p, B)


def test_volume_depth_guard():
    with pytest.raises(UncertifiedOracleError):
        volume_R(5, 0, HalfIntegralForm(729, 0, 729), 3, 4)


def test_volume_exact_vs_counting():
    for p in (3, 5):
        for (n, m) in [(1, 1), (1, p**2), (p, p), (2, p**3), (-1, 1)]:
            T = HalfIntegralForm(n, 0, m)
            for i in range(0, 4):
                for j in range(-2, 3):
                    assert volume_R(i, j, T, p, 8) == volume_R_exact(i, j, n, m, p)


def test_volume_stabilizes_in_depth():
    T = HalfIntegralForm(2, 0, 9)
    for B in (6, 7, 8):
        assert volume_R(2, 1, T, 3, B) == volume_R(2, 1, T, 3, 8)


def test_generating_series():
    for (n, m, p) in [(1, 1, 3), (9, 1, 3), (1, 9, 3), (2, 9, 3), (1, 25, 5), (2, 50, 5)]:
        rep = generating_series_check(n, m, p, 6, 6)
        assert rep["ok"], rep["mismatches"][:3]


def test_support_lemma_identity_replay():
    # The two explicit decompositions of s2 s1 s2 * U(mu, kappa, lambda)
    # hold as exact matrix identities, and the value read off the parabolic
    # factor matches the evaluator.
    rng = random.Random(99)
    s212 = mat_mul(S2, S1, S2)
    for p in (3, 5):
        n = 1
        q2 = p ** (2 * n)
        chi = quad_local(p)
        for _ in range(25):
            # case (a): v(lam) >= 0, v(mu) = -n, v(kappa) >= -2n
            u_mu = rng.choice([x for x in range(1, 3 * p) if x % p])
            mu = Fraction(u_mu, p**n) * rng.choice([1, -1])
            kap = Fraction(rng.randint(-9, 9), q2)
            lam = Fraction(rng.randint(-9, 9))
            lhs = mat_mul(s212, upper_unipotent(mu, kap, lam))
            B1 = _mat([[0, 1, 0, 0], [q2, 0, 0, 0], [0, 0, 0, Fraction(1, q2)], [0, 0, 1, 0]])
            B3 = _mat([[0, 0, 0, Fraction(1, q2)], [0, 0, 1, 0], [0, -1, 0, 0], [-q2, 0, 0, 0]])
            B4 = upper_unipotent(0, kap, lam)
            rhs = mat_mul(B1, c0_matrix(-mu * q2), B3, B4)
            assert lhs == rhs
            # value read from the factors: chi(-1) chi(p)^(2n) p^(-2ns) *
            # chi(unit(-mu p^n))^(-1) chi(p^n)^(-1) = chi(mu)^(-1) p^(-2ns)
            s = 4
            want = chi.value(mu).inverse().as_scalar() * Fraction(p) ** (-2 * n * s)
            assert ramified_section_value(lhs, chi, s) == want
        for _ in range(25):
            # case (b): v(lam) < 0, v(mu) = v(lam) - n, v(kappa - mu^2/lam) >= -2n
            i = rng.randint(1, 2)
            u_l = rng.choice([x for x in range(1, 3 * p) if x % p])
            lam = Fraction(u_l, p**i) * rng.choice([1, -1])
            u_m = rng.choice([x for x in range(1, 3 * p) if x % p])
            mu = Fraction(u_m, p ** (n + i)) * rng.choice([1, -1])
            kap = mu * mu / lam + Fraction(rng.randint(-9, 9), q2)
            lhs = mat_mul(s212, upper_unipotent(mu, kap, lam))
            Q = _mat(
                [
                    [-q2 * mu / lam, 1 / lam, -1, 0],
                    [q2, 0, 0, 0],
                    [0, 0, mu, Fraction(1, q2)],
                    [0, 0, lam, 0],
                ]
            )
            C = lower_unipotent(-q2 * mu / lam, 0, -(q2 * q2) * (kap - mu * mu / lam))
            K3 = _mat(
                [
                    [0, 0, 0, Fraction(1, q2)],
                    [0, -1, 0, 0],
                    [0, -1 / lam, -1, 0],
                    [-q2, 0, 0, 0],
                ]
            )
            rhs = mat_mul(Q, C, K3)
            assert lhs == rhs
            s = 4
            vl = valuation(lam, p)
            want = chi.value(mu).inverse().as_scalar() * Fraction(p) ** (s * (vl - 2 * n))
            assert ramified_section_value(lhs, chi, s) == want


def test_riemann_tail_contraction():
    # the certified tail shrinks by at least p^(s-3) per unit of A
    from siegeleis.oracle import _riemann_tail_bound

    for p in (3, 5):
        for s in (4, 5):
            for A in (2, 3, 4):
                ratio = _riemann_tail_bound(p, s, A) / _riemann_tail_bound(p, s, A + 1)
                assert ratio >= p ** (s - 3)
