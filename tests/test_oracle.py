import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from siegeleis.arith import HalfIntegralForm, factorize, fundamental_discriminant, kronecker_symbol, valuation
from siegeleis.characters import DirichletCharacter, local_component, primitive_characters_mod
from siegeleis.cyclotomic import RootU
from siegeleis.localfactors import GoodPlaceInput, K_closed_form, RamifiedPlaceInput, unramified_local_factor
from siegeleis.oracle import (
    IDENT,
    J1,
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
    mat_transpose,
    paramodular_class_index,
    psi_phase,
    ramified_integral_exact,
    ramified_section_value,
    spherical_section_value,
    spherical_weight,
    unramified_integral_exact,
    upper_unipotent,
    vol_sq_shell_ge,
    volume_R,
    volume_R_exact,
    volume_S,
    similitude,
    sl2_lower_identity,
)
from siegeleis.oracle import (
    _f_integrand_value,
    _int_mul,
    _inv2,
    _mat,
    _random_integral_k,
    _random_p_element,
    _ramanujan,
    _residue_valuation_counts,
)
from siegeleis.scalars import mp_workdps, to_mpc
from siegeleis.verify import _good_T, _quadratic_local, run_suite


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
    rng = random.Random(20)
    for p in (3, 5):
        g = mat_mul(mat_mul(S2, S1, S2), upper_unipotent(Fraction(1, p), Fraction(2, p * p), 3))
        base = spherical_weight(g, p)
        for _ in range(20):
            k = _random_integral_k_reference(rng, p)
            assert spherical_weight(mat_mul(g, k), p) == base


def test_sl2_identity():
    for x in (Fraction(1, 3), Fraction(5, 9), Fraction(7), Fraction(-4, 27)):
        assert sl2_lower_identity(x)


def test_bootstrap():
    for p in (3, 5):
        assert bootstrap_minor_valuation(p, 200, seed=1234) == 200


def _mat_mul_reference(*ms):
    """The entrywise Fraction product that the integer `mat_mul` replaced."""
    out = ms[0]
    for b in ms[1:]:
        out = tuple(
            tuple(sum(out[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
        )
    return out


def test_mat_mul_matches_fraction_reference():
    rng = random.Random(5)
    for p in (2, 3, 5):
        dens = [1, p, p**2, p**3, 1 + p, 1 - p, p * (1 + p)]
        for _ in range(60):
            ms = [
                _mat([[Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(4)] for _ in range(4)])
                for _ in range(rng.randint(2, 5))
            ]
            got = mat_mul(*ms)
            assert got == _mat_mul_reference(*ms)
            assert all(type(x) is Fraction for row in got for x in row)


def test_similitude_from_integer_form():
    # the rational draws, so that g has denominators up to p^2 and beyond
    rng = random.Random(11)
    fractional = 0
    for p in (3, 5):
        for _ in range(40):
            q, v = _random_p_element_reference(rng, p)
            g = mat_mul(q, _random_integral_k_reference(rng, p))
            fractional += any(x.denominator > 1 for row in g for x in row)
            m = _mat_mul_reference(mat_transpose(g), J1, g)
            lam = m[0][3]
            assert m == tuple(tuple(lam * x for x in row) for row in J1)
            assert similitude(g) == lam
            assert spherical_weight(g, p) == v
            # doubling a row leaves the similitude group: diag(2,1,1,1) J1 is
            # not a multiple of J1
            with pytest.raises(ValueError, match="not in the similitude group"):
                similitude((tuple(2 * x for x in g[0]),) + g[1:])
    assert fractional >= 40, fractional
    with pytest.raises(ValueError, match="singular"):
        similitude(_mat([[0] * 4] * 4))


def test_bootstrap_suite_seeds():
    for seed in range(1, 6):
        ok, lines = run_suite("bootstrap-oracle", seed)
        assert ok, lines


def _random_p_element_reference(rng, p):
    """The Fraction `_random_p_element` that the integer draw replaced."""
    while True:
        A = [
            [
                Fraction(rng.randint(-9, 9)) * Fraction(p) ** rng.randint(-2, 2)
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if det != 0:
            break
    u = Fraction(rng.choice([1, -1, 2, 3, 5, 7])) * Fraction(p) ** rng.randint(-2, 2)
    # A-hat = w A^(-t) w with w = antidiag(1, 1): entries (wMw)_ij = M_(1-i)(1-j)
    Ainv = _inv2(A)
    AinvT = [[Ainv[0][0], Ainv[1][0]], [Ainv[0][1], Ainv[1][1]]]
    Ahat = [[AinvT[1][1], AinvT[1][0]], [AinvT[0][1], AinvT[0][0]]]
    q = _mat(
        [
            [A[0][0], A[0][1], 0, 0],
            [A[1][0], A[1][1], 0, 0],
            [0, 0, u * Ahat[0][0], u * Ahat[0][1]],
            [0, 0, u * Ahat[1][0], u * Ahat[1][1]],
        ]
    )
    # multiply by an upper unipotent inside P
    x, y, z = (Fraction(rng.randint(-6, 6)) for _ in range(3))
    q = mat_mul(q, upper_unipotent(x, y, z))
    v = valuation(det / u, p)
    return q, v


def _random_integral_k_reference(rng, p):
    """The Fraction `_random_integral_k` that the integer draw replaced."""
    gens = []
    for _ in range(rng.randint(4, 10)):
        c = rng.randrange(6)
        if c == 0:
            gens.append(S1)
        elif c == 1:
            gens.append(S2)
        elif c == 2:
            gens.append(upper_unipotent(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)))
        elif c == 3:
            gens.append(lower_unipotent(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)))
        elif c == 4:
            a = rng.choice([1, -1, 1 + p, 1 - p])
            b = rng.choice([1, -1, 1 + p])
            u = rng.choice([1, -1])
            gens.append(_mat([[a, 0, 0, 0], [0, b, 0, 0], [0, 0, Fraction(u, b), 0], [0, 0, 0, Fraction(u, a)]]))
        else:
            x = rng.choice([1, 2, p - 1, p + 1])
            gens.append(c0_matrix(x))
    return mat_mul(*gens)


def test_integer_bootstrap_draws_match_fraction_reference():
    # the same seed draws the same elements: q k as an integer matrix is a
    # nonzero integer multiple of the Fraction product, with the same v
    for seed in (1, 2, 3, 4, 5, 1234):
        for p in (3, 5):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(200):
                # the rng order of `bootstrap_minor_valuation`: x, then q, then k
                x = Fraction(ref.randint(1, 50), ref.randint(1, 50)) * Fraction(p) ** ref.randint(-3, 3)
                assert Fraction(rng.randint(1, 50), rng.randint(1, 50)) * Fraction(p) ** rng.randint(-3, 3) == x
                q, v_ref = _random_p_element_reference(ref, p)
                g = mat_mul(q, _random_integral_k_reference(ref, p))
                Q, v = _random_p_element(rng, p)
                G = _int_mul(Q, _random_integral_k(rng, p))
                assert v == v_ref == spherical_weight(g, p), (seed, p)
                assert all(type(y) is int for row in G for y in row)
                c = next(Fraction(y) / z for G_row, g_row in zip(G, g) for y, z in zip(G_row, g_row) if z)
                assert c != 0 and c.denominator == 1, (seed, p, c)
                assert G == tuple(tuple(c * z for z in row) for row in g), (seed, p)


def _sl2_lower_identity_reference(x):
    """The Fraction product that the integer `sl2_lower_identity` replaced."""
    a = ((1, Fraction(1, x)), (0, 1))
    b = ((Fraction(-1, x), 0), (0, -x))
    w = ((0, 1), (-1, 0))

    def mul2(u, v):
        return tuple(
            tuple(sum(u[i][k] * v[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    rhs = mul2(mul2(mul2(a, b), w), a)
    return rhs == ((1, 0), (Fraction(x), 1))


def test_sl2_identity_matches_fraction_product():
    rng = random.Random(8)
    xs = [7, -3, 1]
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        num = rng.choice([-1, 1]) * rng.randint(1, 50)
        xs.append(Fraction(num, rng.randint(1, 50)) * Fraction(p) ** rng.randint(-3, 3))
    for x in xs:
        assert sl2_lower_identity(x) is _sl2_lower_identity_reference(x) is True, x
    with pytest.raises(ValueError):
        sl2_lower_identity(Fraction(0))


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


def test_unramified_exact_vs_closed_form_higher_order():
    # chi_p(p) of order 3, 4 and 6 with its conjugate, over the grid of
    # `verify unramified`, which itself runs only chi_p(p) = +-1
    roots = [RootU(Fraction(j, d)) for d in (3, 4, 6) for j in range(1, d) if math.gcd(j, d) == 1]
    points = 0
    for p in (3, 5):
        for e in range(3):
            for f in range(e, 3):
                for L in (-1, 0, 1):
                    T = _good_T(p, e, f, L)
                    for zeta in roots:
                        for s in (4, 5):
                            formula = unramified_local_factor(GoodPlaceInput(p, zeta, L, e, f, s))
                            assert formula == unramified_integral_exact(T, p, zeta, s), (p, e, f, L, zeta, s)
                            points += 1
    assert points == 432


def test_m_mu_memo_matches_unmemoised(monkeypatch):
    # every argument tuple of the `unramified` suite and of the higher-order
    # grid, in call order, against the undecorated function: equal value and
    # type.  RootU(1/2) equals and hashes like Fraction(-1), so it is called
    # after the Fraction(-1) tuples are in the memo.
    from siegeleis import oracle

    memo = oracle._m_mu
    calls = []

    def record(*args):
        calls.append(args)
        return memo(*args)

    monkeypatch.setattr(oracle, "_m_mu", record)
    memo.cache_clear()
    ok, lines = run_suite("unramified")
    assert ok, lines
    distinct = len(set(calls))
    assert distinct < len(calls)
    assert memo.cache_info().misses == distinct
    roots = [RootU(Fraction(j, d)) for d in (3, 4, 6) for j in range(1, d) if math.gcd(j, d) == 1]
    for p in (3, 5):
        for e in range(3):
            for f in range(e, 3):
                for L in (-1, 0, 1):
                    for zeta in roots:
                        for s in (4, 5):
                            unramified_integral_exact(_good_T(p, e, f, L), p, zeta, s)
    minus_one = [c for c in calls if type(c[4]) is Fraction and c[4] == -1]
    assert minus_one
    calls += [c[:4] + (RootU(Fraction(1, 2)),) + c[5:] for c in minus_one]
    memo.cache_clear()
    for args in calls:
        got, want = memo(*args), memo.__wrapped__(*args)
        assert got == want and type(got) is type(want), args


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


def test_riemann_sum_ramified_matches_support_sum():
    # the window p^(-A) Z_p holds the support shells i <= A - n_p, so the two
    # sums agree within both tails; for r != 0 the imaginary part exceeds the
    # tails, so a conjugated phase would fail
    eta = next(chi for chi in primitive_characters_mod(5) if chi.order() == 4)
    cases = [(_quadratic_local(3, c), 3, T) for c in (1, -1) for T in ((1, 1, 9), (2, 3, 9), (1, 0, 9))]
    cases.append((local_component(eta, 5), 2, (1, 1, 25)))
    with mp_workdps():
        for chi, A, (n, r, m) in cases:
            T = HalfIntegralForm(n, r, m)
            val, win = brute_force_local_integral(T, chi.p, chi, 4, TruncationWindow(A, 0, Fraction(0)))
            exact, tail = ramified_integral_exact(T, chi, 4, i_max=A - chi.n_p)
            assert abs(val - exact) <= float(win.tail + tail)
            if r:
                assert abs(val.imag) > float(win.tail + tail)


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
    # the Hensel prune needs a ramified chi_p
    unramified = local_component(DirichletCharacter(5, 2), 3)
    assert unramified.n_p == 0
    with pytest.raises(ValueError):
        k_oracle(HalfIntegralForm(1, 3, 9), unramified, 4)


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


def _assert_k_oracle_within_reference(T, chi, s, j_extra):
    got, bound = k_oracle(T, chi, s)
    want, want_bound = _k_oracle_reference(T, chi, s, j_extra)
    assert bound == 0
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        assert abs(got - want) <= want_bound, (T, chi.p, s, j_extra)
    else:
        with mp_workdps(64):
            assert abs(to_mpc(got) - to_mpc(want)) <= to_mpc(want_bound).real, (T, chi.p, s, j_extra)
    return got


def test_k_oracle_matches_fraction_refinement_quadratic():
    # the K-table grid of the verify suite.  chi(p), s and j_extra rotate
    # over the forms to keep the Fraction reference within a few seconds.
    # The exact oracle lies within the reference's certified tail of the
    # reference value, and equals the closed form exactly.
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
            T = HalfIntegralForm(*nrm)
            got = _assert_k_oracle_within_reference(T, chi, s, j_extra)
            assert got == K_closed_form(RamifiedPlaceInput(p, chi, T, s)).value, (T, p, s)


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
        _assert_k_oracle_within_reference(HalfIntegralForm(*nrm), chi, s, j_extra)
    # a class below the support raises in both (the oracle a domain error, the
    # reference its assertion); at p | r that takes v(m) < 2 n_p
    chi = local_component(DirichletCharacter.from_label("9:2"), 3)
    with pytest.raises(ValueError, match=r"j >= 1 - n_p"):
        k_oracle(HalfIntegralForm(1, 3, 9), chi, 4)
    with pytest.raises(AssertionError):
        _k_oracle_reference(HalfIntegralForm(1, 3, 9), chi, 4, 1)
    with pytest.raises(AssertionError):
        _k_oracle_reference(HalfIntegralForm(1, 1, 81), chi, 4, 1)
    # at v(r) = 0 the support lies below j = 1 - n_p, so the oracle refuses
    # before its walk
    with pytest.raises(ValueError, match=r"K needs p \| r"):
        k_oracle(HalfIntegralForm(1, 1, 81), chi, 4)


def _v(x, p):
    return valuation(x, p) if x else math.inf


def _dropped_leaf_sums(T, chi, s, extra_depth):
    """Walk the class tree without the Hensel prune, in Fractions.

    Returns {(u, d): [(L_0, S_0), (L_1, S_1), ...]} over the classes the
    prune drops (the first such class on each path), where L_c leaves below
    the class are resolved by depth d + c and S_c is their sum, and the sum
    of the resolved leaves outside those classes.
    """
    p, n_p = chi.p, chi.n_p
    n, r, m = T.n, T.r, T.m

    def G(x):
        return n * p ** (2 * n_p) + r * x * p**n_p + m * x * x

    X = Fraction(p) ** (2 - s)

    def leaf(u, d):
        # the leaf value if u + p^d Z_p is resolved, else None
        g = G(u)
        if g % p**d == 0:
            return None
        vg = valuation(g, p)
        if d < vg + n_p or d < n_p:
            return None
        arg = Fraction(g, p ** (2 * n_p)) / u
        return chi.value(arg).as_scalar() * Fraction(p) ** (-d) * X ** (vg - 2 * n_p)

    def dropped(u, d):
        # the condition of the prune, from its statement
        g = G(u)
        w = _v(r * p**n_p + 2 * m * u, p)
        return g % p**d == 0 and d > w and _v(g, p) >= d + w and d >= n_p and d + _v(m, p) - w >= n_p

    sums, outside = {}, Fraction(0)
    stack = [(u, 1) for u in range(1, p)]
    while stack:
        u, d = stack.pop()
        if dropped(u, d):
            sums[(u, d)] = []
            level = [(u, d)]
            count, total = 0, Fraction(0)
            for _ in range(extra_depth + 1):
                nxt = []
                for uu, dd in level:
                    val = leaf(uu, dd)
                    if val is None:
                        nxt.extend((uu + p**dd * t, dd + 1) for t in range(p))
                    else:
                        count, total = count + 1, total + val
                sums[(u, d)].append((count, total))
                level = nxt
            continue
        val = leaf(u, d)
        if val is None:
            stack.extend((u + p**d * t, d + 1) for t in range(p))
        else:
            outside = outside + val
    return sums, outside


def test_k_oracle_prune_drops_exact_zeros():
    # every class the Hensel prune drops, walked on with a growing depth cap,
    # has resolved leaves summing to exactly 0 at every cap; the leaves
    # outside the dropped classes sum to the oracle's value
    # (character, form, s, levels walked below each dropped class)
    cases = [
        (_quadratic_local(3, 1), (1, 0, 18), 4, 5), (_quadratic_local(3, -1), (2, 0, 9), 5, 5),
        (_quadratic_local(3, -1), (1, 3, 27), 4, 5), (_quadratic_local(5, -1), (1, 5, 75), 5, 4),
        ("5:2", (1, 0, 25), 4, 4), ("5:2", (1, 10, 50), 5, 4), ("7:3", (1, 7, 49), 4, 4),
        ("9:2", (1, 9, 243), 5, 6), ("4:3", (1, 4, 32), 5, 8), ("4:3", (2, 4, 16), 4, 8),
        ("8:5", (2, 8, 64), 4, 9),
    ]
    for chi, nrm, s, extra in cases:
        if isinstance(chi, str):
            eta = DirichletCharacter.from_label(chi)
            chi = local_component(eta, min(q for q in (2, 3, 5, 7) if eta.modulus % q == 0))
        T = HalfIntegralForm(*nrm)
        sums, outside = _dropped_leaf_sums(T, chi, s, extra)
        assert sums, (T, chi.p)
        for key, partial in sums.items():
            assert partial[-1][0] > 0, (T, chi.p, key)  # some leaves were resolved
            assert all(total == 0 for _, total in partial), (T, chi.p, key, partial)
        assert k_oracle(T, chi, s) == (outside, 0), (T, chi.p)


def test_k_oracle_sign_symmetry():
    # mu -> -mu maps the j-sum of (n, r, m) to that of (n, -r, m) times
    # chi_p(-1), exactly, where only the oracle computes K
    forms = {
        "5:2": [(1, 5, 25), (2, 10, 125), (3, 5, 50)],
        "13:2": [(1, 13, 169), (2, 13, 338)],
        "4:3": [(1, 4, 16), (3, 2, 16), (1, 8, 48)],
        "8:5": [(1, 8, 64), (3, 4, 64), (1, 2, 128)],
        "16:3": [(1, 16, 256), (3, 8, 256)],
    }
    for label, nrms in forms.items():
        eta = DirichletCharacter.from_label(label)
        p = min(q for q in (2, 5, 13) if eta.modulus % q == 0)
        chi = local_component(eta, p)
        sign = chi.unit_value(-1).as_scalar()
        for nrm in nrms:
            for s in (4, 5):
                T = HalfIntegralForm(*nrm)
                plus, _ = k_oracle(T, chi, s)
                minus, _ = k_oracle(HalfIntegralForm(T.n, -T.r, T.m), chi, s)
                assert minus == sign * plus, (label, nrm, s)


def _k_oracle_walk_reference(T, chi, s):
    """The integer class walk of `k_oracle` before its early leaves, kept as it was.

    A class is a leaf only once d >= v(G(u)) + n_p and d >= n_p.
    """
    p, n_p = chi.p, chi.n_p
    n, r, m = T.n, T.r, T.m
    vm = _v(m, p)
    c0, c1 = n * p ** (2 * n_p), r * p**n_p
    mod = p**n_p
    leaves = Counter()
    stack = [(u, 1) for u in range(1, p)]
    while stack:
        u, d = stack.pop()
        g = c0 + c1 * u + m * u * u
        v = _v(g, p)
        if d >= v + n_p and d >= n_p:
            j = v - 2 * n_p
            if j < 1 - n_p:
                raise AssertionError("support violates j >= 1 - n_p")
            leaves[(j, d, g // p**v * pow(u, -1, mod) % mod)] += 1
            continue
        if v >= d and (w := _v(c1 + 2 * m * u, p)) < d <= v - w and d + vm - w >= n_p:
            continue
        stack.extend((u + p**d * t, d + 1) for t in range(p))
    X = Fraction(p) ** (2 - s)
    total = Fraction(0)
    for (j, d, unit), count in leaves.items():
        val = (chi.chi_at_p**j * chi.unit_value(unit)).as_scalar()
        total = total + val * (count * Fraction(p) ** (-d) * X**j)
    return total


def test_k_oracle_early_leaves_match_the_full_walk():
    # every primitive eta with N <= 16 (p = 2 with n_p up to 4, orders 4, 6
    # and 12 among them) at every p | N, on forms with p | r; the last two
    # forms have v(m) < 2 n_p, where both walks refuse a term below the support
    checked = refused = 0
    places = set()
    for N in range(2, 17):
        for eta in primitive_characters_mod(N):
            for p, _ in factorize(N):
                chi = local_component(eta, p)
                places.add((p, chi.n_p, eta.order()))
                q = p ** (2 * chi.n_p)
                forms = [
                    (1, 0, q), (1, p, q), (2, -p, 3 * q), (p, 2 * p, p * q), (p * p, p * p, q),
                    (p, p, p), (1, 0, p),
                ]
                for nrm in forms:
                    T = HalfIntegralForm(*nrm)
                    for s in (4, 5):
                        try:
                            want = _k_oracle_walk_reference(T, chi, s)
                        except AssertionError:
                            with pytest.raises(ValueError, match=r"j >= 1 - n_p"):
                                k_oracle(T, chi, s)
                            refused += 1
                            continue
                        assert k_oracle(T, chi, s) == (want, 0), (eta.label, p, nrm, s)
                        checked += 1
    assert (checked, refused) == (480, 192)
    assert {(2, 2), (2, 3), (2, 4), (3, 2)} <= {(p, n_p) for p, n_p, _ in places}
    assert {4, 6, 12} <= {order for _, _, order in places}


def test_k_oracle_walk_stops_at_depth_n_p_where_G_is_fixed(monkeypatch):
    # on these forms G(u) is constant mod p^(v(G(u)) + n_p) on every class of
    # depth n_p (checked by enumeration), so every such class is a leaf and
    # the walk visits exactly the p^(n_p) - 1 unit classes of depth 1..n_p.
    # k_oracle takes two valuations per class, plus v(m) and v(Delta).
    from siegeleis import oracle

    calls = Counter()

    def counting(x, p):
        calls["v"] += 1
        return _v(x, p)

    monkeypatch.setattr(oracle, "_v", counting)
    cases = [
        ("9:2", 3, (1, 3, 81)), ("25:2", 5, (1, 5, 625)), ("16:3", 2, (1, 2, 256)),
        ("7:3", 7, (2, 7, 49)), ("8:5", 2, (3, 4, 64)),
    ]
    for label, p, (n, r, m) in cases:
        chi = local_component(DirichletCharacter.from_label(label), p)
        n_p = chi.n_p

        def G(x):
            return n * p ** (2 * n_p) + r * x * p**n_p + m * x * x

        for u in range(1, p**n_p):
            if u % p:
                top = p ** (_v(G(u), p) + n_p)
                assert all((G(u + p**n_p * t) - G(u)) % top == 0 for t in range(top // p**n_p)), (label, u)
        calls.clear()
        k_oracle(HalfIntegralForm(n, r, m), chi, 5)
        assert calls["v"] == 2 + 2 * (p**n_p - 1), label


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
    # p must be prime and the residue depth at least 1 (at B = 0 no residue
    # would be counted, and the volume would read 0)
    T = HalfIntegralForm(1, 0, 1)
    for p in (0, 1, 4, 6):
        with pytest.raises(ValueError, match="prime"):
            volume_R(0, 0, T, p, 8)
    for B in (0, -1):
        with pytest.raises(ValueError, match="depth"):
            volume_R(0, 0, T, 3, B)
    assert {volume_R(0, 0, T, 3, B) for B in (1, 2, 8)} == {Fraction(2, 3)}


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
