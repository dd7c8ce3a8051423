import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from siegeleis.arith import divisors, factorize, fundamental_discriminant, kronecker_symbol, valuation
from siegeleis.characters import (
    DirichletCharacter,
    _gauss_phase_counts,
    characters_mod,
    gauss_sum,
    kronecker_character,
    local_component,
    parity,
    power_character,
    primitive_characters_mod,
    product_with_kronecker,
)
from siegeleis.cyclotomic import Cyclotomic, RootU, root_of_unity
from siegeleis.scalars import get_precision, mp_workdps, set_precision, to_mpc
from siegeleis.verify import gauss_sum_numeric


def test_evaluate_basic():
    triv = DirichletCharacter(1, 1)
    assert all(triv(n) == RootU.one() for n in range(-3, 7))
    eta3 = DirichletCharacter(3, 2)
    assert eta3(2) == RootU(Fraction(1, 2))
    assert eta3(3) == 0
    chi5 = DirichletCharacter(5, 2)
    assert chi5(2) == RootU(Fraction(1, 4))  # order 4 with value i at 2
    assert chi5(4) == RootU(Fraction(1, 2))  # multiplicativity: i^2 = -1


def test_multiplicative():
    rng = random.Random(3)
    for N in (5, 7, 8, 9, 12, 15, 16, 21):
        for eta in characters_mod(N):
            for _ in range(20):
                a, b = rng.randint(1, 100), rng.randint(1, 100)
                va, vb, vab = eta(a), eta(b), eta(a * b)
                if va == 0 or vb == 0:
                    assert vab == 0
                else:
                    assert va * vb == vab
            assert eta(1) == RootU.one()


def test_conductor_primitivity():
    triv6 = DirichletCharacter(6, 1)
    assert triv6.conductor() == 1 and not triv6.is_primitive()
    eta3 = DirichletCharacter(3, 2)
    assert eta3.conductor() == 3 and eta3.is_primitive()
    # characters mod 9 induced from mod 3 have conductor 3
    induced = [c for c in characters_mod(9) if not c.is_primitive() and not c.is_trivial()]
    assert induced and all(c.conductor() == 3 for c in induced)


def _brute_conductor(chi) -> int:
    """The least c | modulus with chi trivial on the units = 1 mod c."""
    M = chi.modulus
    for c in divisors(M):
        if all(chi.exponent(x) == 0 for x in range(1 % c, M + 1, c) if math.gcd(x, M) == 1):
            return c
    raise AssertionError("the modulus itself always qualifies")


def test_conductor_by_restriction():
    # conductor = smallest c with eta trivial on units = 1 mod c
    for N in (8, 9, 12, 15, 16, 24):
        for eta in characters_mod(N):
            assert eta.conductor() == _brute_conductor(eta)


def test_primitive_characters_match_filtered_characters():
    # built from primitive CRT components: the same labels, in the same
    # ascending Conrey order, as filtering every character mod N
    for N in range(1, 301):
        want = [chi.label for chi in characters_mod(N) if chi.is_primitive()]
        assert [chi.label for chi in primitive_characters_mod(N)] == want, N
        if N % 4 == 2:
            assert want == []


def test_parity():
    assert parity(DirichletCharacter(1, 1)) == 0
    assert parity(DirichletCharacter(4, 3)) == 1
    assert parity(DirichletCharacter(5, 2)) == 1
    for N in (3, 5, 7, 8, 12):
        for eta in characters_mod(N):
            val = eta(-1)
            expected = RootU(0) if parity(eta) == 0 else RootU(Fraction(1, 2))
            assert val == expected


def test_gauss_sum_values():
    assert gauss_sum(DirichletCharacter(1, 1)).as_fraction() == 1
    g3 = gauss_sum(DirichletCharacter(3, 2))
    with mp_workdps():
        assert abs(to_mpc(g3) - mpmath.mpc(0, 1) * mpmath.sqrt(3)) < mpmath.mpf(10) ** -40


def test_gauss_sum_conjugate_identity():
    # G(eta) G(eta-bar) = eta(-1) N for primitive eta, N <= 30, exactly
    for N in range(1, 31):
        for eta in primitive_characters_mod(N):
            bar = power_character(eta, -1)
            prod = gauss_sum(eta) * gauss_sum(bar)
            sign = 1 if parity(eta) == 0 else -1
            assert prod.is_rational() and prod.as_fraction() == sign * N


def _gauss_sum_reference(eta) -> Cyclotomic:
    """The Fraction-phase `gauss_sum` that the integer phase histogram replaced."""
    N = eta.modulus
    if N == 1:
        return Cyclotomic.from_rational(1)
    n = math.lcm(N, eta.order())
    coeffs = [0] * n
    for a in range(N):
        t = eta.exponent(a)
        if t is None:
            continue
        k = (t + Fraction(a, N)) * n
        assert k.denominator == 1
        coeffs[k.numerator % n] += 1
    return Cyclotomic(n, coeffs)


def test_gauss_sum_integer_phases_match_fraction_reference():
    with mp_workdps():
        tol = mpmath.mpf(10) ** -40
        for N in range(1, 31):
            for eta in primitive_characters_mod(N):
                got, want = gauss_sum(eta), _gauss_sum_reference(eta)
                assert got == want and (got.n, got.num, got.den) == (want.n, want.num, want.den)
                assert abs(gauss_sum_numeric(eta) - to_mpc(got)) < tol


def _gauss_sum_periods_reference(eta):
    """The mpmath `fsum`/`fdot` Gaussian periods that gauss_sum_numeric replaced, kept as they were."""
    with mp_workdps():
        if eta.modulus == 1:
            return mpmath.mpc(1)
        N, order = eta.modulus, eta.order()
        periods = {}
        for a in range(1, N):
            j = eta._phase(a)
            if j is not None:
                periods.setdefault(j, []).append(root_of_unity(a, N))
        return mpmath.fdot((root_of_unity(j, order), mpmath.fsum(terms)) for j, terms in periods.items())


def test_gauss_sum_integer_periods_match_mpmath_periods():
    # every primitive eta with N <= 50, at two working precisions, within
    # 2^8 units of the last place of the working precision
    saved = get_precision()
    try:
        for bits in (192, 320):
            set_precision(bits)
            with mp_workdps() as ctx:
                tol = mpmath.mpf(2) ** (8 - ctx.prec)
                count = 0
                for N in range(1, 51):
                    for eta in primitive_characters_mod(N):
                        got, want = gauss_sum_numeric(eta), _gauss_sum_periods_reference(eta)
                        assert abs(got - want) <= tol, (bits, eta.label)
                        count += 1
            assert count == 471
    finally:
        set_precision(saved)


def test_local_component_values():
    # single prime power: x_p = 1 mod p^(n_p) forces chi_p(p) = 1
    for label in ("3:2", "5:2", "9:2", "4:3", "8:3"):
        eta = DirichletCharacter.from_label(label)
        p, a = factorize(eta.modulus)[0]
        lc = local_component(eta, p)
        assert lc.chi_at_p == RootU.one()
        assert lc.n_p == a
    # N = 12: chi_3(3) = eta(7) (7 = 3 mod 4, 1 mod 3), chi_2(2) = eta(5)
    for eta in primitive_characters_mod(12):
        assert local_component(eta, 3).chi_at_p == eta(7)
        assert local_component(eta, 2).chi_at_p == eta(5)
    # N = 1: unramified everywhere
    triv = DirichletCharacter(1, 1)
    for p in (2, 3, 5):
        lc = local_component(triv, p)
        assert lc.n_p == 0 and lc.chi_at_p == RootU.one()


def _crt_lift_local_reference(eta, p):
    """chi_p(p) and the table u -> chi_p(u) by CRT lifts (the former
    `local_component` body): chi_p(p) = eta(x_p) with x_p = p mod N/p^(n_p)
    and 1 mod p^(n_p), chi_p(u) = eta(lift)^(-1) with lift = u mod p^(n_p)
    and 1 mod N/p^(n_p)."""
    N = eta.modulus
    n_p = valuation(N, p)
    q = p**n_p
    M = N // q
    x_p = 1 if M == 1 else (1 + q * ((p - 1) * pow(q, -1, M) % M)) % N
    assert x_p % q == 1 and x_p % M == p % M
    table = {}
    for u in range(1, q):
        if u % p:
            lift = u if M == 1 else (u * M * pow(M, -1, q) + q * pow(q, -1, M)) % N
            table[u] = RootU(-eta.exponent(lift))
    return eta(x_p), table


def test_local_component_matches_crt_lift_table():
    checked = 0
    for N in range(2, 80):
        for eta in primitive_characters_mod(N):
            for p, _ in factorize(N):
                lc = local_component(eta, p)
                chi_at_p, table = _crt_lift_local_reference(eta, p)
                q = p**lc.n_p
                assert lc.chi_at_p == chi_at_p and lc.eta_p.modulus == q, (eta.label, p)
                assert {u: lc.unit_value(u) for u in table} == table, (eta.label, p)
                # G(eta_p) term by term: each eta_p(u) e(u/q) is zeta_n^k, and
                # `gauss_sum` reduces the histogram of the k (reducing mod Phi_n
                # at n up to 71 * 70 is what costs; N <= 30 compares reduced sums
                # in `test_local_gauss_sum_histogram_matches_termwise_sum`)
                n = math.lcm(q, *(val.order for val in table.values()))
                terms = Counter()
                for u, val in table.items():
                    t = val.inverse().t
                    terms[(t.numerator * (n // t.denominator) + u * (n // q)) % n] += 1
                assert _gauss_phase_counts(lc.eta_p) == (n, terms), (eta.label, p)
                checked += 1
    assert checked == 1543


def test_local_component_conductor_exponent():
    from siegeleis.arith import valuation

    for N in (3, 4, 5, 8, 9, 12, 15, 16, 24):
        for eta in primitive_characters_mod(N):
            for p in (2, 3, 5):
                n_p = valuation(N, p) if N % p == 0 else 0
                assert local_component(eta, p).n_p == n_p


def test_local_component_needs_primitive():
    with pytest.raises(ValueError):
        local_component(DirichletCharacter(6, 1), 2)


def test_adelization_product_identity():
    # chi_infty(d) prod_{p not | N} chi_p(d) = prod_{p | N} chi_p(d)^(-1) = eta(d)
    rng = random.Random(17)
    for N in (3, 4, 5, 12, 15):
        for eta in primitive_characters_mod(N):
            locs = {p: local_component(eta, p) for p, _ in factorize(N)}
            for _ in range(20):
                d = rng.randint(1, 400)
                if math.gcd(d, N) != 1:
                    continue
                prod = RootU.one()
                for p, lc in locs.items():
                    prod = prod * lc.value(d).inverse()
                assert prod == eta(d)


def test_product_with_kronecker():
    triv = DirichletCharacter(1, 1)
    prod = product_with_kronecker(triv, 1)
    assert prod.modulus == 1 and prod.primitive_core().modulus == 1 and prod.lost_euler_primes() == []
    prod = product_with_kronecker(triv, -4)
    assert prod.modulus == 4 and prod.conductor() == 4 and prod.primitive_core().modulus == 4
    eta4 = DirichletCharacter(4, 3)
    prod = product_with_kronecker(eta4, -4)
    assert prod.primitive_core().modulus == 1 and prod.lost_euler_primes() == [2]
    # product really is the pointwise product
    for x in range(1, 16):
        expect = kronecker_character(-4)(x)
        got = prod(x % 16)
        if math.gcd(x, 16) > 1 or expect == 0:
            continue
        lhs = eta4(x) * expect if eta4(x) != 0 else 0
        assert (lhs == 0 and prod(x) == 0) or prod(x) == lhs


def test_power_character():
    eta5 = DirichletCharacter(5, 2)  # order 4
    sq = power_character(eta5, 2)
    assert sq.order() == 2 and sq.conductor() == 5
    quad = power_character(eta5, 4)
    assert quad.order() == 1 and quad.conductor() == 1


def _fundamental_discriminants(bound: int) -> list[int]:
    return [
        D
        for D in range(-bound, bound + 1)
        if D not in (0, 1) and D % 4 in (0, 1) and fundamental_discriminant(D).f == 1
    ]


def _rebuilt(chi) -> DirichletCharacter:
    """The character named by chi's label."""
    rebuilt = DirichletCharacter.from_label(chi.label)
    assert rebuilt == chi
    return rebuilt


def test_character_algebra_against_brute_force():
    # Every eta mod M <= 64 (including the 2- and 3-power moduli 16, 27, 32)
    # and every fundamental D with |D| <= 100; brute force is kept here.
    rng = random.Random(5)
    Ds = _fundamental_discriminants(100)
    etas = [eta for M in range(1, 65) for eta in characters_mod(M)]
    for i, eta in enumerate(etas):
        M = eta.modulus
        # eta^k is the pointwise k-th power, for every residue
        for k in (-1, 2, 3):
            pw = power_character(eta, k)
            assert pw.modulus == M and pw.conductor() == _brute_conductor(pw)
            for x in range(M):
                t = eta.exponent(x)
                want = None if t is None else (k * t) % 1
                assert pw.exponent(x) == want
                if k == -1:
                    assert eta.inverse_value(x) == (0 if t is None else RootU(want))
            _rebuilt(pw)
        # chi_D * eta for two discriminants per eta; each D meets many etas
        for D in (Ds[i % len(Ds)], Ds[(7 * i + 3) % len(Ds)]):
            prod = product_with_kronecker(eta, D)
            L = abs(D) * M
            assert prod.modulus == L
            c = prod.conductor()
            assert c == _brute_conductor(prod)
            core = prod.primitive_core()
            assert core.modulus == c and core.is_primitive()
            assert prod.lost_euler_primes() == [p for p, _ in factorize(L) if c % p]
            again = _rebuilt(prod)
            for x in rng.sample(range(L), min(L, 64)) + [-1, 1]:
                sym, ex = kronecker_symbol(D, x), eta.exponent(x)
                want = None if sym == 0 or ex is None else (ex + (0 if sym == 1 else Fraction(1, 2))) % 1
                assert prod.exponent(x) == want == again.exponent(x)
                if math.gcd(x, L) == 1:
                    assert core.exponent(x) == want


def test_kronecker_character_matches_symbol():
    # every fundamental |D| <= 200, and D = 1
    for D in [1] + _fundamental_discriminants(200):
        chi = kronecker_character(D)
        assert chi.modulus == abs(D) and chi.is_primitive() and chi.order() == (1 if D == 1 else 2)
        assert chi.conductor() == _brute_conductor(chi)
        _rebuilt(chi)
        for x in range(-abs(D), abs(D) + 40):
            sym = kronecker_symbol(D, x)
            assert chi.exponent(x) == (None if sym == 0 else Fraction(0 if sym == 1 else 1, 2))
            assert chi(x) == (0 if sym == 0 else RootU(0 if sym == 1 else Fraction(1, 2)))
    for D in (0, 2, -1, 9, -12, 20):
        with pytest.raises(ValueError):
            kronecker_character(D)
