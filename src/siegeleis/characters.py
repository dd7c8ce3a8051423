"""Dirichlet characters mod N and their local (p-adic) data.

Characters are addressed externally by a Conrey-style label "N:index" and
stored internally by CRT components, one per prime power p^a || N.  Each
component holds integer exponents against fixed generators of (Z/p^a)^x:
the smallest primitive root mod p^2 for odd p, and -1 and 5 for p = 2.
Derived characters (chi_D, chi_D * eta, eta^k) are built component by
component, so conductors, primitive cores and Conrey indices come in closed
form and no character is ever expanded into a table of its values.  All
values are exact roots of unity (`RootU`).

The attached idele class character has local components chi_p read off
the same CRT components: with eta = eta_p * eta^(p), where eta_p is the
component at p (a character mod p^(n_p), n_p = v_p(N)) and eta^(p) the
product of the others,

* conductor exponent a(chi_p) = n_p,
* chi_p(p) = eta^(p)(p) (this is eta(p) when p does not divide N),
* chi_p(u) = eta_p(u)^(-1) on units u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import factorize, fundamental_discriminant, is_prime, valuation
from .cyclotomic import Cyclotomic, RootU

__all__ = [
    "DirichletCharacter",
    "LocalCharacterData",
    "characters_mod",
    "primitive_characters_mod",
    "parity",
    "gauss_sum",
    "local_component",
    "product_with_kronecker",
    "power_character",
    "kronecker_character",
]


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """Smallest primitive root mod p that stays primitive mod p^2."""
    phi = p - 1
    prime_divs = [q for q, _ in factorize(phi)]
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in prime_divs):
            if pow(g, phi, p * p) != 1:
                return g
            return g + p
    raise ValueError(f"{p} has no primitive root")


@lru_cache(maxsize=None)
def _dlog_table(p: int, a: int) -> dict[int, int]:
    """x -> ind(x) for the generator of the cyclic group (Z/p^a)^x, p odd."""
    q = p**a
    g = _primitive_root(p) % q
    table, x = {}, 1
    for i in range(q - q // p):
        table[x] = i
        x = x * g % q
    return table


@lru_cache(maxsize=None)
def _log5_table(a: int) -> dict[int, int]:
    """x -> i with x = +-5^i mod 2^a, for odd x."""
    q = 2**a
    table, x = {}, 1
    for i in range(max(q // 4, 1)):
        table[x] = table[q - x] = i
        x = x * 5 % q
    return table


@lru_cache(maxsize=None)
def _generators(p: int, a: int) -> tuple[tuple[int, dict[int, int], int], ...]:
    """The cyclic factors of (Z/p^a)^x, a >= 1, as (m, log table mod m, order).

    Odd p: one factor, generated by `_primitive_root(p)`, of order phi(p^a).
    p = 2: the sign, generated by -1 and read mod 4, then the factor
    generated by 5 and read mod 2^a; their orders 2 and 2^(a-2) drop to 1
    where the generator is trivial (a <= 2).
    """
    if p != 2:
        q = p**a
        return ((q, _dlog_table(p, a), q - q // p),)
    sign = (4, {1: 0, 3: 1}, 2) if a >= 2 else (2, {1: 0}, 1)
    return (sign, (2**a, _log5_table(a), max(2 ** (a - 2), 1)))


@lru_cache(maxsize=None)
def _fractions(order: int) -> tuple[Fraction, ...]:
    """The exponents j / order in [0, 1), indexed by j."""
    return tuple(Fraction(j, order) for j in range(order))


class _Component:
    """A character of (Z/p^a)^x: generator i of `_generators(p, a)` goes to
    e(exps[i] / order_i)."""

    __slots__ = ("p", "a", "exps")

    def __init__(self, p: int, a: int, exps):
        self.p, self.a = p, a
        self.exps = tuple(e % order for e, (_, _, order) in zip(exps, _generators(p, a)))

    @classmethod
    def from_index(cls, p: int, a: int, index: int) -> "_Component":
        """The component at p^a of the character with Conrey index `index`."""
        return cls(p, a, [table[index % m] for m, table, _ in _generators(p, a)])

    def index(self) -> int:
        """The Conrey index mod p^a: the product of generator^exponent."""
        q = self.p**self.a
        gens = (-1, 5) if self.p == 2 else (_primitive_root(self.p),)
        return math.prod(pow(g, e, q) for g, e in zip(gens, self.exps)) % q

    def _orders(self) -> list[int]:
        """The order of the component on each generator."""
        return [n // math.gcd(n, e) for e, (_, _, n) in zip(self.exps, _generators(self.p, self.a))]

    def order(self) -> int:
        return math.lcm(*self._orders())

    def conductor_exponent(self) -> int:
        if self.p == 2:
            sign, five = self._orders()
            if five > 1:
                return valuation(five, 2) + 2
            return 2 if sign > 1 else 0
        m = self.order()
        return valuation(m, self.p) + 1 if m > 1 else 0

    def at(self, b: int) -> "_Component":
        """The same character of Z_p^x read mod p^b (b >= 1, at least the conductor exponent)."""
        if b < self.conductor_exponent():
            raise ValueError(f"conductor {self.p}^{self.conductor_exponent()} does not divide {self.p}^{b}")
        exps = []
        for e, (_, _, old), (_, _, new) in zip(self.exps, _generators(self.p, self.a), _generators(self.p, b)):
            assert e * new % old == 0
            exps.append(e * new // old)
        return _Component(self.p, b, exps)

    def __mul__(self, other: "_Component") -> "_Component":
        assert (self.p, self.a) == (other.p, other.a)
        return _Component(self.p, self.a, [x + y for x, y in zip(self.exps, other.exps)])

    def __pow__(self, k: int) -> "_Component":
        return _Component(self.p, self.a, [e * k for e in self.exps])


class DirichletCharacter:
    """Dirichlet character mod N with Conrey index, exact root-of-unity values."""

    def __init__(self, modulus: int, index: int = 1):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        index %= modulus
        if modulus > 1 and math.gcd(index, modulus) != 1:
            raise ValueError(f"index {index} not a unit mod {modulus}")
        self._build(modulus, [_Component.from_index(p, a, index) for p, a in factorize(modulus)])

    @classmethod
    def _from_components(cls, modulus: int, components: list[_Component]) -> "DirichletCharacter":
        self = cls.__new__(cls)
        self._build(modulus, components)
        return self

    def _build(self, modulus: int, components: list[_Component]) -> None:
        """Set the label, conductor, order and evaluation terms from the components."""
        self.modulus = modulus
        self._components = tuple(components)
        index = 0
        for comp in components:
            q = comp.p**comp.a
            rest = modulus // q
            index += comp.index() * rest * pow(rest, -1, q)
        self.index = index % modulus if modulus > 1 else 1
        self._conductor = math.prod(comp.p ** comp.conductor_exponent() for comp in components)
        self._order = math.lcm(1, *(comp.order() for comp in components))
        # exponent(x) = sum of w * log(x mod m) over the terms, as a multiple of 1/order
        terms = []
        for comp in components:
            for e, (m, table, n) in zip(comp.exps, _generators(comp.p, comp.a)):
                w = e * self._order // n
                if w:
                    terms.append((m, table, w))
        self._terms = tuple(terms)

    @classmethod
    def from_label(cls, label: str) -> "DirichletCharacter":
        try:
            n, j = label.split(":")
            return cls(int(n), int(j))
        except Exception as exc:
            raise ValueError(f"bad character label {label!r}; expected 'N:index'") from exc

    @property
    def label(self) -> str:
        return f"{self.modulus}:{self.index}"

    def _phase(self, n: int) -> int | None:
        """j with eta(n) = e(j / order), 0 <= j < order, or None when gcd(n, N) > 1."""
        if math.gcd(n, self.modulus) != 1:
            return None
        num = 0
        for m, table, w in self._terms:
            num += w * table[n % m]
        return num % self._order

    def exponent(self, n: int) -> Fraction | None:
        """Exponent t of eta(n) = e(t), or None when gcd(n, N) > 1."""
        j = self._phase(n)
        return _fractions(self._order)[j] if j is not None else None

    def __call__(self, n: int):
        """eta(n) as a RootU, or the integer 0 on non-units."""
        j = self._phase(n)
        return RootU(_fractions(self._order)[j]) if j is not None else 0

    def inverse_value(self, n: int):
        """eta^(-1)(n): conjugate on units, 0 otherwise."""
        j = self._phase(n)
        return RootU(_fractions(self._order)[-j % self._order]) if j is not None else 0

    def conductor(self) -> int:
        return self._conductor

    def is_primitive(self) -> bool:
        return self._conductor == self.modulus

    def is_trivial(self) -> bool:
        return self._conductor == 1

    def order(self) -> int:
        return self._order

    def is_quadratic(self) -> bool:
        """Order dividing 2 (includes the trivial character)."""
        return self._order <= 2

    def at_modulus(self, modulus: int) -> "DirichletCharacter":
        """The character mod `modulus` induced by the same primitive core.

        `modulus` must be a multiple of the conductor.
        """
        if modulus < 1 or modulus % self._conductor:
            raise ValueError(f"conductor {self._conductor} does not divide {modulus}")
        own = {comp.p: comp for comp in self._components}
        comps = []
        for p, b in factorize(modulus):
            comp = own.get(p)
            comps.append(comp.at(b) if comp else _Component.from_index(p, b, 1))
        return DirichletCharacter._from_components(modulus, comps)

    def primitive_core(self) -> "DirichletCharacter":
        """The primitive character inducing this one."""
        return self.at_modulus(self._conductor)

    def lost_euler_primes(self) -> list[int]:
        """Primes dividing the modulus but not the conductor."""
        return [comp.p for comp in self._components if self._conductor % comp.p]

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """The pointwise product, as a character mod the lcm of the moduli."""
        M = math.lcm(self.modulus, other.modulus)
        pairs = zip(self.at_modulus(M)._components, other.at_modulus(M)._components)
        return DirichletCharacter._from_components(M, [x * y for x, y in pairs])

    def __pow__(self, k: int) -> "DirichletCharacter":
        """The pointwise k-th power (k may be negative), mod the same modulus."""
        return DirichletCharacter._from_components(self.modulus, [comp**k for comp in self._components])

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.modulus, self.index))

    def __repr__(self):
        return f"DirichletCharacter({self.label})"


def characters_mod(N: int) -> list[DirichletCharacter]:
    return [DirichletCharacter(N, j) for j in range(1, max(N, 2)) if math.gcd(j, N) == 1] if N > 1 else [DirichletCharacter(1, 1)]


def _primitive_components(p: int, a: int) -> list[_Component]:
    """The characters of (Z/p^a)^x with conductor exponent a."""
    exps = itertools.product(*(range(order) for _, _, order in _generators(p, a)))
    return [comp for comp in (_Component(p, a, e) for e in exps) if comp.conductor_exponent() == a]


def primitive_characters_mod(N: int) -> list[DirichletCharacter]:
    """The primitive characters mod N, in ascending Conrey index.

    A character is primitive exactly when each CRT component at p^a || N has
    conductor exponent a, so only such components are combined.
    """
    local = [_primitive_components(p, a) for p, a in factorize(N)]
    chars = [DirichletCharacter._from_components(N, list(comps)) for comps in itertools.product(*local)]
    return sorted(chars, key=lambda chi: chi.index)


def parity(eta) -> int:
    """0 for even (eta(-1) = 1), 1 for odd."""
    t = eta.exponent(-1)
    assert t is not None
    if t == 0:
        return 0
    if t == Fraction(1, 2):
        return 1
    raise AssertionError("eta(-1) must be +-1")


def _gauss_phase_counts(eta) -> tuple[int, dict[int, int]]:
    """n = lcm(N, ord eta) and the histogram of the phase indices of G(eta).

    The term eta(a) e(a/N) is zeta_n^k with k = j n/ord + a n/N, where
    eta(a) = e(j/ord).
    """
    N, order = eta.modulus, eta.order()
    n = math.lcm(N, order)
    step, scale = n // N, n // order
    counts: dict[int, int] = {}
    for a in range(N):
        j = eta._phase(a)
        if j is None:
            continue
        k = (j * scale + a * step) % n
        counts[k] = counts.get(k, 0) + 1
    return n, counts


def gauss_sum(eta) -> Cyclotomic:
    """G(eta) = sum of eta(a) e(a/N), exact in Q(zeta_lcm(N, order)).

    Accumulates the exponent histogram first and reduces once; every term
    is a single root of unity.
    """
    if eta.modulus == 1:
        return Cyclotomic.from_rational(1)
    n, counts = _gauss_phase_counts(eta)
    coeffs = [0] * n
    for k, count in counts.items():
        coeffs[k] = count
    return Cyclotomic(n, coeffs)


@dataclass(frozen=True)
class LocalCharacterData:
    """Local component chi_p of the idele class character attached to eta.

    `eta_p` is the CRT component of eta at p, a character mod p^(n_p)
    (modulus 1 when n_p = 0), and chi_p(u) = eta_p(u)^(-1) on units.
    """

    p: int
    n_p: int
    chi_at_p: RootU
    eta_p: DirichletCharacter

    def unit_value(self, u: int) -> RootU:
        return self.eta_p.inverse_value(u)

    def value(self, x: Fraction | int) -> RootU:
        """chi_p on a nonzero rational, via v_p and the unit part mod p^(n_p)."""
        x = Fraction(x)
        v = valuation(x, self.p)
        u = x / Fraction(self.p) ** v
        mod = self.p ** max(self.n_p, 1)
        u_int = u.numerator * pow(u.denominator, -1, mod) % mod
        return (self.chi_at_p ** v) * self.unit_value(u_int)

    def is_quadratic(self) -> bool:
        return self.chi_at_p.order <= 2 and self.eta_p.is_quadratic()


def local_component(eta: DirichletCharacter, p: int) -> LocalCharacterData:
    """Local data of the adelization of a primitive eta at the prime p.

    eta_p is the component of eta at p and chi_p(p) the value at p of the
    product of the other components.
    """
    if not eta.is_primitive():
        raise ValueError("adelization requires a primitive character")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    at_p = [comp for comp in eta._components if comp.p == p]
    n_p = at_p[0].a if at_p else 0
    q = p**n_p
    rest = [comp for comp in eta._components if comp.p != p]
    chi_at_p = DirichletCharacter._from_components(eta.modulus // q, rest)(p)
    return LocalCharacterData(p, n_p, chi_at_p, DirichletCharacter._from_components(q, at_p))


def kronecker_character(D: int) -> DirichletCharacter:
    """chi_D = (D/.) as a character mod |D|, for D = 1 or a fundamental discriminant.

    chi_D is the product of the characters of the prime discriminants in D:
    the Legendre symbol at each odd p | D, and at 2 the character 4:3
    (chi_-4), 8:5 (chi_8) or 8:3 (chi_-8).  As the odd prime discriminants
    are 1 mod 4, the 2-part is negative exactly when D / 2^a is 3 mod 4.
    """
    if D == 1:
        return DirichletCharacter(1, 1)
    if D == 0 or D % 4 not in (0, 1) or fundamental_discriminant(D).f != 1:
        raise ValueError(f"{D} is not a fundamental discriminant")
    comps = []
    for p, a in factorize(D):
        if p == 2:
            comps.append(_Component(2, a, (int((D >> a) % 4 == 3), int(a == 3))))
        else:
            comps.append(_Component(p, 1, ((p - 1) // 2,)))
    return DirichletCharacter._from_components(abs(D), comps)


@lru_cache(maxsize=None)
def product_with_kronecker(eta: DirichletCharacter, D: int) -> DirichletCharacter:
    """The pointwise product chi_D * eta as a character mod |D| N (D fundamental or 1).

    Memoised per (eta, D); the returned character is shared and never mutated.
    """
    return (kronecker_character(D) * eta).at_modulus(abs(D) * eta.modulus)


@lru_cache(maxsize=None)
def power_character(eta: DirichletCharacter, k: int) -> DirichletCharacter:
    """eta^k as a character mod N (possibly imprimitive).

    Memoised per (eta, k); the returned character is shared and never mutated.
    """
    return eta**k
