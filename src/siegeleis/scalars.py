"""Exact scalars of the shape q * pi^a * sqrt(d), plus numeric conversion.

The level-1 Fourier coefficients are rational, but the intermediate factors
are not: the archimedean prefactor carries pi^(2k-1), the zeta values carry
pi^k and pi^(2k-2), and det(T)^(k-3/2) together with the odd quadratic
L-value carries sqrt(|D|) on both sides.  `Exact` keeps those symbols
symbolic so the cancellation is literal: multiply everything, then check
the pi-exponent is 0 and the radicand is 1 and read off the rational.  The
coefficient q is a Fraction or a `Cyclotomic`, so character values, Gauss
sums and the ramified local factors of level N > 1 multiply in exactly too.

Numeric work (any character of order > 2) uses mpmath at a configurable
binary precision of at least 53 bits; `set_precision`/`get_precision`
holds the default, which the SIEGELEIS_PRECISION environment variable sets
at import and the CLI can override by flag.  The CLI rejects an invalid
value from either source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .arith import factorize
from .cyclotomic import Cyclotomic, RootU

__all__ = ["Exact", "set_precision", "get_precision", "precision_from_env", "mp_workdps", "to_mpc"]

_DEFAULT_PRECISION_BITS = 192


def precision_from_env() -> int | None:
    """SIEGELEIS_PRECISION in bits, or None when unset.

    Raises ValueError unless it is an integer of at least 53.
    """
    text = os.environ.get("SIEGELEIS_PRECISION")
    if text is None:
        return None
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if bits < 53:
        raise ValueError(f"SIEGELEIS_PRECISION={text!r} is not an integer of at least 53 bits")
    return bits


try:
    _precision_bits = precision_from_env() or _DEFAULT_PRECISION_BITS
except ValueError:  # the CLI reports it; the library keeps the default
    _precision_bits = _DEFAULT_PRECISION_BITS


def set_precision(bits: int) -> None:
    global _precision_bits
    if bits < 53:
        raise ValueError(f"precision {bits} is below the supported 53 bits")
    _precision_bits = bits


def get_precision() -> int:
    return _precision_bits


class mp_workdps:
    """Context manager running mpmath at the configured binary precision."""

    def __init__(self, extra_bits: int = 16):
        self.prec = _precision_bits + extra_bits

    def __enter__(self):
        self._old = mpmath.mp.prec
        mpmath.mp.prec = self.prec
        return mpmath.mp

    def __exit__(self, *exc):
        mpmath.mp.prec = self._old
        return False


@dataclass(frozen=True)
class Exact:
    """The number q * pi^pi_pow * sqrt(root), root a positive integer.

    q is a Fraction or a Cyclotomic; `root` is kept squarefree, and
    multiplication extracts square factors into q.
    """

    q: object  # Fraction | Cyclotomic
    pi_pow: int = 0
    root: int = 1

    @staticmethod
    def of(q) -> "Exact":
        return Exact(Fraction(q))

    @staticmethod
    def sqrt(n: int) -> "Exact":
        if n <= 0:
            raise ValueError("sqrt tag must be positive")
        q, root = _extract_square(n)
        return Exact(q, 0, root)

    def __mul__(self, other):
        if isinstance(other, RootU):
            other = other.as_scalar()
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return Exact(self.q * other, self.pi_pow, self.root)
        if isinstance(other, Exact):
            q2, root = _extract_square(self.root * other.root)
            return Exact(self.q * other.q * q2, self.pi_pow + other.pi_pow, root)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Exact(self.q / other, self.pi_pow, self.root)
        if isinstance(other, Exact):
            if other.q == 0:
                raise ZeroDivisionError
            # 1/sqrt(r) = sqrt(r)/r
            inv = Exact(1 / (other.q * other.root), -other.pi_pow, other.root)
            return self * inv
        return NotImplemented

    def is_rational(self) -> bool:
        q_rational = not isinstance(self.q, Cyclotomic) or self.q.is_rational()
        return self.q == 0 or (q_rational and self.pi_pow == 0 and self.root == 1)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.q.as_fraction() if isinstance(self.q, Cyclotomic) else self.q

    def __repr__(self):
        s = str(self.q)
        if self.pi_pow:
            s += f"*pi^{self.pi_pow}"
        if self.root != 1:
            s += f"*sqrt({self.root})"
        return s


@lru_cache(maxsize=None)
def _extract_square(n: int) -> tuple[Fraction, int]:
    """n = (a**2) * root with root squarefree; returns (a, root), memoised on n."""
    a, root = 1, 1
    for p, e in factorize(n):
        a *= p ** (e // 2)
        if e % 2:
            root *= p
    return Fraction(a), root


def to_mpc(value) -> mpmath.mpc:
    """Coerce any scalar used in this package to an mpmath complex."""
    with mp_workdps():
        if isinstance(value, (int, Fraction)):
            return mpmath.mpc(mpmath.mpf(Fraction(value).numerator) / Fraction(value).denominator)
        if isinstance(value, Exact):
            return to_mpc(value.q) * mpmath.pi**value.pi_pow * mpmath.sqrt(value.root)
        if isinstance(value, (RootU, Cyclotomic)):
            return mpmath.mpc(value.to_mpc())
        if isinstance(value, (mpmath.mpf, mpmath.mpc, float, complex)):
            return mpmath.mpc(value)
    raise TypeError(f"cannot coerce {type(value)} to mpc")
