"""Value-level check of coefficient records against stored references.

Records are matched on their key, never on line order or text.  Exact
rationals must be equal.  A numeric value ``re,im`` must agree with the
reference to the printed precision: |value - ref| <= 10^(1 - digits) |ref|,
with the reference computed at a higher working precision and printed with
more digits than the program prints.  A reference whose value is 0 may be
missing from the output; any other missing key, and any key the reference
does not have, is a failure.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

PRINTED_DIGITS = 20


def parse(text: str):
    """A Fraction for ``num/den``, else an mpc for ``re,im``."""
    if "," in text:
        re, im = text.split(",")
        with mpmath.workprec(512):
            return mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
    return Fraction(text)


def is_zero(text: str) -> bool:
    return parse(text) == 0


def agrees(value: str, ref: str, digits: int = PRINTED_DIGITS) -> bool:
    got, want = parse(value), parse(ref)
    if isinstance(want, Fraction) or isinstance(got, Fraction):
        return isinstance(got, Fraction) and isinstance(want, Fraction) and got == want
    with mpmath.workprec(512):
        return abs(got - want) <= mpmath.mpf(10) ** (1 - digits) * abs(want)


def compare(output: dict, reference: dict, digits: int = PRINTED_DIGITS) -> dict:
    """Problems by key: {key: reason}, over the union of both key sets."""
    problems = {}
    for key, value in output.items():
        if key not in reference:
            problems[key] = f"extra record {value}"
        elif not agrees(value, reference[key], digits):
            problems[key] = f"value {value} != reference {reference[key]}"
    for key, ref in reference.items():
        if key not in output and not is_zero(ref):
            problems[key] = f"missing record (reference {ref})"
    return problems


def load_reference(path) -> dict:
    """Reference file: one ``<key fields...> <value>`` line per record."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            *key, value = line.split()
            out[tuple(int(x) if x.lstrip("-").isdigit() else x for x in key)] = value
    return out


def write_reference(path, reference: dict, header: str) -> None:
    with open(path, "w") as fh:
        for line in header.splitlines():
            fh.write(f"# {line}\n")
        for key in sorted(reference, key=lambda k: [(isinstance(x, str), x) for x in k]):
            fh.write(" ".join(map(str, key)) + f" {reference[key]}\n")
