"""Command-line surface.

Subcommands: `coeff` (one Fourier coefficient), `expand` (all coefficients
up to a trace bound), `local` (closed-form local quantities, optionally next
to their oracle values), `verify` (the named acceptance suites).  At each
place p | N, `coeff` and `expand` take K from the closed-form table where it
has a row and from its exact defining sum elsewhere; each record's notes
name the route.

Output is one record per line, JSONL by default or CSV, with stable field
names {n, r, m, value, mode, notes}.  Exact rationals are printed as
"num/den" strings, never as floats; numeric values as a "re,im" decimal
pair at the stated precision.

Exit codes: 0 success, 1 a failed `verify` suite, 2 domain error, 4
uncertified oracle (`local volume` at a residue depth too small to decide).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from fractions import Fraction

from . import __version__, lvalues
from .arith import HalfIntegralForm, is_prime
from .characters import DirichletCharacter, power_character, product_with_kronecker
from .fourier import (
    CoefficientRecord,
    EisensteinSpec,
    _spec_invariants,
    coefficient,
    expand,
    format_value,
)
from .localfactors import h_tilde
from .scalars import get_precision, precision_from_env, set_precision

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_UNCERTIFIED = 4

# the memos of the expand path that `expand --stats` reports
_MEMOS = {
    "localfactors.h_tilde": h_tilde,
    "characters.product_with_kronecker": product_with_kronecker,
    "characters.power_character": power_character,
    "lvalues.l_quadratic_exact": lvalues.l_quadratic_exact,
    "fourier._spec_invariants": _spec_invariants,
}


def _spec_from(args) -> EisensteinSpec:
    eta = DirichletCharacter.from_label(args.character)
    return EisensteinSpec(args.weight, eta)


def _record_fields(rec: CoefficientRecord) -> dict:
    return {
        "n": rec.T.n,
        "r": rec.T.r,
        "m": rec.T.m,
        "value": format_value(rec),
        "mode": rec.mode,
        "notes": ";".join(rec.notes),
    }


def _emit(rows: list[dict], fmt: str, header: dict | None = None) -> None:
    if fmt == "jsonl":
        if header is not None:
            print(json.dumps({"header": header}, sort_keys=True))
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=["n", "r", "m", "value", "mode", "notes"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(out.getvalue())


def _header(spec: EisensteinSpec) -> dict:
    return {
        "weight": spec.k,
        "character": spec.eta.label,
        "precision_bits": get_precision(),
        "version": __version__,
        # exact rationals at level one; for N > 1 values are floating
        # high-precision complex -- algebraicity over Q(eta-values) is not
        # claimed for N > 1
        "value_semantics": "exact-rational" if spec.N == 1 else "numeric-unproven-algebraicity",
    }


def cmd_coeff(args) -> int:
    spec = _spec_from(args)
    T = HalfIntegralForm(args.n, args.r, args.m)
    rec = coefficient(spec, T)
    _emit([_record_fields(rec)], args.format)
    return EXIT_OK


def _memo_hits_misses() -> dict:
    return {name: fn.cache_info()[:2] for name, fn in _MEMOS.items()}


def _stats(recs: list[CoefficientRecord], before: dict) -> dict:
    """Records per mode and per place note, and the memo hits and misses since `before`."""
    memos = {}
    for name, (hits, misses) in _memo_hits_misses().items():
        memos[name] = {"hits": hits - before[name][0], "misses": misses - before[name][1]}
    memos["lvalues.dirichlet_l"] = {"size": len(lvalues._L_VALUES)}
    return {
        "records": len(recs),
        "modes": Counter(rec.mode for rec in recs),
        "notes": Counter(note for rec in recs for note in rec.notes),
        "memos": memos,
    }


def cmd_expand(args) -> int:
    spec = _spec_from(args)
    before = _memo_hits_misses()
    recs = expand(spec, args.bound, suppress_zero=not args.include_zero)
    _emit([_record_fields(r) for r in recs], args.format, header=_header(spec))
    if args.stats:
        print(json.dumps({"stats": _stats(recs, before)}, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def _parse_T(text: str) -> HalfIntegralForm:
    try:
        n, r, m = (int(x) for x in text.split(","))
    except Exception as exc:
        raise ValueError(f"bad form {text!r}; expected 'n,r,m'") from exc
    return HalfIntegralForm(n, r, m)


def cmd_local(args) -> int:
    from .characters import local_component
    from .localfactors import (
        GoodPlaceInput,
        K_closed_form,
        RamifiedPlaceInput,
        ramified_K,
        ramified_local_factor,
        unramified_local_factor,
    )
    from .oracle import k_oracle, ramified_integral_exact, volume_R
    from .scalars import to_mpc
    from .verify import _quadratic_local

    import mpmath

    if args.which == "unramified":
        inp = GoodPlaceInput(args.p, Fraction(args.chip), args.L, args.e, args.f, args.s)
        val = unramified_local_factor(inp)
        print(json.dumps({"which": "unramified", "value": str(val)}))
        return EXIT_OK
    if args.which == "volume":
        T = _parse_T(args.T)
        val = volume_R(args.i, args.j, T, args.p, args.B)
        print(json.dumps({"which": "volume", "value": str(val)}))
        return EXIT_OK
    if args.character is not None:
        chi = local_component(DirichletCharacter.from_label(args.character), args.p)
    elif args.p == 2 or not is_prime(args.p):
        raise ValueError(f"the quadratic character (no -c) needs an odd prime, not -p {args.p}")
    else:
        chi = _quadratic_local(args.p, args.chip)
    T = _parse_T(args.T)
    if args.which == "K":
        res = K_closed_form(RamifiedPlaceInput(args.p, chi, T, args.s))
        oracle_val, bound = k_oracle(T, chi, args.s)
        row = {
            "which": "K",
            "closed_form": str(res.value) if res.provenance == "closed-form" else None,
            "provenance": res.provenance,
            "oracle": str(oracle_val),
            "oracle_tail": str(bound),
        }
        print(json.dumps(row))
        return EXIT_OK
    # ramified: closed form, with K as the a(T) assembly reads it, and oracle
    place = RamifiedPlaceInput(args.p, chi, T, args.s)
    closed = ramified_local_factor(place, ramified_K(place)[0])
    oracle_val, tail = ramified_integral_exact(T, chi, args.s)
    diff = abs(to_mpc(closed) - oracle_val)
    print(
        json.dumps(
            {
                "which": "ramified",
                "closed_form": mpmath.nstr(to_mpc(closed), 25),
                "oracle": mpmath.nstr(oracle_val, 25),
                "difference": mpmath.nstr(diff, 5),
                "oracle_tail": str(tail),
            }
        )
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    print(f"seed: {args.seed}")
    ok, lines = run_suite(args.suite, args.seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="siegeleis",
        description="Fourier coefficients of paramodular Siegel Eisenstein series",
    )
    ap.add_argument("--precision", type=int, default=None, help="working precision in bits")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-k", "--weight", type=int, required=True)
        sp.add_argument("-c", "--character", required=True, help="character label N:index")
        sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    sp = sub.add_parser("coeff", help="one Fourier coefficient a(T)")
    common(sp)
    sp.add_argument("n", type=int)
    sp.add_argument("r", type=int)
    sp.add_argument("m", type=int)
    sp.set_defaults(fn=cmd_coeff)

    sp = sub.add_parser("expand", help="all coefficients with n + m <= bound")
    common(sp)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--include-zero", action="store_true")
    sp.add_argument(
        "--stats",
        action="store_true",
        help="one JSON line on stderr: records per mode and place note, memo hits and misses",
    )
    sp.set_defaults(fn=cmd_expand)

    # no abbreviations: a removed option must not be read as a prefix of another
    sp = sub.add_parser("local", help="local factors, closed form vs oracle", allow_abbrev=False)
    sp.add_argument("which", choices=("unramified", "ramified", "K", "volume"))
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-s", type=int, default=4)
    sp.add_argument("-T", help="form as n,r,m")
    sp.add_argument("-e", type=int, default=0)
    sp.add_argument("-f", type=int, default=0)
    sp.add_argument("-L", type=int, default=1, choices=(-1, 0, 1))
    sp.add_argument("--chip", type=int, default=1, choices=(1, -1), help="chi_p(p)")
    sp.add_argument(
        "-c",
        "--character",
        default=None,
        help="character label N:index; its local component at p (without -c: the ramified "
        "quadratic character at an odd prime p, with chi_p(p) from --chip)",
    )
    sp.add_argument("-i", type=int, default=0)
    sp.add_argument("-j", type=int, default=0)
    sp.add_argument("-B", type=int, default=8)
    sp.set_defaults(fn=cmd_local)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite")
    sp.add_argument("--seed", type=int, default=1234)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    """Run one command; the working precision it sets is restored on every exit."""
    args = build_parser().parse_args(argv)
    caller_bits = get_precision()
    try:
        bits = args.precision if args.precision is not None else precision_from_env()
        if bits is not None:
            set_precision(bits)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        # oracle.volume_R raises this when its residue depth B cannot decide
        # membership (`local volume`); imported here to keep oracle out of start-up
        from .oracle import UncertifiedOracleError

        if isinstance(exc, UncertifiedOracleError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNCERTIFIED
        raise
    finally:
        set_precision(caller_bits)


if __name__ == "__main__":
    sys.exit(main())
