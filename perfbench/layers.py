"""Which functions of the program are traced, and the per-layer metrics.

Each entry names a public function as ``<module>.<function>``.  `install`
replaces the function wherever a caller looks it up: in its home module
(which also serves the imports done inside function bodies, such as
`fourier` importing `h_tilde` and `k_oracle`) and in every module that bound
it with ``from ... import``.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import sys

from tracer import Tracer
from workloads import VERIFY_SUITES

PACKAGE = "siegeleis"


def _class_key(spec, T, *args, **kwargs):
    """(spec, Delta, content): the data a level-one a(T) depends on."""
    content = math.gcd(math.gcd(T.n, T.r), T.m)
    return (spec.k, spec.eta.label, T.delta, content)


def _character_key(k, psi):
    """k and the full value table of the character."""
    return (k, psi.modulus, tuple(psi.exponent(x) for x in range(psi.modulus)))


def _lq_key(n, D):
    return (n, D)


def _note_needs_oracle(tracer: Tracer, result) -> None:
    if result.provenance == "needs-oracle":
        tracer.count("localfactors.K_closed_form.needs_oracle")


def _note_tail(tracer: Tracer, result) -> None:
    tracer.record_max("oracle.k_oracle.max_tail", float(result[1]))


# (name, key function for repeat_frac, result hook)
TRACED = [
    ("fourier.expand", None, None),
    ("fourier.coefficient", _class_key, None),
    ("fourier.format_value", None, None),
    ("lvalues.dirichlet_l", _character_key, None),
    ("lvalues.l_quadratic_exact", _lq_key, None),
    ("lvalues.generalized_bernoulli", None, None),
    ("lvalues.zeta", None, None),
    ("characters.product_with_kronecker", None, None),
    ("characters.kronecker_character", None, None),
    ("characters.power_character", None, None),
    ("characters.gauss_sum", None, None),
    ("characters.local_component", None, None),
    ("localfactors.h_tilde", None, None),
    ("localfactors.K_closed_form", None, _note_needs_oracle),
    ("oracle.k_oracle", None, _note_tail),
    ("oracle.unramified_integral_exact", None, None),
    ("oracle.volume_R", None, None),
    ("oracle.bootstrap_minor_valuation", None, None),
    ("oracle.generating_series_check", None, None),
    ("cyclotomic.Cyclotomic.mul", None, None),
    ("scalars.to_mpc", None, None),
    ("arith.fundamental_discriminant", None, None),
]

REPEAT_FRAC = {
    "fourier.coefficient": "fourier.coefficient.class_repeat_frac",
    "lvalues.dirichlet_l": "lvalues.dirichlet_l.repeat_frac",
    "lvalues.l_quadratic_exact": "lvalues.l_quadratic_exact.repeat_frac",
}

HURWITZ_TERMS = "lvalues.hurwitz_terms"
COUNTERS = ["localfactors.K_closed_form.needs_oracle", HURWITZ_TERMS]
MAXIMA = ["oracle.k_oracle.max_tail"]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in REPEAT_FRAC.values():
        units[name] = "frac"
    for name in COUNTERS:
        units[name] = "count"
    for name in MAXIMA:
        units[name] = "1"
    for suite in VERIFY_SUITES:
        units[f"verify.{suite}.total_s"] = "s"
    units["cli.overhead_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units["fail_frac"] = "frac"
    return units


def _import_all() -> None:
    """Import every module of the package, so `install` sees every binding."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")


def rebind(original, wrapper) -> int:
    """Point every module-level name bound to `original` at `wrapper`."""
    count = 0
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED, and count Hurwitz-zeta terms."""
    import mpmath

    _import_all()
    for name, key, hook in TRACED:
        modname, _, attr = name.partition(".")
        module = sys.modules[f"{PACKAGE}.{modname}"]
        if "." in attr:  # a method: Cyclotomic.mul is Cyclotomic.__mul__ (and __rmul__)
            clsname, method = attr.split(".")
            cls = getattr(module, clsname)
            original = cls.__dict__[f"__{method}__"]
            wrapper = tracer.wrap(name, original, key, hook)
            for dunder in (f"__{method}__", f"__r{method}__"):
                if cls.__dict__.get(dunder) is original:
                    setattr(cls, dunder, wrapper)
            continue
        original = getattr(module, attr)
        if not rebind(original, tracer.wrap(name, original, key, hook)):
            raise RuntimeError(f"found no binding of {name}")

    real_zeta = mpmath.zeta

    def counting_zeta(*args, **kwargs):
        if tracer.current() == "lvalues.dirichlet_l":
            tracer.count(HURWITZ_TERMS)
        return real_zeta(*args, **kwargs)

    mpmath.zeta = counting_zeta


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The traced metrics a child can compute by itself (no wall times)."""
    summary = tracer.summary()
    out = {}
    for name, _, _ in TRACED:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.total_s"] = entry["total_s"]
    for name, metric in REPEAT_FRAC.items():
        out[metric] = summary.get(name, {}).get("repeat_frac", 0.0)
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    for name in MAXIMA:
        out[name] = tracer.maxima.get(name, 0.0)
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.total_s"] = summary.get(f"verify.{suite}", {}).get("total_s", 0.0)
    return out
