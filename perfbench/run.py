"""The siegeleis benchmark: one command runs a workload, checks it, reports.

    python3 perfbench/run.py --workload expand-n1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/trajectory/BENCH_next.json

Run from the root of a source checkout.  Every workload pass runs in a
fresh interpreter, one at a time, in a closed loop with a single client.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass (plus one
untraced pass, to measure the tracing overhead).  `--workload all` runs every
workload both ways, prints each metric with its unit and writes a BENCH file.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFS = HERE / "refs"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    CLI_WORKLOADS,
    PRECISION_BITS,
    VERIFY_SUITES,
    WORKLOADS,
    scatter_queries,
)

SETUP_STARTS = 7  # cold starts per run; setup_s is their median
MIN_PASSES = 3  # passes per run at least, so that every median has a middle
# The calibration loop's time (child._calibration_loop) on the host the
# benchmark was built on, in one of its fast spells; times are reported as if
# every pass had found the host at that speed.
CALIBRATION_REF_S = 0.0035

# What the `detail:` line reports besides the metrics: the operations behind the
# percentiles, the passes, and their wall times as measured and as scaled.
DETAIL = ("samples", "passes", "pass_wall_s", "scaled_wall_s")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "coeff_p50_ms": "ms",
    "coeff_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """One child process: its wall time, exit code and report."""

    wall_s: float
    exit_code: int
    report: dict | None
    stdout: Path


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SIEGELEIS_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SIEGELEIS_PRECISION"] = str(PRECISION_BITS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, tag: str, args: list[str], trace: bool = False, setup_only: bool = False) -> Pass:
    """Start child.py, wait for it, and take its wall time."""
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{workload}.{tag}.report.json"
    stdout_path = OUT / f"{workload}.{tag}.stdout"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report_path)]
    if trace:
        cmd += ["--trace", str(OUT / f"{workload}.spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += args
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=_child_env(), cwd=ROOT)
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    report = None
    if report_path.exists():
        with open(report_path) as fh:
            report = json.load(fh)
    return Pass(wall, proc.returncode, report, stdout_path)


def child_args(workload: str, seed: int) -> list[str]:
    if workload in CLI_WORKLOADS:
        return ["cli", *CLI_WORKLOADS[workload]]
    if workload == "coeff-scatter":
        OUT.mkdir(exist_ok=True)
        path = OUT / "coeff-scatter.inputs.json"
        with open(path, "w") as fh:
            json.dump([q.__dict__ for q in scatter_queries(seed)], fh)
        return ["scatter", str(path)]
    return ["verify", str(seed)]


# --- checking -----------------------------------------------------------------


def check(workload: str, seed: int, p: Pass) -> tuple[int, list[str]]:
    """(attempted, failures): one failure line per failed operation.

    An operation is a record, a query or a suite.  It fails if it raises, if
    its value disagrees with the reference, or if mpmath.mp.prec differs
    after it from before it (for a CLI command: after the whole command).
    """
    if workload in CLI_WORKLOADS:
        return _check_cli(workload, p)
    if workload == "coeff-scatter":
        return _check_scatter(seed, p)
    return _check_verify(p)


def _check_cli(workload: str, p: Pass) -> tuple[int, list[str]]:
    import checker

    reference = checker.load_reference(REFS / f"{workload}.txt")
    output = {}
    if p.exit_code == 0:
        with open(p.stdout) as fh:
            for line in fh:
                row = json.loads(line)
                if "header" not in row:
                    output[(row["n"], row["r"], row["m"])] = row["value"]
    keys = set(output) | set(reference)
    if p.exit_code != 0 or p.report is None:
        return len(keys), [f"command exited with {p.exit_code}"] * len(keys)
    if p.report["prec_leaks"]:
        return len(keys), ["mpmath.mp.prec changed across the command"] * len(keys)
    return len(keys), [f"T={k}: {why}" for k, why in checker.compare(output, reference).items()]


def _check_scatter(seed: int, p: Pass) -> tuple[int, list[str]]:
    import checker

    queries = scatter_queries(seed)
    results = (p.report or {}).get("results") or [None] * len(queries)
    reference = checker.load_reference(REFS / "coeff-scatter.txt")
    failures = []
    for q, res in zip(queries, results):
        if res is None:
            why = f"no result (child exited with {p.exit_code})"
        elif res["error"]:
            why = f"raised {res['error']}"
        elif res["prec_leak"]:
            why = "mpmath.mp.prec changed"
        elif q.key in reference:
            agree = checker.agrees(res["value"], reference[q.key])
            why = None if agree else f"{res['value']} != reference {reference[q.key]}"
        else:
            why = None if q.character == "1:1" else "no stored reference"
        if why is None and q.character == "1:1" and not _comparator_agrees(q, res["value"]):
            why = f"{res['value']} != eichler_zagier_coefficient"
        if why:
            failures.append(f"{q.character} k={q.k} T=({q.n},{q.r},{q.m}): {why}")
    return len(queries), failures


def _comparator_agrees(q, value: str) -> bool:
    """Level one: the independent classical route, outside the timed region."""
    from fractions import Fraction

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from siegeleis.arith import HalfIntegralForm
    from siegeleis.fourier import eichler_zagier_coefficient

    want = eichler_zagier_coefficient(HalfIntegralForm(q.n, q.r, q.m), q.k)
    return "," not in value and Fraction(value) == want


def _check_verify(p: Pass) -> tuple[int, list[str]]:
    results = (p.report or {}).get("results") or [None] * len(VERIFY_SUITES)
    failures = []
    for suite, res in zip(VERIFY_SUITES, results):
        if res is None:
            failures.append(f"{suite}: no result (child exited with {p.exit_code})")
        elif res["error"]:
            failures.append(f"{suite}: {res['error']}")
        elif res["prec_leak"]:
            failures.append(f"{suite}: mpmath.mp.prec changed")
    return len(VERIFY_SUITES), failures


# --- measuring ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics: the i-th of n gets the mass of
    Beta((n+1)q, (n+1)(1-q)) on [(i-1)/n, i/n].  A rank-based percentile
    jumps when the quantile falls into a gap of the distribution (the
    `expand-n3` latencies have one at their median); this one moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    weights = _hd_weights(n, q)
    return sum(w * x for w, x in zip(weights, xs))


def _hd_weights(n: int, q: float, steps: int = 16) -> list[float]:
    """Beta((n+1)q, (n+1)(1-q)) mass of each cell [(i-1)/n, i/n].

    Midpoint rule on `steps` points a cell, so the density is never taken at
    0 or 1; the masses are normalised to sum to 1.
    """
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)
    mass = []
    for i in range(n):
        total = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) * h
            total += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        mass.append(total)
    norm = sum(mass)
    return [m / norm for m in mass]


class Tally:
    """Operations attempted and failed, and faults of the harness itself."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def add(self, workload: str, seed: int, p: Pass) -> None:
        attempted, failures = check(workload, seed, p)
        self.attempted += attempted
        self.failures += failures


def scaled(p: Pass, seconds: float) -> float:
    """`seconds` measured over child `p`, on a host at the reference speed.

    The factor is the mean over the child's calibration loops of
    CALIBRATION_REF_S / loop time.
    """
    return seconds * statistics.fmean(CALIBRATION_REF_S / c for c in p.report["calibration_s"])


def scaled_latencies(p: Pass) -> list[float]:
    """The operation latencies of pass `p`, on a host at the reference speed.

    The host's speed changes within a pass, so each latency takes the mean
    factor of the loop just before it and the loop just after it.
    """
    factors = [CALIBRATION_REF_S / c for c in p.report["calibration_s"]]
    after_ops = p.report["calibration_after_ops"]
    out = []
    for j, latency in enumerate(p.report["latencies_s"]):
        k = bisect.bisect_right(after_ops, j)  # loops that ran before operation j
        out.append(latency * statistics.fmean(factors[max(k - 1, 0) : k + 1]))
    return out


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics, tracing off.  Passes repeat until `seconds` is used.

    The host's speed drifts under identical work, by up to 2x and in spells
    of a second to minutes.  So every time is scaled to a host of fixed
    speed (`scaled`, `scaled_latencies`), by a calibration loop that runs no
    code of the program inside each pass and each set-up start
    (child.Calibration).  Wall times are taken less the loops.  `wall_s` and `setup_s` are medians over the
    scaled passes and starts.  An operation's latency is the mean of its
    scaled latencies over the passes, and the percentiles are taken over the
    operations.  A slower program still reads slower, because the loop does
    not change with the program.
    """
    args = child_args(workload, seed)
    setups = [run_child(workload, "setup", args, setup_only=True) for _ in range(SETUP_STARTS)]
    tally.problems += [f"set-up exited with {s.exit_code}" for s in setups if s.exit_code != 0]
    passes = []
    start = time.perf_counter()
    while True:
        # Each pass keeps its own stdout, so the checking can wait until the
        # measuring is done.
        passes.append(run_child(workload, f"work{len(passes)}", args))
        used = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and used + used / len(passes) > seconds:
            break
    for p in passes:
        tally.add(workload, seed, p)
    if not all(p.report and p.report["calibration_s"] for p in setups + passes):
        tally.problems.append("a child reported no calibration loops")
        return {}
    ops = {len(p.report["latencies_s"]) for p in passes}
    if len(ops) != 1 or 0 in ops:
        tally.problems.append(f"the passes reported {sorted(ops)} operation latencies")
        return {}
    walls = [scaled(p, p.wall_s - p.report["calibration_total_s"]) for p in passes]
    # Every pass runs the same operations in the same order.
    per_op = zip(*[scaled_latencies(p) for p in passes])
    latencies = [statistics.fmean(x) for x in per_op]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(scaled(s, s.wall_s - s.report["calibration_total_s"]) for s in setups),
        "coeff_p50_ms": 1000 * percentile(latencies, 0.5),
        "coeff_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p.report["peak_rss_mb"] for p in passes),
        "samples": len(latencies),
        "passes": len(passes),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "scaled_wall_s": [round(w, 4) for w in walls],
    }


def measure_traced(workload: str, seed: int, tally: Tally) -> dict:
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    args = child_args(workload, seed)
    plain = run_child(workload, "work", args)
    traced = run_child(workload, "traced", args, trace=True)
    tally.add(workload, seed, plain)
    tally.add(workload, seed, traced)
    layer = dict((traced.report or {}).get("per_layer", {}))
    if workload in CLI_WORKLOADS and layer:
        inside = layer["fourier.expand.total_s"] + layer["fourier.format_value.total_s"]
        layer["cli.overhead_s"] = traced.wall_s - inside
    else:
        layer["cli.overhead_s"] = 0.0
    # The untraced pass ran calibration loops (child.Calibration); the traced one did not.
    plain_wall = plain.wall_s - (plain.report or {}).get("calibration_total_s", 0.0)
    layer["trace.overhead_frac"] = traced.wall_s / plain_wall - 1
    layer["fail_frac"] = len(tally.failures) / tally.attempted if tally.attempted else 1.0
    return layer


# --- environment --------------------------------------------------------------


def environment(seed: int) -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "precision_bits": PRECISION_BITS,
        "commit": commit,
        "seed": seed,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result object, and the sample and pass counts behind it."""
    tally = Tally()
    if trace:
        import layers

        raw = measure_traced(workload, seed, tally)
        units = layers.metric_units()
    else:
        raw = measure(workload, seed, seconds, tally)
        units = END_TO_END_UNITS
    missing = [name for name in units if name not in raw]
    if missing:
        tally.problems.append(f"metrics not produced: {missing}")
    for line in (tally.problems + tally.failures)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    result = {
        "correct": not (tally.problems or tally.failures),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": raw.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    return result, {k: raw[k] for k in DETAIL if k in raw}


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    bench = {"environment": environment(seed), "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for mode, trace in (("end_to_end", False), ("per_layer", True)):
            result, detail = run_one(workload, seed, seconds, trace)
            ok = ok and result["correct"]
            entry[mode] = {**result, "detail": detail}
            for name, m in result["metrics"].items():
                print(f"{workload:15s} {name:48s} {m['value']:14.6g} {m['unit']}")
            print(f"{workload:15s} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        bench["workloads"][workload] = entry
    if out:
        with open(out, "w") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="with --workload all: write the BENCH file here")
    args = ap.parse_args()
    # On SIGTERM, unwind through run_child so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "siegeleis" / "__init__.py").is_file():
        print(f"error: no siegeleis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    result, detail = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
