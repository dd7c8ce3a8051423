"""One workload pass in a fresh interpreter; started by run.py, never imported.

    python3 perfbench/child.py --report FILE [--trace SPANS] [--setup-only] \
        cli <siegeleis arguments...> | scatter INPUTS | verify SEED

`cli` runs the command line as a user would (its records go to stdout);
`scatter` answers the coefficient queries in the JSON file INPUTS, timing
each; `verify` runs the verification suites.  An untraced child also times a
fixed loop that uses no code of the program, to gauge the host's speed (see
`Calibration`).  With --setup-only the child stops where the first timed
operation would start.  With --trace the program's layers are wrapped by the
tracer and the spans are written to SPANS.  The report holds per-operation
latencies and values, the working precision before and after each operation,
the calibration loop times and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback


def _run_cli(argv, setup_only, report, tracer, calibration):
    from layers import rebind
    from siegeleis import cli, fourier

    if tracer is None:
        # Per-record latency: a clock read on each side of every a(T).
        rebind(fourier.coefficient, _timed(fourier.coefficient, report["latencies_s"], calibration))
    if setup_only:
        argv = [*argv[: argv.index("--bound")], "--bound", "0"]
    import mpmath

    before = mpmath.mp.prec
    report["exit_code"] = cli.main(argv)
    report["prec_leaks"] = int(mpmath.mp.prec != before)
    sys.stdout.flush()


def _run_scatter(path, setup_only, report, calibration):
    import mpmath

    from siegeleis import fourier
    from siegeleis.arith import HalfIntegralForm
    from siegeleis.characters import DirichletCharacter

    with open(path) as fh:
        queries = json.load(fh)
    specs = {}
    for q in queries:
        label = (q["character"], q["k"])
        if label not in specs:
            specs[label] = fourier.EisensteinSpec(q["k"], DirichletCharacter.from_label(q["character"]))
    if setup_only:
        return
    results = report["results"] = []
    for q in queries:
        spec = specs[(q["character"], q["k"])]
        T = HalfIntegralForm(q["n"], q["r"], q["m"])
        before = mpmath.mp.prec
        t0 = time.perf_counter()
        try:
            rec = fourier.coefficient(spec, T, oracle_policy=q["oracle_policy"])
            value, error = fourier.format_value(rec), None
        except Exception:
            value, error = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        report["latencies_s"].append(dt)
        results.append({"value": value, "error": error, "prec_leak": mpmath.mp.prec != before})
        if calibration:
            calibration.between_operations()


def _timed(fn, latencies, calibration):
    """`fn`, appending the duration of each call to `latencies`."""

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - t0)
            if calibration:
                calibration.between_operations()

    return timed


def _run_verify(seed, setup_only, report, tracer, calibration):
    import mpmath

    from siegeleis import verify
    from workloads import VERIFY_OPERATIONS, VERIFY_SUITES

    if setup_only:
        return
    if tracer is None:
        # Only the suites' own calls, so nested oracle calls are not counted twice.
        for name in VERIFY_OPERATIONS:
            setattr(verify, name, _timed(getattr(verify, name), report["latencies_s"], calibration))
    results = report["results"] = []
    for suite in VERIFY_SUITES:
        before = mpmath.mp.prec
        span = tracer.open(f"verify.{suite}") if tracer else None
        try:
            ok, lines = verify.run_suite(suite, seed)
            error = None if ok else "\n".join(lines)
        except Exception:
            error = traceback.format_exc(limit=3)
        if tracer:
            tracer.close(span)
        results.append({"suite": suite, "error": error, "prec_leak": mpmath.mp.prec != before})


CALIBRATION_INTERVAL_S = 0.1  # in a pass, the least time from one loop to the next
SETUP_LOOPS = 5  # loops after a set-up start


def _calibration_loop() -> float:
    """The time of a fixed loop of big-integer arithmetic and dict stores.

    That is the kind of work mpmath's pure-Python backend does.
    """
    t0 = time.perf_counter()
    a, s, d = 3**400, 0, {}
    for i in range(7500):
        s += (a * (i + 1)) // (i + 7) % 97
        d[i & 255] = s
    return time.perf_counter() - t0


class Calibration:
    """Loop times taken in an untraced pass or set-up start.

    In a pass, one loop runs after each operation that ends
    CALIBRATION_INTERVAL_S or more after the last loop, so the loops sample
    the host's speed all through the pass.  A set-up start has no operations
    and runs SETUP_LOOPS loops as it ends.  `total_s`, the loops' share of
    the wall time, can be taken off it again.
    """

    def __init__(self, latencies: list[float]):
        self.latencies = latencies
        self.loops_s: list[float] = []
        self.after_ops: list[int] = []  # operations that ended before each loop
        self.total_s = 0.0
        self.last = time.perf_counter()

    def between_operations(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_INTERVAL_S:
            self.loop()

    def loop(self) -> None:
        start = time.perf_counter()
        self.after_ops.append(len(self.latencies))
        self.loops_s.append(_calibration_loop())
        self.last = time.perf_counter()
        self.total_s += self.last - start


def _peak_rss_mb() -> float:
    """VmHWM of this process image.

    Not getrusage: its ru_maxrss keeps the high-water mark of the parent's
    memory image this process was forked from, which can exceed our own peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", default=None, help="write the spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("mode", choices=("cli", "scatter", "verify"))
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    report = {"latencies_s": []}
    calibration = None if args.trace else Calibration(report["latencies_s"])
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    if args.mode == "cli":
        _run_cli(args.rest, args.setup_only, report, tracer, calibration)
    elif args.mode == "scatter":
        _run_scatter(args.rest[0], args.setup_only, report, calibration)
    else:
        _run_verify(int(args.rest[0]), args.setup_only, report, tracer, calibration)
    if calibration:
        if args.setup_only:
            for _ in range(SETUP_LOOPS):
                calibration.loop()
        report["calibration_s"] = calibration.loops_s
        report["calibration_after_ops"] = calibration.after_ops
        report["calibration_total_s"] = calibration.total_s
    report["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        report["per_layer"] = layers.per_layer(tracer)
        tracer.dump(args.trace)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return report.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
