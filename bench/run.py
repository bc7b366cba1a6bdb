"""imchar benchmark: one workload, one seed, one process, no threads.

    python3 bench/run.py --workload decide|transform --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src and
nowhere else. With --trace 0 the workload runs closed-loop (one op after
another) after a warm-up until the ops' benchmark-clock seconds add up
to S; each answer is checked against bench/reference.py right after its
op, outside the clock. The pinned hard cases are run and reported one by one against
their recorded outcomes, and the last line is the JSON result with the
end-to-end metrics.
With --trace 1 a fixed prefix of the schedule runs untraced, traced and
untraced again, and the last line carries the per-layer metrics.

End-to-end times are on the benchmark clock: each op's wall time is
divided by the mean wall time of a fixed calibration loop run right
before and right after it, and one loop counts as CAL_MS. A shared
host's speed swings by 15 to 40 % for minutes at a time, which moved a
run's wall-clock ops_per_s by 20 to 30 % from one run to the next; the
loop slows with the host, so the ratio does not. Wall-clock figures are
printed in the summary line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# No threads: set before numpy loads OpenBLAS, which otherwise starts a
# worker per core for the Z_n dft and psd_check; waking them made the
# same oracle op take from 45 ms to 800 ms, depending on how long the
# process had run. Set-up probes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
WARMUP_S = 1.5
#: benchmark-clock milliseconds one calibration loop counts for
CAL_MS = 1.0
#: ops generated ahead of the timed loop, per workload (the loop wraps around)
CYCLES = {"decide": 200, "transform": 16}
#: cycles of the schedule replayed by a traced run
TRACE_CYCLES = {"decide": 4, "transform": 1}


def _use_checkout_src():
    if not (SRC / "imchar" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'imchar'} not found; run from the root of an imchar checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import imchar
    if not Path(imchar.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported imchar from {imchar.__file__}, not from {SRC}")


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("decide", "transform"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set-up probe: import and generate inputs, print 'ready', exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# the benchmark's clock


def _calibration_loop() -> float:
    """Fixed work that does not touch imchar, in the two kinds an op does:
    interpreted arithmetic and dict updates, then small numpy calls."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 32)
    acc, d = 0, {}
    for i in range(2400):
        acc += i * i % 7
        d[i & 63] = acc
    total = math.fsum(d.values())
    for i in range(120):
        total += float(np.exp(-x * (i % 5)).sum())
    return total


def calibrate() -> float:
    """Wall seconds of one calibration loop."""
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


def on_clock(wall_s: float, before: float, after: float) -> float:
    """Wall seconds in benchmark-clock seconds, given the calibration
    loop's wall seconds right before and right after."""
    return wall_s * (CAL_MS / 1e3) * 2.0 / (before + after)


# ---------------------------------------------------------------------------
# set-up and import timing (fresh interpreters)


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, benchmark-clock) launch-to-first-op seconds of fresh
    interpreters, one per probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
           "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                sys.exit("bench: set-up probe failed")
        out.append((t1 - t0, on_clock(t1 - t0, before, calibrate())))
    return out


def _importtime(code: str) -> list[tuple[int, str, float]]:
    """(depth, module, cumulative ms) rows of python -X importtime, children first."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                         timeout=60, check=True)
    rows = []
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(),
                         int(parts[1]) / 1000.0))
    return rows


def import_ms() -> tuple[float, float]:
    """Cold ``import imchar``, and what scipy.stats adds to it, in ms (median of 3).

    catalog does ``from scipy import stats``, which scipy resolves lazily, so
    no log line is named scipy.stats. With numpy, scipy.special and
    scipy.integrate (which the library needs anyway) imported first,
    catalog's children outside imchar are what scipy.stats adds.
    """
    total, extra = [], []
    for _ in range(3):
        total.append(next(c for _, n, c in _importtime("import imchar") if n == "imchar"))
        rows = _importtime("import numpy, scipy.special, scipy.integrate; import imchar")
        i, (depth, _, _) = next((i, r) for i, r in enumerate(rows) if r[1] == "imchar.catalog")
        ms, j = 0.0, i - 1
        while j >= 0 and rows[j][0] > depth:
            if rows[j][0] == depth + 1 and not rows[j][1].startswith("imchar"):
                ms += rows[j][2]
            j -= 1
        extra.append(ms)
    return statistics.median(total), statistics.median(extra)


# ---------------------------------------------------------------------------
# running ops


def run_one(op):
    """(output, exception, seconds, quadrature warnings) of one op."""
    from imchar.errors import QuadratureWarning
    import ops as opsmod
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, exc = None, None
        t0 = time.perf_counter()
        try:
            out = opsmod.run(op)
        except Exception as e:  # recorded as a failed op
            exc = e
        dt = time.perf_counter() - t0
    return out, exc, dt, sum(issubclass(w.category, QuadratureWarning) for w in caught)


def warm_up(schedule):
    """Run the cheapest op of each (kind, label) and the calibration loop
    untimed, for at least WARMUP_S."""
    first = {}
    for op in schedule:
        key = (op.kind, op.label)
        if key not in first or len(op.points) < len(first[key].points):
            first[key] = op
    t_end = time.perf_counter() + WARMUP_S
    while True:
        for op in first.values():
            calibrate()
            run_one(op)
        if time.perf_counter() >= t_end:
            return


def timed_loop(schedule, seconds: float):
    """Run ops closed-loop until their benchmark-clock seconds add up to
    ``seconds``, so a run of a seed holds the same ops however fast the
    host runs.

    Rows are (op, ok, err, reason, clock seconds, warnings, wall seconds).
    Each op is checked right after it ran, outside the clock, and only its
    verdict row is kept: holding every output until the end would make the
    process's peak memory grow with the number of ops a run completes.
    """
    from checks import check
    rows, timed, i = [], 0.0, 0
    while timed < seconds:
        op = schedule[i % len(schedule)]
        before = calibrate()
        out, exc, dt, nwarn = run_one(op)
        clock = on_clock(dt, before, calibrate())
        rows.append((op,) + check(op, out, exc) + (clock, nwarn, dt))
        out = exc = None
        timed += clock
        i += 1
    return rows


def quantile(sorted_vals, q):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a beta((n+1)q, (n+1)(1-q)) law over the ranks.
    A transform run holds about 300 ops whose costs spread smoothly from
    0.1 ms to 2 s; over 120 simulated seeds the interquartile spread of
    its median fell from 10 % (nearest rank) to 6 % with this estimate."""
    import numpy as np
    from scipy.special import betainc
    n = len(sorted_vals)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_vals))


def checked(results):
    """[(op, ok, err, reason, seconds, warned)] for run_one results."""
    from checks import check
    rows = []
    for op, out, exc, dt, nwarn in results:
        ok, err, why = check(op, out, exc)
        rows.append((op, ok, err, why, dt, nwarn))
    return rows


def pinned_report(workload):
    """Run the pinned cases; (failed, count, worse), worse counting the cases
    that did worse than their recorded outcome (ops.worse_than)."""
    import ops as opsmod
    cases = opsmod.pinned(workload)
    rows = checked([(op,) + run_one(op) for op, _ in cases])
    worse = 0
    for (op, ok, err, why, _dt, _w), (_, expect) in zip(rows, cases):
        regressed = opsmod.worse_than(expect, ok, err, why)
        worse += regressed
        print(f"  pinned {op.describe()}: {'pass' if ok else 'FAIL'}"
              f" err={err:.3g}{' (' + why + ')' if why else ''}"
              f"{'  WORSE than recorded ' + repr(expect) if regressed else ''}")
    return sum(1 for r in rows if not r[1]), len(rows), worse


# ---------------------------------------------------------------------------
# modes


def end_to_end(a) -> dict:
    setups = setup_seconds(a.workload, a.seed)
    import ops as opsmod
    schedule = opsmod.schedule(a.workload, a.seed, CYCLES[a.workload])
    warm_up(schedule)
    rows = timed_loop(schedule, a.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [r for r in rows if not r[1]]
    n = len(rows)
    max_err = max((r[2] for r in rows if r[1]), default=0.0)
    warned = sum(1 for r in rows if r[5])

    def speed(col):
        """ops_per_s, op_p50_ms, op_p90_ms, samples beyond p90 from row column col."""
        timed = sum(r[col] for r in rows)
        # a failed op ranks slower than any success: it stands in with the
        # run's timed seconds
        lat = sorted(r[col] * 1e3 if r[1] else timed * 1e3 for r in rows)
        p50, p90 = quantile(lat, 0.5), quantile(lat, 0.9)
        beyond = sum(1 for v in lat if v > p90)
        return (n - len(failed)) / timed, p50, p90, beyond

    ops_per_s, p50, p90, beyond = speed(4)
    wall_ops_per_s, wall_p50, wall_p90, _ = speed(6)
    setup = statistics.median(c for _, c in setups)
    wall_setup = statistics.median(w for w, _ in setups)

    print(f"workload {a.workload} seed {a.seed}: {n} ops in {sum(r[6] for r in rows):.3f} wall s "
          f"({sum(r[4] for r in rows):.3f} on the benchmark clock), "
          f"{len(failed)} failed, {warned} with QuadratureWarning")
    print(f"  ops_per_s   {ops_per_s:.4f} 1/s   ({n - len(failed)} correct ops; "
          f"wall clock {wall_ops_per_s:.4f})")
    print(f"  op_p50_ms   {p50:.4f} ms   op_p90_ms {p90:.4f} ms   "
          f"(n={n}, {beyond} beyond p90; wall clock {wall_p50:.4f}, {wall_p90:.4f})")
    print(f"  setup_s     {setup:.4f} s (median of {len(setups)} fresh interpreters; "
          f"wall clock {wall_setup:.4f})   peak_rss_mb {peak_mb:.2f} MB")
    for op, _ok, err, why, *_ in failed[:20]:
        print(f"  FAILED {op.describe()}: {why}")
    pinned_failed, pinned_n, pinned_worse = pinned_report(a.workload)
    fail_rate = (len(failed) + pinned_failed) / (n + pinned_n)
    print(f"  fail_rate   {fail_rate:.4g} ({len(failed)} of {n} timed ops, "
          f"{pinned_failed} of {pinned_n} pinned)   max_abs_err {max_err:.3g}")
    summary = {"samples": n, "beyond_p90": beyond, "fail_rate": fail_rate,
               "wall_clock": {"ops_per_s": wall_ops_per_s, "op_p50_ms": wall_p50,
                              "op_p90_ms": wall_p90, "setup_s": wall_setup},
               "timed_failed": len(failed), "max_abs_err": max_err, "warned_ops": warned,
               "pinned_failed": pinned_failed, "pinned": pinned_n,
               "pinned_worse": pinned_worse}
    print("summary " + json.dumps(summary, sort_keys=True))
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"correct": not failed and not pinned_worse, "attempted": n, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(a) -> dict:
    imchar_ms, stats_ms = import_ms()
    import ops as opsmod
    import tracer as tracemod
    schedule = opsmod.schedule(a.workload, a.seed, CYCLES[a.workload])
    warm_up(schedule)
    todo = opsmod.schedule(a.workload, a.seed, TRACE_CYCLES[a.workload])

    def one_pass(tr=None):
        outs, t0 = [], time.perf_counter()
        for i, op in enumerate(todo):
            if tr is not None:
                tr.op = i
            outs.append((op,) + run_one(op))
        return outs, time.perf_counter() - t0

    plain, plain_s = one_pass()
    before = tracemod.snapshot()
    tr = tracemod.Tracer().install()
    try:
        seen, seen_s = one_pass(tr)
    finally:
        tr.uninstall()
    restored = tracemod.snapshot() == before
    # the first pass after the warm-up can still run slow; time a second
    # untraced pass and compare the traced pass with the faster of the two
    plain_s = min(plain_s, one_pass()[1])
    # (op, out, exc, ...): the same op must raise the same way or give the same bits
    identical = all(
        repr(x[2]) == repr(y[2]) if x[2] or y[2]
        else opsmod.fingerprint(x[0], x[1]) == opsmod.fingerprint(y[0], y[1])
        for x, y in zip(plain, seen))
    rows = checked(plain)
    failed = sum(1 for r in rows if not r[1])
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{a.workload}-{a.seed}.csv.gz")

    m = tracemod.layer_metrics(tr, todo, seen_s, plain_s)
    m["quadrature.warned_ops"] = (sum(1 for r in seen if r[4]), "count")
    m["import.imchar_ms"] = (imchar_ms, "ms")
    m["import.scipy_stats_ms"] = (stats_ms, "ms")
    pinned_failed, pinned_n, pinned_worse = pinned_report(a.workload)
    m["check.fail_rate"] = ((failed + pinned_failed) / (len(rows) + pinned_n), "ratio")
    m["check.max_abs_err"] = (max((r[2] for r in rows if r[1]), default=0.0), "abs")
    print(f"traced {len(todo)} ops: {plain_s:.3f} s untraced, {seen_s:.3f} s traced "
          f"(overhead x{seen_s / plain_s:.2f}), {len(tr.spans)} spans, "
          f"outputs identical: {identical}, originals restored: {restored}")
    for k in sorted(m):
        print(f"  {k:45s} {m[k][0]:.6g} {m[k][1]}")
    return {"correct": failed == 0 and not pinned_worse and identical and restored,
            "attempted": len(rows),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def main(argv=None) -> int:
    a = _args(argv)
    _use_checkout_src()
    if a.seconds is None:
        a.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if a.probe:
        import ops as opsmod
        opsmod.schedule(a.workload, a.seed, CYCLES[a.workload])
        print("ready", flush=True)
        return 0
    result = traced(a) if a.trace else end_to_end(a)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
