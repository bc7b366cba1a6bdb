"""Run every workload over several seeds and record the baseline.

    python3 bench/baseline.py [--seeds 10] [--first-seed 1] [--trace]

Runs bench/run.py once per (workload, seed), one process at a time, from
the root of the checkout, with the run length from BENCHMARK.json. For
each end-to-end metric it prints the median, the quartiles and their
distance as a share of the median next to the metric's bound, then
writes everything to bench/baseline.json. --trace adds one traced run
per workload (first seed) for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-2000:]}")
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("summary "):
            out["summary"] = json.loads(line[len("summary "):])
    out["pinned"] = [line.strip() for line in lines if line.strip().startswith("pinned ")]
    out["wall_s"] = wall
    return out


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    a = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [one_run(workload, s, seconds, 0)
                for s in range(a.first_seed, a.first_seed + a.seeds)]
        entry = {"metrics": {}, "runs": [{k: r[k] for k in ("correct", "attempted", "failed",
                                                             "summary", "wall_s")} for r in runs],
                 "pinned": runs[0]["pinned"]}
        print(f"{workload}: {a.seeds} seeds, correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
              f"ops per run {min(r['attempted'] for r in runs)}-{max(r['attempted'] for r in runs)}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        for name, bound in bounds.items():
            st = spread([r["metrics"][name]["value"] for r in runs])
            st.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            entry["metrics"][name] = st
            flag = "ok" if st["spread"] <= bound / 3 else ("WIDE" if st["spread"] <= bound else "OVER")
            print(f"  {name:12s} median {st['median']:12.5g} {st['unit']:4s} "
                  f"IQR/median {st['spread']:.4f} (bound {bound}) {flag}")
        if a.trace:
            tr = one_run(workload, a.first_seed, seconds, 1)
            entry["per_layer"] = tr["metrics"]
            entry["per_layer_correct"] = tr["correct"]
        report["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
