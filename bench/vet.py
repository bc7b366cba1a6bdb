"""Run and check every op of the decide and transform pools once.

    python3 bench/vet.py

Prints each op that fails its check and exits 1 if any did. The timed
mix draws only from these pools, so a pool that vets clean is a mix in
which no operation fails at random; a failure found here belongs in the
pinned cases (bench/ops.py), with the pool left as it is.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ops  # noqa: E402
from checks import check  # noqa: E402
from run import run_one  # noqa: E402


def main() -> int:
    failed = 0
    for workload in ("decide", "transform"):
        for i in range(ops.POOL_CYCLES):
            for j, op in enumerate(ops.pool(workload, i)):
                out, exc, _dt, _w = run_one(op)
                ok, _err, why = check(op, out, exc)
                if not ok:
                    failed += 1
                    print(f"{workload} slot {j} pool {i}: {op.describe()}: {why}", flush=True)
    print(f"{failed} pool ops failed their check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
