"""weaksep benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload {purity,distance,moves} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh process
(``worker.py``).  With ``--trace 0`` the result holds the end-to-end metrics;
``setup_s`` is the median over ``SETUP_PROBES`` set-up-only processes and the
measured run, each timed from process spawn to the first timed call.  With
``--trace 1`` it holds the per-layer metrics.  Exit code 0 means a result was
printed; a checkout without ``src/weaksep`` or a failed worker exits non-zero
and prints none.  See README.md for the workloads and metrics.
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
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


def spawn(args: list[str]) -> tuple[float, dict]:
    """Run the worker to completion; returns its spawn time and parsed last line."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker {args} exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["purity", "distance", "moves"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "weaksep" / "__init__.py").is_file():
        sys.exit(f"no weaksep sources under {ROOT / 'src'}")

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        _, result = spawn(common + ["--trace", "1"])
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            spawned, probe = spawn(common + ["--setup-only"])
            setups.append(probe["ready"] - spawned)
        spawned, result = spawn(common)
        setups.append(result.pop("first_call") - spawned)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, metric in result["metrics"].items():
        sys.stderr.write(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
