"""Self-test of the benchmark: the computed counts repeat exactly.

    python3 perfbench/selftest.py

Runs each workload's traced mode twice, with seed 0 and ``--seconds 1``
(the minimum of three passes), in fresh interpreters and asserts that both
runs pass their checks, print the declared per-layer metrics, and report
identical computed counts.  Later changes may then state a count as a count.
"""

import json
import subprocess
import sys
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]}
    ok = True
    for workload in sorted(WORKLOADS):
        first, second = (traced_run(workload) for _ in range(2))
        for res in (first, second):
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert set(res["metrics"]) == declared, workload
        counts = [{k: r["metrics"][k]["value"] for k in spans.COMPUTED}
                  for r in (first, second)]
        same = counts[0] == counts[1]
        passed = first["correct"] and second["correct"] and same
        ok = ok and passed
        print(f"{workload}: {'PASS' if passed else 'FAIL'} "
              f"correct={first['correct']},{second['correct']} "
              f"counts_repeat={same}")
        if not same:
            for k in spans.COMPUTED:
                if counts[0][k] != counts[1][k]:
                    print(f"  {k}: {counts[0][k]!r} != {counts[1][k]!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
