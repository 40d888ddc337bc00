"""Scaled-down smoke test of every benchmark workload.

    python3 bench/smoke.py

Runs each workload once untraced and once traced with a tiny time budget
(so one unit each), from the root of a source checkout, and asserts that
the result line is well formed, that every metric named in BENCHMARK.json
is emitted with its unit, and that the output checks ran and passed. The
file is not named ``test_*`` so the tier-1 suite does not collect it; it
takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "3", "--seconds", "0.01",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["environment"]
    assert {"commit", "python", "numpy", "scipy", "blas", "nproc", "loadavg_start",
            "seed"} <= set(env), env
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            for metric in spec[key]:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (workload, metric, got)
                assert isinstance(got["value"], (int, float)), (workload, metric, got)
            print(f"ok {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} items checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
