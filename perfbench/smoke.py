"""Smoke test of the benchmark: every workload, untraced and traced, tiny budget.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Each run must exit 0 with ``correct`` true, and the metric names and units it
prints must be exactly those that ``BENCHMARK.json`` declares for its mode
(``end_to_end`` untraced, ``per_layer`` traced).  Exits nonzero on the first
mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                wrong = sorted(k for k in set(printed) & set(expected[trace])
                               if printed[k] != expected[trace][k])
                print(f"FAIL {label}: correct={result['correct']} missing={missing} "
                      f"extra={extra} wrong units={wrong}")
                return 1
            print(f"ok   {label}: {len(printed)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
