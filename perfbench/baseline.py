#!/usr/bin/env python3
"""Record a baseline: run every workload once untraced and once traced and
write ``perfbench/baseline.json`` with each workload's seed, inputs and
metrics, and the machine it ran on.

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import date
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return lines


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    import ott

    record = {
        "recorded": date.today().isoformat(),
        "backend": ott.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for w in bench["workloads"]:
        entry = {"why": w["why"], "seed": SEED}
        for trace in (0, 1):
            lines = run(w["name"], SEED, seconds, trace)
            # first line: "workload NAME seed N: {inputs}"
            entry["inputs"] = json.loads(lines[0].split(": ", 1)[1])
            result = json.loads(lines[-1])
            entry["attempted" if trace == 0 else "attempted_traced"] = result["attempted"]
            entry["failed" if trace == 0 else "failed_traced"] = result["failed"]
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                name: m["value"] for name, m in result["metrics"].items()}
            fingerprint = [ln for ln in lines if ln.startswith("fingerprint ")][0]
            entry["fingerprint"] = json.loads(fingerprint.split(" ", 1)[1])
        record["workloads"][w["name"]] = entry
        print(f"recorded {w['name']}", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
