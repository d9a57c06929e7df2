"""Quick self-check of the harness at tiny horizons. From the repository root:

    python3 perfbench/selfcheck.py

For every workload, at seed 0, it makes one untraced run and two traced runs
and asserts that:
  * every metric BENCHMARK.json names is emitted, with its unit;
  * no invocation failed, and the traced CSVs equal the CLI's byte for byte;
  * the traced count metrics repeat exactly from one run to the next;
  * trajectory_table decomposes 12 matrices per sample (4 eigh, 8 eigvalsh),
    and integrate one per sample plus one per call (the check of the
    initial state).
Exits 1 with the list of problems, or 0.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 0
SECONDS = 1.0


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        results = []
        for trace in (0, 1, 1):
            result, record = run.bench(name, SEED, SECONDS, trace, size="tiny")
            results.append(result)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: {record['failures']}")
            if trace and record.get("first_pass"):
                trace_record = record["first_pass"]
                spans, counters = trace_record["spans"], trace_record["counters"]
                table = spans.get("pipeline.trajectory_table")
                if table and table["eig"] != 12 * counters["table.samples"]:
                    problems.append(f"{name}: trajectory_table eig {table['eig']} "
                                    f"!= 12 x {counters['table.samples']} samples")
                integ = spans["dynamics.integrate"]
                if integ["eig"] != counters["integrate.samples"] + integ["calls"]:
                    problems.append(f"{name}: integrate eig {integ['eig']} != "
                                    f"{counters['integrate.samples']} samples + {integ['calls']} calls")
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in run.EXACT_UNITS}
            for r in results[1:]
        ]
        if counts[0] != counts[1]:
            problems.append(f"{name}: traced counts differ between runs: {counts}")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
