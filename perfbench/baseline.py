"""Summarise benchmark runs into perfbench/baseline.json (the steadiness record).

Feed it one line per run, `<workload> <seed> <last stdout line of run.py>`,
for example from the repository root:

    for w in solve-connected count-union cli-adjudicate; do
      for s in $(seq 11 20); do
        echo "$w $s $(python3 perfbench/run.py --workload $w --seed $s --seconds 36 --trace 0 | tail -1)"
      done
    done | python3 perfbench/baseline.py

For every workload and end-to-end metric it records the values, their
median and quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.  It prints the
spreads next to the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    seeds: dict[str, list[int]] = {}
    for line in sys.stdin:
        workload, seed, result = line.split(" ", 2)
        result = json.loads(result)
        if not result["correct"]:
            print(f"{workload} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            return 1
        seeds.setdefault(workload, []).append(int(seed))
        for name, metric in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload, metrics in values.items():
        rows = {}
        for name, vals in metrics.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                          "bound": bounds[name], "values": vals}
            print(f"{workload:<16} {name:<16} median {median:>10.5g}  spread {(q3 - q1) / median:6.3f}"
                  f"  bound {bounds[name]}")
        record["workloads"][workload] = {"seeds": seeds[workload], "metrics": rows}
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
