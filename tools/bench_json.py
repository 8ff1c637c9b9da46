#!/usr/bin/env python3
"""Assemble a ``BENCH_<label>.json`` file from the records ``bench/run.py``
leaves in ``.bench_out/results/``.

    python3 tools/bench_json.py LABEL COMMIT RESULTS_DIR > BENCH_LABEL.json

Per workload the file holds the seeds and ``--seconds`` of the untraced runs
(``--trace 0``), each run's end-to-end metrics, their median and
interquartile range (quartiles by ``statistics.quantiles(..., n=4,
method="inclusive")``), the number of failed operations and any failed
check, and the per-layer metrics of one traced run (``--trace 1``); then
the environment and the commit.  Runs of one workload must share
``--seconds``, and every run must share the environment.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def assemble(label: str, commit: str, results: Path) -> dict:
    records = [json.loads(path.read_text()) for path in sorted(results.glob("*.json"))]
    if not records:
        raise SystemExit(f"no bench/run.py records in {results}")
    environments = {json.dumps(r["environment"], sort_keys=True) for r in records}
    if len(environments) != 1:
        raise SystemExit(f"records from {len(environments)} environments")
    workloads = {}
    for name in sorted({r["workload"] for r in records}):
        runs = sorted((r for r in records if r["workload"] == name and not r["trace"]),
                      key=lambda r: r["seed"])
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        if len({r["seconds"] for r in runs}) > 1:
            raise SystemExit(f"{name}: untraced runs of different --seconds")
        metrics = {key: {"unit": m["unit"], **summary([r["metrics"][key]["value"] for r in runs])}
                   for key, m in (runs[0]["metrics"].items() if runs else ())}
        workloads[name] = {
            "seeds": [r["seed"] for r in runs],
            "seconds": runs[0]["seconds"] if runs else None,
            "runs": {str(r["seed"]): {key: m["value"] for key, m in r["metrics"].items()}
                     for r in runs},
            "end_to_end": metrics,
            "failed_operations": sum(bool(op["failures"]) for r in runs for op in r["operations"]),
            "problems": [p for r in runs for p in r["problems"]],
            "traced": [{"seed": r["seed"], "seconds": r["seconds"],
                        "metrics": {key: m["value"] for key, m in r["metrics"].items()}}
                       for r in traced[:1]],
        }
    return {"label": label, "commit": commit, "environment": records[0]["environment"],
            "harness": "python3 bench/run.py --workload W --seed N --seconds S --trace T",
            "workloads": workloads}


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit(__doc__.split("\n\n")[1])
    json.dump(assemble(sys.argv[1], sys.argv[2], Path(sys.argv[3])), sys.stdout, indent=1)
    print()
