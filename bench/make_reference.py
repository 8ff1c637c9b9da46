#!/usr/bin/env python3
"""Regenerate the reference files in bench/reference from the current code.

    python3 bench/make_reference.py

For each workload and reference seed it runs one round and stores the
SHA-256 of every output file and, for each solve operation, the coefficient
and gain tables (for `wide`, only the steps in WIDE_STEPS).  Regenerate only
for an intended change of output values, and say why in the change.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys

import checks
import run

REFERENCE_SEEDS = (1, 2, 3)
WIDE_STEPS = {"0", "1", "500", "999", "1000"}


def write_tables(result_dir, target, steps) -> None:
    target.mkdir(parents=True, exist_ok=True)
    for name in checks.VALUE_FILES:
        header, rows = checks.read_csv(result_dir / name)
        with open(target / name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(r for r in rows if steps is None or r[0] in steps)


def main() -> int:
    if not run.prepare():
        return 2
    for name, build in run.WORKLOADS.items():
        seeds = REFERENCE_SEEDS[:1] if name == "paper" else REFERENCE_SEEDS
        for seed in seeds:
            ref_dir = checks.reference_dir(name, seed)
            shutil.rmtree(ref_dir, ignore_errors=True)
            workload = build(seed)
            results = run.run_round(workload, ref_dir)
            failures = workload.setup_failures + [f"{r.key}: {r.failures}" for r in results if r.failures]
            if failures:
                print(f"{name} seed {seed}: not written, operations failed: {failures}",
                      file=sys.stderr)
                return 1
            digests = {f"{r.key}/{f}": d for r in results for f, d in r.digests.items()}
            ref_dir.mkdir(parents=True)
            (ref_dir / "sha256.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                                 encoding="utf-8")
            for op in workload.ops:
                if op.kind == "solve":
                    write_tables(op.out, ref_dir / op.key, WIDE_STEPS if name == "wide" else None)
            print(f"{name} seed {seed}: {len(digests)} hashes written to {ref_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
