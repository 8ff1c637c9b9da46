"""Correctness gates for one CLI operation, output hashing, and the
comparison against the reference files in ``bench/reference``.

A gate failure makes the operation count as failed.  A changed output hash
is not a failure: it is reported so that a change of output bytes has to be
explained.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
VALUE_FILES = ("coefficients.csv", "gains.csv")
VALUE_RTOL = 1e-9
MAX_REPORTED = 5
COST_SIGMAS = 5.0
# The manifest's creation time differs on every run; it is left out of its hash.
VOLATILE_PREFIXES = ("created_utc =",)


def output_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        lines = data.decode("utf-8").splitlines(keepends=True)
        data = "".join(l for l in lines if not l.startswith(VOLATILE_PREFIXES)).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def output_files(out: Path) -> dict[str, Path]:
    """Output files of one operation by name, temporary files excluded."""
    if not out.is_dir():
        return {}
    return {p.name: p for p in sorted(out.iterdir()) if p.is_file() and not p.name.startswith(".")}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def reference_dir(workload: str, seed: int) -> Path:
    """References for this seed; `paper` outputs do not depend on the seed."""
    return REFERENCE / workload / ("any" if workload == "paper" else f"seed-{seed}")


def _values_match(ref: str, got: str) -> bool:
    if ref == "" or got == "":
        return ref == got
    return math.isclose(float(ref), float(got), rel_tol=VALUE_RTOL, abs_tol=0.0)


def compare_values(ref_path: Path, out_path: Path) -> list[str]:
    """Compare every reference row with the output row of the same (k, agent)."""
    ref_header, ref_rows = read_csv(ref_path)
    header, rows = read_csv(out_path)
    if header != ref_header:
        return [f"{out_path.name}: header {header} differs from reference {ref_header}"]
    by_key = {tuple(row[:2]): row for row in rows}
    problems = []
    for ref in ref_rows:
        row = by_key.get(tuple(ref[:2]))
        if row is None:
            problems.append(f"{out_path.name}: row k={ref[0]} agent={ref[1]} missing")
            continue
        for name, want, got in zip(header[2:], ref[2:], row[2:]):
            if not _values_match(want, got):
                problems.append(f"{out_path.name}: k={ref[0]} agent={ref[1]} {name} = {got!r}, "
                                f"reference {want!r}")
    if len(problems) > MAX_REPORTED:
        problems[MAX_REPORTED:] = [f"{out_path.name}: {len(problems) - MAX_REPORTED} more differences"]
    return problems


def cost_problems(path: Path) -> list[str]:
    """Each agent's realized Monte Carlo cost must lie within COST_SIGMAS
    standard errors of the cost the coefficient tables predict."""
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for row in rows:
        if row[col["std_error"]] == "":
            continue
        total, predicted, se = (float(row[col[n]]) for n in ("total", "predicted", "std_error"))
        if not abs(total - predicted) <= COST_SIGMAS * se:
            problems.append(f"costs.csv agent {row[col['agent']]}: |total - predicted| = "
                            f"{abs(total - predicted):.6g} exceeds {COST_SIGMAS:g} x {se:.6g}")
    return problems


def gate(kind: str, rc, files: dict[str, Path], ref_dir: Path) -> list[str]:
    """Failures of one finished operation: exit code, verify verdict,
    Monte Carlo cost consistency and reference values."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if kind == "verify":
        summary = files.get("summary.txt")
        first = summary.read_text(encoding="utf-8").splitlines()[0] if summary else ""
        if "PASSED" not in first:
            problems.append(f"summary.txt says {first!r}")
    if "costs.csv" in files:
        problems += cost_problems(files["costs.csv"])
    if kind == "solve":
        for name in VALUE_FILES:
            ref = ref_dir / name
            if not ref.is_file():
                continue
            if name not in files:
                problems.append(f"{name} not written")
            else:
                problems += compare_values(ref, files[name])
    return problems


def load_reference_hashes(workload: str, seed: int) -> dict[str, str] | None:
    path = reference_dir(workload, seed) / "sha256.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def changed_files(reference: dict[str, str] | None, digests: dict[str, str]) -> list[str]:
    """Output files whose bytes differ from the reference, or that appear on
    only one side."""
    if reference is None:
        return []
    names = sorted(set(reference) | set(digests))
    return [n for n in names if reference.get(n) != digests.get(n)]
