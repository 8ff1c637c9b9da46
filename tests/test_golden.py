"""Pinned output bytes of every CLI command on the shipped scenarios.

`golden_sha256.json` holds the SHA-256 of each file that solve,
simulate --plot, verify and sweep --sweep p=2,3 write for each shipped
scenario.  manifest.txt is hashed without its created_utc line, the only
line that differs between two runs.  A change that moves any output byte
must update the pinned hashes and say why.  `FAILING_VERIFY` pins the
same two verify files of a run that fails.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from mftg.cli import main
from mftg.recursion import solve
from mftg.scenario import load_scenario_file
from mftg.verify import inject_gain_scaling, run_verification
from conftest import REPO

GOLDEN = json.loads((Path(__file__).with_name("golden_sha256.json")).read_text())
COMMANDS = {
    "solve": [],
    "simulate": ["--plot"],
    "verify": [],
    "sweep": ["--sweep", "p=2,3"],
}


def output_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every file under `out`, keyed by its relative path."""
    hashes = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"created_utc = "))
        hashes[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return hashes


def run_command(command: str, scenario: str, out: Path) -> dict[str, str]:
    # Relative scenario path: the manifest records it as given.
    assert main([command, f"scenarios/{scenario}.yaml", "--out", str(out),
                 *COMMANDS[command]]) == 0
    return output_hashes(out)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_output_bytes(tmp_path, monkeypatch, scenario, command):
    monkeypatch.chdir(REPO)
    assert run_command(command, scenario, tmp_path / "out") == GOLDEN[scenario][command]


# SHA-256 of report.csv and summary.txt of `verify --inject-gain 1:*:1.2`,
# which fails every shipped scenario, and the sections that fail it.
FAILING_VERIFY = {
    "additive_two_agent": (
        "e7913784698eb2d5e81dabe60c448c3f447b0796705242dfdfcafbcff39fec5d",
        "4b05a11a379ee0fb1aa1f687746fbba08730a02f6783a096a359bad01952385a"),
    "deterministic_two_agent": (
        "e949e6e38a1ed3ec4bbf8b3e81ea731776c963f95f2b4a26ffd19967f2b39f40",
        "4bc4e91b69229c314bb1fe12841366ac665ae49c87f5478ca70bbff4a8ef0621"),
    "general_moment_two_agent": (
        "2bbfb6453fa7fd9ecd3fd472080348994652fd6bae3ff3829c63c89e8ef5009e",
        "fb98db2e842850c78d236e82dd455f12046489ac9c1f0b6f9a83a9ffb568839c"),
    "multiplicative_two_agent": (
        "188e34d54ee9d88a8d1b9e66ee703a5a9c24f080a7c2b2223fc031f768b86a74",
        "76d954091ad4a3e56889e90d0d251d8f074f92b0351b20e36347f5f843374353"),
}
FAILING_SECTIONS = ["deviation", "stationarity", "bellman"]


@pytest.mark.parametrize("scenario", sorted(FAILING_VERIFY))
def test_failing_verify_bytes(tmp_path, monkeypatch, capsys, scenario):
    monkeypatch.chdir(REPO)
    out = tmp_path / "out"
    assert main(["verify", f"scenarios/{scenario}.yaml", "--out", str(out),
                 "--inject-gain", "1:*:1.2"]) == 6
    hashes = output_hashes(out)
    assert (hashes["report.csv"], hashes["summary.txt"]) == FAILING_VERIFY[scenario]
    with open(out / "report.csv", newline="") as handle:
        rows = [list(row.values()) for row in csv.DictReader(handle)]
    sc = load_scenario_file(f"scenarios/{scenario}.yaml")
    table, gains = solve(sc)
    report = run_verification(sc, table, inject_gain_scaling(gains, 0, None, 1.2))
    assert rows == [[*check[:6], "pass" if check.passed else "fail"] for check in report.checks]
    failing = [section for section, *_, status in rows if status == "fail"]
    assert list(dict.fromkeys(failing)) == FAILING_SECTIONS
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("verification failed: ") for line in err)
    assert [line.split()[2] for line in err] == FAILING_SECTIONS
