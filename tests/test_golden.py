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


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_sweep_value_writes_simulate_files(scenario):
    """One body writes `simulate`'s and each `sweep` value's mean path,
    ensemble statistics and costs: every shipped scenario has p = 2, so its
    p=2 files are its simulate files."""
    shared = [f for f in ("meanpath.csv", "costs.csv", "ensemble_stats.csv")
              if f in GOLDEN[scenario]["simulate"]]
    assert len(shared) == (2 if scenario == "deterministic_two_agent" else 3)
    for f in shared:
        assert GOLDEN[scenario]["sweep"]["p=2/" + f] == GOLDEN[scenario]["simulate"][f], f


# SHA-256 of report.csv and summary.txt of `verify --inject-gain 1:*:1.2`,
# which fails every shipped scenario, and the sections that fail it.
FAILING_VERIFY = {
    "additive_two_agent": (
        "3544aec7fde5be5474ef0886368a2790c4656c559f84f687da20b4804b88d324",
        "988a7fda505b9d0fa2e825c588a75716d402b3b494a107c0739834346269ed37"),
    "deterministic_two_agent": (
        "516290a87e730048033b68cdf349afffd673b8f419e4843f4bb3cd05aaadb287",
        "0977ed10e3b52f9f283fc52efcc4b81114b36ffaee770de987ecefa2667f93d2"),
    "general_moment_two_agent": (
        "f7eb4cf9f855bc3dbe7b5e867528792803bdcc0c6508ee99b6f210596140acb9",
        "49ddbbdab5726aa1c7c1c32a10901449b158d93579a6aa58c0ffbc2c1961294a"),
    "multiplicative_two_agent": (
        "1932d7c1fdd6b5ffadd5f9947bd07f33b5a071e9109e4d5df8deaf17a6b89aef",
        "633937442830b2ac38e2465aeeb9bac4fd13707cb199418c42823741748dfec6"),
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
