"""Pinned output bytes of every CLI command on the shipped scenarios.

`golden_sha256.json` holds the SHA-256 of each file that solve,
simulate --plot, verify and sweep --sweep p=2,3 write for each shipped
scenario.  manifest.txt is hashed without its created_utc line, the only
line that differs between two runs.  A change that moves any output byte
must update the pinned hashes and say why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mftg.cli import main
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
