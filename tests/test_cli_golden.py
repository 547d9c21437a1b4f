"""Byte-level regression test of the CLI against recorded digests.

Each command in cli_golden.json runs with `--out .` in an empty directory;
one sha256 covers its exit code, its stdout and every file it wrote.  The
digests were recorded with the numpy version stored in the fixture, and
floating-point output may legitimately differ under another one.

Regenerate (only when an output change is intended) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lfns.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    ["solve", "--model", "auv-paper"],
    ["solve", "--model", "scalar-demo"],
    ["solve", "--model", "scalar-demo", "--mode", "finite", "--horizon", "9"],
    ["converge", "--model", "auv-paper"],
    ["converge", "--model", "auv-paper", "--format", "csv"],
    ["converge", "--model", "scalar-demo", "--horizon", "40", "--format", "csv"],
    ["simulate", "--model", "scalar-demo", "--trials", "8", "--horizon", "20", "--seed", "3"],
    ["simulate", "--model", "scalar-demo", "--mode", "finite", "--horizon", "12",
     "--trials", "5"],
    ["simulate", "--model", "auv-paper", "--trials", "40", "--horizon", "30", "--seed", "1"],
    # more than one 1024-trial block
    ["simulate", "--model", "scalar-demo", "--trials", "1100", "--horizon", "4", "--seed", "5"],
    ["verify", "--model", "scalar-demo", "--seed", "2"],
    ["verify", "--model", "scalar-demo", "--perturb-gains"],
    ["verify", "--model", "scalar-demo", "--mode", "finite", "--horizon", "60"],
    ["verify", "--model", "auv-paper", "--seed", "0"],
]


def _feed(h, label: str, data: bytes) -> None:
    h.update(f"{label} {len(data)}\n".encode())
    h.update(data)


def run_digest(argv, workdir: Path) -> tuple[int, str]:
    """Run one command in workdir (which must be the cwd) and hash what it produced."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", "."])
    h = hashlib.sha256()
    _feed(h, "exit", str(code).encode())
    _feed(h, "stdout", stdout.getvalue().encode())
    for path in sorted(workdir.iterdir()):
        _feed(h, f"file {path.name}", path.read_bytes())
    return code, h.hexdigest()


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def artifacts(argv) -> list[str]:
    """The names of the files a command writes."""
    command, name = argv[0], argv[2]
    mode = "finite" if "finite" in argv else "stationary"
    return {"solve": [f"solve-{name}-{mode}.json"],
            "converge": [f"converge-{name}.{'csv' if 'csv' in argv else 'json'}"],
            "simulate": [f"simulate-{name}-{kind}"
                         for kind in ("curves.csv", "summary.json", "traces.jsonl")],
            "verify": [f"verify-{name}.json"]}[command]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
def test_cli_output_matches_golden(argv, tmp_path, monkeypatch):
    fixture = _fixture()
    monkeypatch.chdir(tmp_path)
    code, digest = run_digest(argv, tmp_path)
    # the command's own files, and no stage directory or part file left
    assert sorted(p.name for p in tmp_path.iterdir()) == artifacts(argv)
    if fixture["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {fixture['numpy']}, "
                    f"running {np.__version__}")
    want = {tuple(entry["argv"]): entry for entry in fixture["commands"]}[tuple(argv)]
    assert code == want["exit"]
    assert digest == want["sha256"]


def test_fixture_lists_every_command():
    assert [entry["argv"] for entry in _fixture()["commands"]] == COMMANDS


if __name__ == "__main__":
    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                code, digest = run_digest(argv, Path(tmp))
            finally:
                os.chdir(cwd)
        entries.append({"argv": argv, "exit": code, "sha256": digest})
        print(code, digest, " ".join(argv), file=sys.stderr)
    doc = {"numpy": np.__version__, "commands": entries}
    FIXTURE.write_text(json.dumps(doc, indent=2) + "\n")
