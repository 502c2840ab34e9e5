"""Golden reports: every command below must keep its bytes and exit code.

Each command runs through ``cli.main`` in process.  Its ``--json`` and
``--markdown`` reports, its stderr and its exit code are compared with the
files under ``tests/golden/``; a report the command did not write (an exit-2
refusal) must stay unwritten.  Stdout carries wall time and is not compared.

A changed golden file is a deliberate output change.  Regenerate all of them
from the repository root with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from torsod.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
STRESS = str(HERE.parent / "perfbench" / "data" / "stress.json")

COMMANDS = {
    "sod-stress": ["sod", STRESS, "--box", "6"],
    "sod-a1-half": ["sod", "a1-half", "--box", "6"],
    "sod-a2-third": ["sod", "a2-third", "--box", "6"],
    "sod-a1-half-line": ["sod", "a1-half-line", "--box", "6"],
    "sod-a1-half-crepant": ["sod", "a1-half-crepant"],
    "classify-a1-half": ["classify", "a1-half"],
    "oracle-a1-half-verify": ["oracle", "a1-half", "--verify-sod"],
    "oracle-a2-third-verify": ["oracle", "a2-third", "--verify-sod"],
    "oracle-a1-half-line-verify": ["oracle", "a1-half-line", "--verify-sod"],
    "oracle-a1-half-crepant-verify": ["oracle", "a1-half-crepant",
                                      "--verify-sod"],
    "oracle-smooth-blowup-verify": ["oracle", "smooth-blowup",
                                    "--verify-sod"],
    "oracle-p1": ["oracle", "p1"],
    "oracle-p2": ["oracle", "p2"],
    "oracle-stacky-p1": ["oracle", "stacky-p1"],
}

PARTS = ("exit", "stderr", "json", "md")


def run_command(argv, workdir):
    """Run one command; return {part: bytes} for every part it produced."""
    json_path = Path(workdir, "report.json")
    md_path = Path(workdir, "report.md")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--json", str(json_path),
                            "--markdown", str(md_path)])
    parts = {"exit": f"{code}\n".encode(), "stderr": err.getvalue().encode()}
    for part, path in (("json", json_path), ("md", md_path)):
        if path.exists():
            parts[part] = path.read_bytes()
    return parts


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name, tmp_path):
    got = run_command(COMMANDS[name], tmp_path)
    for part in PARTS:
        path = GOLDEN / f"{name}.{part}"
        expected = path.read_bytes() if path.exists() else None
        assert got.get(part) == expected, f"{path.name} differs"


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as workdir:
            for part, data in run_command(argv, workdir).items():
                (GOLDEN / f"{name}.{part}").write_bytes(data)


if __name__ == "__main__":
    regenerate()
