"""Golden outputs for the CLI subcommands the other tests only smoke.

Each case runs ``repro <command>`` in-process at the smallest scale and
compares its stdout (and the CSV it writes, where it writes one)
byte-for-byte against ``tests/golden/cli/``.  The files pin what a
user sees — report layout, series labels, ordering, every cycle count —
so a rewrite of the command plumbing cannot drift a byte unnoticed.

Regenerate after a deliberate output change with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.sim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

#: Shared flags: tiny scale, two instances, no cache, no daemon.
SMALL = [
    "--scale", "0.000125", "--max-instances", "2",
    "--no-cache", "--no-daemon", "--quiet",
]

#: name -> argv.  ``--csv <name>.csv`` is relative to the working
#: directory, so the "CSV written to" line is stable too.
CASES = {
    "synth_point": ["synth", *SMALL],
    "synth_sweep": ["synth", "--sweep", *SMALL, "--csv", "synth_sweep.csv"],
    "prefetch_point": ["prefetch", *SMALL],
    "prefetch_sweep": [
        "prefetch", "--sweep", *SMALL, "--csv", "prefetch_sweep.csv",
    ],
    "fig2": ["fig2", *SMALL, "--csv", "fig2.csv"],
    "fig3": ["fig3", *SMALL, "--csv", "fig3.csv"],
    "inject": [
        "inject", "--trials", "1", "--instances", "2", *SMALL,
        "--csv", "inject.csv",
    ],
    "run_memmap": ["run", "alpha", "2", "--architecture", "memmap", *SMALL],
    "checkpoint": [
        "checkpoint", "alpha", "3", "ckpt.json", *SMALL, "--at-quanta", "200",
    ],
}

#: Finishes the file the ``checkpoint`` case writes.
RESUME = ["resume", "ckpt.json"]


def _run(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _outputs(name: str, argv: list[str], out: str, workdir: Path) -> dict:
    """Every golden artefact of one case: stdout, plus its CSV."""
    files = {f"{name}.out": out}
    if "--csv" in argv:
        csv = argv[argv.index("--csv") + 1]
        files[csv] = (workdir / csv).read_text()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = _run(CASES[name], capsys)
    for filename, text in _outputs(name, CASES[name], out, tmp_path).items():
        assert text == (GOLDEN / filename).read_text(), filename


def test_checkpoint_resume_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(CASES["checkpoint"], capsys)
    out = _run(RESUME, capsys)
    assert out == (GOLDEN / "resume.out").read_text()


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    import contextlib
    import io
    import os
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for name, argv in {**CASES, "resume": RESUME}.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(argv) == 0
            files = _outputs(name, argv, buffer.getvalue(), Path(workdir))
            for filename, text in files.items():
                (GOLDEN / filename).write_text(text)
                print(f"wrote {GOLDEN / filename}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
