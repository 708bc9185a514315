"""Keeps the benchmark harness from rotting: run it in smoke mode.

    python3 -m pytest bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes_every_workload():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum(line.startswith("ok ") for line in proc.stdout.splitlines()) == 8


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "wrp", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
