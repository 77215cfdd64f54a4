"""tools/sweep_ab.py, the A/B timing of two trees' sweeps, run on this tree
against itself: both sides import, sweep the benchmark's corpora and agree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("lda:lda-train:20", "dmm:dmm-short:20")


def test_sweep_ab_runs_the_tree_against_itself():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_ab.py"), str(ROOT),
                           str(ROOT), "--pairs", "2", *(a for c in CASES for a in ("--case", c))],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == list(CASES)
    assert all(row[-2].endswith("/2") and row[-1] == "identical" for row in rows)

