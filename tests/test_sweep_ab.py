"""tools/sweep_ab.py, the A/B timing of two trees' sweeps, run on this tree
against itself: both sides import, sweep the benchmark's corpora and agree."""

import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("case", ["lda:lda-train", "lda:lda-train:x", "lda:lda-train:0",
                                  "lda:lda-train:20:1", "lda:no-such:20", "hdp:lda-train:20"])
def test_malformed_case_is_refused_before_any_run(case):
    # A good case first: it must not run, nor its workload be generated.
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_ab.py"), str(ROOT),
                           str(ROOT), "--case", CASES[0], "--case", case],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"bad --case {case!r}" in proc.stderr
    assert "Traceback" not in proc.stderr
