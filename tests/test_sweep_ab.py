"""tools/sweep_ab.py, the A/B timing of two trees' sweeps: this tree against
itself agrees, a tree that draws otherwise or cannot run is stopped and named,
and the state digest compares values, not how they are held."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import sweep_ab  # noqa: E402

CASES = ("lda:lda-train:20", "dmm:dmm-short:20")


def run_tool(*args, timeout=120):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_ab.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=timeout)


def tree_with_lda(tmp_path, edit):
    """A copy of this tree's src under tmp_path, its lda.py's text put through edit."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    lda = tmp_path / "src" / "gibbstopics" / "lda.py"
    lda.write_text(edit(lda.read_text()))
    return tmp_path


def test_sweep_ab_runs_the_tree_against_itself():
    proc = run_tool(ROOT, ROOT, "--pairs", "2", *(a for c in CASES for a in ("--case", c)))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == list(CASES)
    assert all(row[-2].endswith("/2") and row[-1] == "identical" for row in rows)


def test_a_tree_that_draws_otherwise_is_stopped(tmp_path):
    old = "rng.random(corpus.n_tokens)"
    tree = tree_with_lda(tmp_path, lambda text: text.replace(old, "1 - " + old, 1))
    proc = run_tool(ROOT, tree, "--pairs", "1", "--case", CASES[0])
    assert proc.returncode == 1
    assert proc.stderr.endswith(f"sweep_ab: {CASES[0]}: z differs after pair 1\n")


def test_a_tree_that_cannot_run_is_named_not_waited_for(tmp_path):
    tree = tree_with_lda(tmp_path, lambda text: text + '\nraise RuntimeError("broken tree")\n')
    proc = run_tool(ROOT, tree, "--pairs", "1", "--case", CASES[0], timeout=60)
    assert proc.returncode == 1
    assert "RuntimeError: broken tree" in proc.stderr
    assert proc.stderr.endswith(f"sweep_ab: {CASES[0]}: tree {tree / 'src'} stopped\n")


def test_a_missing_tree_is_refused_by_name_before_any_input(tmp_path):
    # No workload is generated: tempfile's folder, under TMPDIR, stays empty.
    (tmp_path / "tmp").mkdir()
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_ab.py"),
                           str(tmp_path / "no-such"), str(ROOT), "--pairs", "1"],
                          capture_output=True, text=True,
                          env=dict(os.environ, TMPDIR=str(tmp_path / "tmp")), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        f"sweep_ab.py: error: no gibbstopics package under {tmp_path / 'no-such' / 'src'}\n")
    assert not list((tmp_path / "tmp").iterdir())


def test_digest_compares_values():
    table = np.arange(12, dtype=np.int64).reshape(3, 4)
    assert sweep_ab.digest(table.astype(np.int32)) == sweep_ab.digest(table)
    assert sweep_ab.digest(np.asfortranarray(table)) == sweep_ab.digest(table)
    changed = table.copy()
    changed[1, 2] += 1
    assert sweep_ab.digest(changed) != sweep_ab.digest(table)


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
