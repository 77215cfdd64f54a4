"""tools/same_bytes.py, the byte comparison of two trees' CLI runs: one case
of this tree against itself agrees, and each kind of difference is named."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import same_bytes  # noqa: E402


def test_same_bytes_runs_one_case_of_the_tree_against_itself(tmp_path, capsys):
    src = str(ROOT / "src")
    plan = same_bytes.generate(src, "lda-train", 101, str(tmp_path))
    same_bytes.compare([src, src], [step.args for step in plan.steps], str(tmp_path), "case")
    assert capsys.readouterr().out.split() == ["case", "2", "steps,", "7", "files", "identical"]


def test_steps_run_block_buffered(tmp_path, monkeypatch):
    # A stand-in package whose CLI reports whether its stdout writes through
    # its buffer, as PYTHONUNBUFFERED makes it do, and whether it sees that
    # variable.
    package = tmp_path / "src" / "gibbstopics"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import os, sys\nprint(sys.stdout.write_through, 'PYTHONUNBUFFERED' in os.environ)\n")
    (tmp_path / "work").mkdir()
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    results, _ = same_bytes.run_tree(str(tmp_path / "src"), [[]], str(tmp_path / "work"))
    assert results == [(0, b"False False\n", b"")]


def test_first_difference_names_the_step_or_the_file():
    steps = [["-model", "LDA", "-corpus", "c.txt"], ["-model", "Eval"]]
    ran = [(0, b"LDA done\n", b""), (0, b"NMI 1\n", b"")]
    files = {"lda.theta": "1", "lda.phi": "2"}
    assert same_bytes.first_difference((ran, files), (ran, dict(files)), steps) is None
    for other, diff in [
        ((ran[:1] + [(1, b"NMI 1\n", b"")], files), "step 2 (-model Eval): exit code differs"),
        (([(0, b"LDA done.\n", b"")] + ran[1:], files), "step 1 (-model LDA): stdout differs"),
        ((ran[:1] + [(0, b"NMI 1\n", b"!\n")], files), "step 2 (-model Eval): stderr differs"),
        ((ran, {**files, "lda.phi": "3"}), "file lda.phi differs"),
        ((ran, {"lda.theta": "1"}), "file lda.phi differs (on one side only)"),
    ]:
        assert same_bytes.first_difference((ran, files), other, steps) == diff


def test_a_missing_tree_is_refused_by_name_before_any_input(tmp_path):
    # No input is generated: tempfile's folder, under TMPDIR, stays empty.
    (tmp_path / "tmp").mkdir()
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "same_bytes.py"),
                           str(tmp_path / "no-such"), str(ROOT)], capture_output=True, text=True,
                          env=dict(os.environ, TMPDIR=str(tmp_path / "tmp")), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        f"same_bytes.py: error: no gibbstopics package under {tmp_path / 'no-such' / 'src'}\n")
    assert not list((tmp_path / "tmp").iterdir())
