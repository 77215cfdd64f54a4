"""perfbench/tracer.py wraps the program's entry points and reads its corpus
and state (corpus.docs, a flat or per-document state.z, state.ndk that may be
None). A refactor that breaks any of that breaks the benchmark's traced runs,
so each sampling mode is run under the tracer here."""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The entry points a run starts from. A missed binding would leave the chain
# untraced and move its self time from lda or dmm into cli.other_s.
ENTRIES = ("train_lda", "train_dmm", "load_pretrained", "infer")
# (sweep name, span count the sweep must draw once per), the run's entry
# spans, CLI arguments
RUNS = (
    ("lda_sweep", "tokens", {"train_lda"},
     ["-model", "LDA", "-corpus", "{dir}/corpus.txt", "-name", "tLDA"]),
    ("dmm_sweep", "docs", {"train_dmm"},
     ["-model", "DMM", "-corpus", "{dir}/corpus.txt", "-name", "tDMM"]),
    ("lda_sweep", "tokens", {"load_pretrained", "infer"},
     ["-model", "LDAinf", "-paras", "{dir}/tLDA.paras",
      "-corpus", "{dir}/unseenTest.txt", "-name", "tLDAinf"]),
    ("dmm_sweep", "docs", {"load_pretrained", "infer"},
     ["-model", "DMMinf", "-paras", "{dir}/tDMM.paras",
      "-corpus", "{dir}/unseenTest.txt", "-name", "tDMMinf"]),
)


def test_tracer_runs_every_sampling_mode(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(ROOT / "sample_data", data)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for sweep, unit, entries, args in RUNS:
        spans_path = tmp_path / "spans.json"
        argv = [a.replace("{dir}", str(data)) for a in args] + ["-niters", "2", "-seed", "1"]
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), "0",
                               str(spans_path), *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        all_spans = json.loads(spans_path.read_text())["spans"]
        names = Counter(s["name"] for s in all_spans)
        assert [names[e] for e in ENTRIES] == [int(e in entries) for e in ENTRIES], args
        spans = [s for s in all_spans if s["name"] == sweep]
        assert len(spans) == 2, args
        assert all(s["counts"]["draws"] == s["counts"][unit] > 0 for s in spans), args


def test_tracer_wraps_eval(tmp_path):
    # Eval imports its metrics only when it runs; the tracer must still find
    # evaluate_files, or Eval's time would move into cli.other_s.
    (tmp_path / "corpus.LABEL").write_text("X\nY\n")
    (tmp_path / "m.theta").write_text("0.9 0.1\n0.2 0.8\n")
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), "0",
                           str(spans_path), "-model", "Eval", "-label",
                           str(tmp_path / "corpus.LABEL"), "-dir", str(tmp_path), "-prob", "theta"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = Counter(s["name"] for s in json.loads(spans_path.read_text())["spans"])
    assert names["evaluate_files"] == names["read_matrix"] == 1, names
