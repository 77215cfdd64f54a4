"""perfbench/tracer.py wraps the program's entry points and reads its corpus
and state (corpus.docs, a flat or per-document state.z, state.ndk that may be
None). A refactor that breaks any of that breaks the benchmark's traced runs,
so each sampling mode is run under the tracer here."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (sweep name, span count the sweep must draw once per), CLI arguments
RUNS = (
    ("lda_sweep", "tokens", ["-model", "LDA", "-corpus", "{dir}/corpus.txt", "-name", "tLDA"]),
    ("dmm_sweep", "docs", ["-model", "DMM", "-corpus", "{dir}/corpus.txt", "-name", "tDMM"]),
    ("lda_sweep", "tokens", ["-model", "LDAinf", "-paras", "{dir}/tLDA.paras",
                             "-corpus", "{dir}/unseenTest.txt", "-name", "tLDAinf"]),
    ("dmm_sweep", "docs", ["-model", "DMMinf", "-paras", "{dir}/tDMM.paras",
                           "-corpus", "{dir}/unseenTest.txt", "-name", "tDMMinf"]),
)


def test_tracer_runs_every_sampling_mode(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(ROOT / "sample_data", data)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for sweep, unit, args in RUNS:
        spans_path = tmp_path / "spans.json"
        argv = [a.replace("{dir}", str(data)) for a in args] + ["-niters", "2", "-seed", "1"]
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), "0",
                               str(spans_path), *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        spans = [s for s in json.loads(spans_path.read_text())["spans"] if s["name"] == sweep]
        assert len(spans) == 2, args
        assert all(s["counts"]["draws"] == s["counts"][unit] > 0 for s in spans), args
