"""Run the gibbstopics CLI in this process with a span around every call into
a layer's public entry points, and write the spans to a JSON file at exit.

    python3 perfbench/tracer.py <spawn-time> <spans.json> <CLI arguments...>

<spawn-time> is the parent's time.monotonic() just before it started this
process, so interpreter start and `import gibbstopics` count as cli import
time. Entry points are wrapped wherever a gibbstopics module binds them, so
calls between modules are traced without changing the program.
"""

import json
import os
import sys
import time

import numpy as np


def traced_entry_points():
    """layer -> (module, public name) of each traced entry point."""
    import gibbstopics
    from gibbstopics import dmm, inference, persistence

    return {
        "corpus": [(gibbstopics, "load_corpus"), (gibbstopics, "load_labels")],
        "lda": [(gibbstopics, "train_lda"), (gibbstopics, "init_lda"), (gibbstopics, "lda_sweep")],
        "dmm": [(gibbstopics, "train_dmm"), (gibbstopics, "init_dmm"), (gibbstopics, "dmm_sweep"),
                (gibbstopics, "estimate_theta_dmm"), (dmm, "doc_word_counts")],
        "core": [(gibbstopics, "estimate_theta_lda"), (gibbstopics, "estimate_phi")],
        "inference": [(gibbstopics, "load_pretrained"), (gibbstopics, "infer"),
                      (inference, "fold_corpus")],
        "persistence": [(persistence, "save_outputs"), (persistence, "read_matrix")],
        "evaluation": [(gibbstopics, "evaluate_files")],
    }


def _flat_z(z):
    return np.array(z, copy=True) if isinstance(z, np.ndarray) else np.concatenate(
        [np.asarray(zd) for zd in z] or [np.empty(0, np.int64)])


def _table_bytes(state):
    tables = (state.ndk, state.nkw, state.nk, state.mk)
    return int(sum(t.nbytes for t in tables if t is not None))


def _n_tokens(docs):
    return int(sum(len(doc) for doc in docs))


def _probe_sweep(corpus, state, *args, **kwargs):
    before = _flat_z(state.z)

    def after(_):
        counts = {"tokens": _n_tokens(corpus.docs), "docs": len(corpus.docs),
                  "draws": int(before.size), "moved": int((_flat_z(state.z) != before).sum()),
                  "table_bytes": _table_bytes(state)}
        if state.mk is not None:
            counts["nonempty"] = int((state.mk > 0).sum())
        return counts
    return after


def _probe_fold(model, path, *args, **kwargs):
    def after(folded):
        with open(path, encoding="utf-8") as f:
            raw = sum(len(line.split()) for line in f)
        return {"raw_tokens": raw, "oov_tokens": raw - _n_tokens(folded.docs)}
    return after


def _probe_save(base, *args, iteration=None, **kwargs):
    sfx = "" if iteration is None else f".{iteration}"

    def after(_):
        return {"bytes": sum(os.path.getsize(f"{base}.{s}{sfx}") for s in
                             ("theta", "phi", "topWords", "topicAssignments", "paras"))}
    return after


PROBES = {
    "load_corpus": lambda *a, **k: lambda corpus: {"tokens": corpus.n_tokens},
    "init_lda": lambda *a, **k: lambda state: {"table_bytes": _table_bytes(state)},
    "init_dmm": lambda *a, **k: lambda state: {"table_bytes": _table_bytes(state)},
    "lda_sweep": _probe_sweep,
    "dmm_sweep": _probe_sweep,
    "fold_corpus": _probe_fold,
    "save_outputs": _probe_save,
    "read_matrix": lambda *a, **k: lambda rows: {"rows": len(rows)},
}


class Tracer:
    """Spans kept in memory: name, layer, start, end, parent index, counts.
    Work the probes do is recorded under layer "trace", so it stays out of
    every program layer's self time."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def _open(self, name, layer):
        span = {"name": name, "layer": layer,
                "parent": self.stack[-1] if self.stack else None, "counts": {}}
        self.spans.append(span)
        span["start"] = time.monotonic()
        return span

    def _probe(self, fn, *args, **kwargs):
        span = self._open("probe", "trace")
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()

    def wrap(self, layer, name, func):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            after = self._probe(probe, *args, **kwargs) if probe else None
            span = self._open(name, layer)
            self.stack.append(len(self.spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self.stack.pop()
            if after:
                span["counts"] = self._probe(after, result)
            return result
        return traced

    def install(self, entry_points):
        modules = [m for n, m in sys.modules.items()
                   if n == "gibbstopics" or n.startswith("gibbstopics.")]
        for layer, entries in entry_points.items():
            for owner, name in entries:
                func = getattr(owner, name)
                wrapper = self.wrap(layer, name, func)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            setattr(module, attr, wrapper)


def main():
    spawn, out_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    entry_points = traced_entry_points()
    from gibbstopics import cli
    imported = time.monotonic()
    tracer = Tracer()
    tracer.install(entry_points)
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"spawn": spawn, "imported": imported, "exit": code,
                       "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
