"""A/B timing of the compiled sweeps of two source trees, in one process.

    python3 tools/sweep_ab.py PARENT_TREE CHANGE_TREE --pairs 40
    python3 tools/sweep_ab.py . . --pairs 2 --case dmm:dmm-short:20

Each tree's src/gibbstopics is imported as its own set of modules, by setting
the other tree's aside in sys.modules while it imports. src/ imports its own
modules only at module level, so each tree's functions keep their own
wrappers and compiled library, even where the kernels take other arguments.

The corpora are the benchmark's, generated through perfbench/workloads.py at
SEED. A case KERNEL:WORKLOAD:K (K an integer >= 1; every case is checked
before the first runs) starts both trees from the same seed and then runs
one sweep per tree in each pair, the order alternating from pair to pair:
lda_sweep for lda, dmm.dmm_chain's sweep for dmm. After every pair
it asserts that the two trees' z, count tables and random generators, and for
DMM theta, are identical. It prints each tree's median sweep time and the
pairs the change tree won.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

# Each workload's corpus, relative to its plan's folder, and its beta.
CORPORA = {"lda-train": ("corpus.txt", 0.01), "dmm-short": ("corpus.txt", 0.1),
           "infer-replay": (os.path.join("train", "corpus.txt"), 0.01)}
DEFAULT_CASES = ("lda:lda-train:20", "lda:lda-train:100", "dmm:dmm-short:20",
                 "dmm:dmm-short:50", "dmm:infer-replay:20")
TABLES = {"lda": ("z", "ndk", "nkw", "nk"), "dmm": ("z", "mk", "nkw", "nk")}
SEED = 101  # the workloads' and the chains' seed


def _package_modules():
    return {n: sys.modules.pop(n) for n in list(sys.modules) if n.split(".")[0] == "gibbstopics"}


@contextmanager
def installed(modules):
    """modules in sys.modules as the gibbstopics package, the others put back after."""
    others = _package_modules()
    sys.modules.update(modules)
    try:
        yield
    finally:
        _package_modules()
        sys.modules.update(others)


def import_tree(root):
    """The gibbstopics modules of root/src, imported apart from any other tree's."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "gibbstopics", "__init__.py")):
        sys.exit(f"sweep_ab: no gibbstopics package under {src}")
    with installed({}):
        sys.path.insert(0, src)
        try:
            modules = {m: importlib.import_module("gibbstopics." + m)
                       for m in ("core", "corpus", "lda", "dmm")}
            return SimpleNamespace(modules=_package_modules(), **modules)
        finally:
            sys.path.remove(src)


def start(tree, kernel, corpus_path, beta, k, seed):
    """A chain of tree's kernel from seed: the sweep, and a snapshot of its
    state (and theta for DMM) to compare."""
    corpus = tree.corpus.load_corpus(corpus_path)
    hp = tree.core.Hyperparams(model=kernel.upper(), ntopics=k, alpha=workloads.ALPHA, beta=beta)
    rng = tree.core.make_rng(seed)[0]
    if kernel == "lda":
        state = tree.lda.init_lda(corpus, hp, rng)
        sweep, theta = (lambda: tree.lda.lda_sweep(corpus, state, hp, rng)), None
    else:
        state = tree.dmm.init_dmm(corpus, hp, rng)
        sweep, theta = tree.dmm.dmm_chain(corpus, state, hp, rng)

    def snapshot():
        out = {name: getattr(state, name).copy() for name in TABLES[kernel]}
        out["rng"] = rng.bit_generator.state
        if theta is not None:
            out["theta"] = theta()
        return out
    return sweep, snapshot


def parse_case(case):
    """The kernel, workload and K of a case KERNEL:WORKLOAD:K, or None unless it
    has three fields, a known kernel and workload, and an integer K >= 1."""
    fields = case.split(":")
    if (len(fields) == 3 and fields[0] in TABLES and fields[1] in CORPORA
            and fields[2].isascii() and fields[2].isdigit() and int(fields[2]) >= 1):
        return fields[0], fields[1], int(fields[2])
    return None


def run_case(trees, case, pairs, work):
    kernel, workload, k = parse_case(case)
    folder = os.path.join(work, workload)
    if not os.path.isdir(folder):
        with installed(trees[0].modules):  # infer-replay plants its models with the package
            workloads.PLANS[workload](folder, SEED)
    name, beta = CORPORA[workload]
    chains = [start(tree, kernel, os.path.join(folder, name), beta, k, SEED) for tree in trees]
    times = [[], []]
    for pair in range(pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            t = time.perf_counter()
            chains[side][0]()
            times[side].append(time.perf_counter() - t)
        a, b = (snapshot() for _, snapshot in chains)
        for key in a:
            same = a[key] == b[key] if key == "rng" else np.array_equal(a[key], b[key])
            if not same:
                sys.exit(f"sweep_ab: {case}: {key} differs after pair {pair + 1}")
    med = [statistics.median(t) * 1e3 for t in times]
    won = sum(b < a for a, b in zip(*times))
    print(f"{case:24} {med[0]:10.3f} {med[1]:10.3f} {med[1] / med[0]:7.3f} {won:4}/{pairs}"
          "   identical")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree A (the parent)")
    parser.add_argument("change", help="source tree B (the change)")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--case", action="append",
                        help=f"KERNEL:WORKLOAD:K, repeatable (default: {' '.join(DEFAULT_CASES)})")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    cases = args.case or DEFAULT_CASES
    for case in cases:  # all of them before the first workload is generated
        if parse_case(case) is None:
            parser.error(f"bad --case {case!r}: cases are (lda|dmm):WORKLOAD:K, WORKLOAD one "
                         f"of {', '.join(CORPORA)}, K an integer >= 1")
    trees = [import_tree(args.parent), import_tree(args.change)]
    print(f"{'case':24} {'A ms':>10} {'B ms':>10} {'B/A':>7} {'B won':>8}")
    with tempfile.TemporaryDirectory(prefix="sweep_ab-") as work:
        for case in cases:
            run_case(trees, case, args.pairs, work)


if __name__ == "__main__":
    main()
