"""A/B timing of the compiled sweeps of two source trees, each in its own interpreter.

    python3 tools/sweep_ab.py PARENT_TREE CHANGE_TREE --pairs 40
    python3 tools/sweep_ab.py . . --pairs 2 --case dmm:dmm-short:20

Each tree runs in a worker interpreter per case, started as tools/same_bytes.py
starts a tree: sys.executable with PYTHONPATH set to that tree's src and to
tools/. So each tree's imports, wrappers and compiled library are its own, and
neither tool needs PYTHONPATH or an install. Workers inherit the CPU affinity:
`taskset -c N python3 tools/sweep_ab.py ...` pins both trees.

The corpora are the benchmark's, generated through perfbench/workloads.py at
SEED with PARENT_TREE's package. A case KERNEL:WORKLOAD:K (K an integer >= 1;
every case is checked before the first runs) starts both trees' chains from
SEED, then runs one sweep per tree in each pair, the order alternating from
pair to pair: the sweep that lda.lda_chain or dmm.dmm_chain builds. Each
worker times its sweep and answers with the seconds and a digest of each part
of its state. After every pair the tool asserts that the two trees' z, count
tables, random generators and theta are identical. It prints each tree's median
sweep time and the pairs the change tree won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack

import numpy as np

import same_bytes

TOOLS = os.path.dirname(os.path.abspath(__file__))
# Each workload's corpus, relative to its plan's folder, and its beta.
CORPORA = {"lda-train": ("corpus.txt", 0.01), "dmm-short": ("corpus.txt", 0.1),
           "infer-replay": (os.path.join("train", "corpus.txt"), 0.01)}
DEFAULT_CASES = ("lda:lda-train:20", "lda:lda-train:100", "lda:infer-replay:100",
                 "dmm:dmm-short:20", "dmm:dmm-short:50", "dmm:infer-replay:20")
TABLES = {"lda": ("z", "nkw", "nk"), "dmm": ("z", "mk", "nkw", "nk")}
SEED = 101  # the workloads' and the chains' seed


def digest(values, dtype="int64"):
    """sha256 of values' shape and of its values as C-order dtype: equal values
    give one digest, whatever dtype or memory order holds them."""
    data = np.ascontiguousarray(values, dtype=dtype)
    return hashlib.sha256(repr(data.shape).encode() + data.tobytes()).hexdigest()


def worker(kernel, corpus_path, beta, k):
    """A tree's side of a case, run in its own interpreter: builds the chain
    from SEED and answers on stdout with one JSON line, then again after each
    sweep that a line on stdin asks for, until stdin closes."""
    from gibbstopics import core, dmm, lda, persistence
    data = persistence.load_corpus(corpus_path)
    hp = core.Hyperparams(model=kernel.upper(), ntopics=int(k), alpha=same_bytes.workloads.ALPHA,
                          beta=float(beta))
    rng = core.make_rng(SEED)[0]
    init, chain = (lda.init_lda, lda.lda_chain) if kernel == "lda" else (dmm.init_dmm, dmm.dmm_chain)
    state = init(data, hp, rng)
    sweep, theta = chain(data, state, hp, rng)
    seconds = 0.0
    while True:
        digests = {name: digest(getattr(state, name)) for name in TABLES[kernel]}
        digests["rng"] = hashlib.sha256(json.dumps(rng.bit_generator.state).encode()).hexdigest()
        digests["theta"] = digest(theta(), "float64")
        print(json.dumps({"seconds": seconds, "state": digests}), flush=True)
        if not sys.stdin.readline():
            return
        t = time.perf_counter()
        sweep()
        seconds = time.perf_counter() - t


def answer(label, proc):
    """The next answer of a worker; exit 1 if it has stopped."""
    line = proc.stdout.readline()
    if not line:
        sys.exit(f"sweep_ab: {label} stopped")
    return json.loads(line)


def parse_case(case):
    """The kernel, workload and K of a case KERNEL:WORKLOAD:K, or None unless it
    has three fields, a known kernel and workload, and an integer K >= 1."""
    fields = case.split(":")
    if (len(fields) == 3 and fields[0] in TABLES and fields[1] in CORPORA
            and fields[2].isascii() and fields[2].isdigit() and int(fields[2]) >= 1):
        return fields[0], fields[1], int(fields[2])
    return None


def run_case(srcs, case, pairs, work):
    kernel, workload, k = parse_case(case)
    folder = os.path.join(work, workload)
    if not os.path.isdir(folder):  # infer-replay plants its models with the package
        same_bytes.generate(srcs[0], workload, SEED, folder)
    name, beta = CORPORA[workload]
    argv = [sys.executable, "-c", "import sys, sweep_ab; sweep_ab.worker(*sys.argv[1:])",
            kernel, os.path.join(folder, "work", name), str(beta), str(k)]
    with ExitStack() as stack:
        sides = [(f"{case}: tree {src}", stack.enter_context(subprocess.Popen(
            argv, cwd=work, env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, TOOLS])),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))) for src in srcs]
        for side in sides:  # each chain is built
            answer(*side)
        times = [[], []]
        for pair in range(pairs):
            states = [None, None]
            for i in (0, 1) if pair % 2 == 0 else (1, 0):
                print(file=sides[i][1].stdin, flush=True)
                got = answer(*sides[i])
                times[i].append(got["seconds"])
                states[i] = got["state"]
            for key in states[0]:
                if states[0][key] != states[1].get(key):
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
    srcs = [same_bytes.src_of(parser, tree) for tree in (args.parent, args.change)]
    print(f"{'case':24} {'A ms':>10} {'B ms':>10} {'B/A':>7} {'B won':>8}")
    with tempfile.TemporaryDirectory(prefix="sweep_ab-") as work:
        for case in cases:
            run_case(srcs, case, args.pairs, work)


if __name__ == "__main__":
    main()
