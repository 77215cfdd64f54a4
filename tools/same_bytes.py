"""Check that two source trees make the same bytes from the benchmark's CLI runs.

    python3 tools/same_bytes.py PARENT_TREE CHANGE_TREE

For each workload of perfbench/workloads.py and each seed in SEEDS, the inputs
are generated once, with PARENT_TREE's package (infer-replay plants its
models through it). Then each argument set in ARG_SETS runs every CLI step of
the workload, first with PARENT_TREE's src, then with CHANGE_TREE's, each
time `python -m gibbstopics.cli` in one work folder restored to the generated
inputs. Both trees thus see the same paths, and .paras files need no
normalising. The steps run with PYTHONUNBUFFERED unset, so that stdout is
block-buffered into its pipe, as into a user's redirect, and the comparison of
stdout covers its flush at exit. The run stops, with exit status 1, at the
first step whose exit code, stdout or stderr differs, or the first file (by
sha256) that differs or exists on one side only; otherwise it prints one line
per case.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

SEEDS = (101, 102, 103)
# Flags set on every sampling step (LDA, DMM, LDAinf, DMMinf), Eval steps untouched.
ARG_SETS = {"bench": {}, "-niters 30 -sstep 10": {"-niters": "30", "-sstep": "10"}}


def src_of(parser, tree):
    """tree's src folder; parser, the running tool's, refuses a tree without the package."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "gibbstopics", "__init__.py")):
        parser.error(f"no gibbstopics package under {src}")
    return src


def with_flags(args, flags):
    """args with each flag in flags set to its value, appended when absent."""
    args = list(args)
    for flag, value in flags.items():
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    return args


def run_tree(src, steps, work):
    """Run the steps with src's package in work; each step's (exit code,
    stdout, stderr), then each file's sha256 by its path under work."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    results = []
    for args in steps:
        proc = subprocess.run([sys.executable, "-m", "gibbstopics.cli", *args], cwd=work,
                              env=env, capture_output=True, stdin=subprocess.DEVNULL, timeout=300)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    files = {}
    for folder, _, names in os.walk(work):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, work)] = hashlib.sha256(f.read()).hexdigest()
    return results, files


def first_difference(a, b, steps):
    """What first differs between two run_tree results, or None."""
    for i, (args, x, y) in enumerate(zip(steps, a[0], b[0]), start=1):
        for what, u, v in zip(("exit code", "stdout", "stderr"), x, y):
            if u != v:
                return f"step {i} ({' '.join(args[:2])}): {what} differs"
    for path in sorted(a[1].keys() | b[1].keys()):
        if a[1].get(path) != b[1].get(path):
            side = "" if path in a[1] and path in b[1] else " (on one side only)"
            return f"file {path} differs{side}"
    return None


def generate(src, workload, seed, scratch):
    """workload's plan at seed, its inputs generated with src's package into
    scratch/work and copied to scratch/inputs."""
    shutil.rmtree(scratch, ignore_errors=True)
    sys.path.insert(0, src)
    try:
        plan = workloads.PLANS[workload](os.path.join(scratch, "work"), seed)
    finally:
        sys.path.remove(src)
    shutil.copytree(os.path.join(scratch, "work"), os.path.join(scratch, "inputs"))
    return plan


def compare(srcs, steps, scratch, case):
    """Run the steps under each tree in scratch/work, restored from
    scratch/inputs before each; exit on the first difference."""
    work = os.path.join(scratch, "work")
    runs = []
    for src in srcs:
        shutil.rmtree(work)
        shutil.copytree(os.path.join(scratch, "inputs"), work)
        runs.append(run_tree(src, steps, work))
    diff = first_difference(*runs, steps)
    if diff:
        sys.exit(f"same_bytes: {case}: {diff}")
    print(f"{case:44} {len(steps)} steps, {len(runs[0][1])} files   identical")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree A (the parent)")
    parser.add_argument("change", help="source tree B (the change)")
    args = parser.parse_args(argv)
    srcs = [src_of(parser, tree) for tree in (args.parent, args.change)]
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as scratch:
        for workload in workloads.PLANS:
            for seed in SEEDS:
                plan = generate(srcs[0], workload, seed, scratch)
                for name, flags in ARG_SETS.items():
                    steps = [with_flags(step.args, flags) if step.model else step.args
                             for step in plan.steps]
                    compare(srcs, steps, scratch, f"{workload} seed {seed} {name}")


if __name__ == "__main__":
    main()
