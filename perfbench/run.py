"""gibbstopics benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload lda-train --seed 1 --seconds 30 --trace 0

Run from the repository root; the program under test is src/gibbstopics. The
seed fixes the generated corpora and the CLI's -seed. A run is a closed loop
with one client: one CLI process at a time, each single-threaded. It measures
set-up first, then repeats rounds (the workload's CLI invocations in order)
until --seconds have passed. With --trace 1 it alternates untraced and traced
rounds and reports per-layer metrics instead of end-to-end ones.

Times are paced. The run pins itself and its children to one CPU and times a
fixed reference loop between children, because on a shared host the CPU's
speed swings by up to 2x for seconds to minutes at a time. wall_s and
setup_s divide each step's total wall time by the reference loop's total time
around it and scale by the loop's time on an uncontended CPU, so they read in
seconds at that speed. Raw wall times are printed beside them.

Human-readable lines come first; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics. Every file the run
writes goes under .perfbench_work/ and is deleted at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 10
PACE_ITERS = 500_000
# The reference loop's time on an uncontended vCPU of the machine the
# benchmark was tuned on (Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4):
# paced times are seconds at that speed.
PACE_REFERENCE_S = 0.129
CHILD_TIMEOUT_S = 120
CHILD_ENV = {"PYTHONPATH": SRC, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sampled_tokens_per_s": "tokens/s",
                    "peak_rss_mb": "MiB", "nmi": "ratio", "log_joint_per_token": "nats"}


class Child:
    """A finished child process: exit code, spawn-to-exit wall time and peak RSS."""

    def __init__(self, argv, log_base, started=None):
        self.stdout_path, self.stderr_path = log_base + ".out", log_base + ".err"
        with open(self.stdout_path, "w") as out, open(self.stderr_path, "w") as err:
            self.start = time.monotonic() if started is None else started
            proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.monotonic() - self.start
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mib = usage.ru_maxrss / 1024  # Linux reports KiB

    def stdout(self):
        with open(self.stdout_path, encoding="utf-8") as f:
            return f.read()

    def stderr_tail(self):
        with open(self.stderr_path, encoding="utf-8") as f:
            return f.read().strip().splitlines()[-1:]


def reference_loop(n=PACE_ITERS):
    """Time a fixed mix of interpreter work and small numpy reads and writes,
    the kind of work the samplers' inner loops do; it never changes, so its
    time measures only how fast the CPU runs at that moment."""
    table = np.zeros(64)
    acc = 0.0
    start = time.perf_counter()
    for i in range(n):
        table[i & 63] += 1.0
        acc += table[(i * 7) & 63]
    return time.perf_counter() - start


class Pace:
    """How fast the CPU runs around each child process.

    On a shared host a vCPU runs at full speed only part of the time: other
    tenants slow it, for stretches of a second to minutes, unevenly between
    cores and unreported as steal time. The benchmark pins itself and its
    children to one CPU and times the reference loop between children, so
    every child has the mean of the loop's time just before and just after it.
    """

    def __init__(self):
        self.last = reference_loop()
        self.samples = [self.last]

    def after_child(self):
        before, self.last = self.last, reference_loop()
        self.samples.append(self.last)
        return (before + self.last) / 2


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one allowed CPU;
    None when the platform does not allow it."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Session:
    """One benchmark run: its plan, its counters and the reference outputs
    that later rounds must reproduce byte for byte."""

    def __init__(self, plan, work):
        self.plan, self.work = plan, work
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = {}   # step index -> digest of artifacts or Eval output
        self.nmi = []
        self.invocations = 0
        self.pace = Pace()

    def _spawn(self, argv, log, started=None):
        child = Child(argv, log, started)
        child.pace = self.pace.after_child()
        return child

    def _fail(self, step, problems):
        self.failed += 1
        self.problems += [f"{' '.join(step.args[:2])}: {p}" for p in problems]

    def _launch(self, step, traced):
        self.invocations += 1
        log = os.path.join(self.work, f"inv{self.invocations}")
        if step.model is not None:  # each run must write its artifacts anew
            for path in checks.artifact_paths(step.model.base):
                if os.path.exists(path):
                    os.remove(path)
        if not traced:
            return self._spawn([sys.executable, "-m", "gibbstopics.cli", *step.args], log), None
        spans = log + ".spans.json"
        start = time.monotonic()
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), repr(start), spans, *step.args]
        return self._spawn(argv, log, started=start), spans

    def run_setup(self):
        """Spawn-to-exit time, and pace, of a fresh process that imports
        gibbstopics and loads the workload's inputs."""
        self.invocations += 1
        child = self._spawn([sys.executable, "-c", *self.plan.setup_args],
                            os.path.join(self.work, f"setup{self.invocations}"))
        if child.code != 0:
            raise RuntimeError(f"set-up run failed: {child.stderr_tail()}")
        return child.wall, child.pace

    def run_round(self, traced=False):
        """Run every step once; return ((wall, pace) per step, peak RSS, tracer records)."""
        walls, rss, records = [], 0.0, []
        for index, step in enumerate(self.plan.steps):
            self.attempted += 1
            child, spans = self._launch(step, traced)
            walls.append((child.wall, child.pace))
            rss = max(rss, child.rss_mib)
            if child.code != 0:
                self._fail(step, [f"exit code {child.code}"] + child.stderr_tail())
                continue
            if traced:
                with open(spans, encoding="utf-8") as f:
                    records.append(dict(json.load(f), wall=child.wall))
            problems = self._check(index, step, child)
            if problems:
                self._fail(step, problems)
        return walls, rss, records

    def _check(self, index, step, child):
        if step.model is None:
            value = checks.parse_eval(child.stdout())
            if value is None:
                return ["Eval output does not parse"]
            output = child.stdout()
        else:
            missing = [p for p in checks.artifact_paths(step.model.base) if not os.path.isfile(p)]
            if missing:
                return [f"missing artifact {p}" for p in missing]
            output = checks.digest(checks.artifact_paths(step.model.base))
        if index not in self.reference:
            # First run of this step: check the contents in full. Later runs
            # (traced ones too) must reproduce these bytes exactly.
            problems = [] if step.model is None else checks.model_problems(step.model)
            if not problems:
                self.reference[index] = output
                if step.model is None:
                    self.nmi.append(value)
            return problems
        if output != self.reference[index]:
            return ["outputs differ from the first run with the same seed"]
        return []

    @property
    def complete(self):
        return len(self.reference) == len(self.plan.steps)


def machine_context():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    context = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
               "numpy": np.__version__, "src_tree": git_tree_hash(SRC).hex()}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        context["commit"] = head.stdout.strip() or "unknown"
    return context


def git_tree_hash(path) -> bytes:
    """The id git gives the tree at path (`git rev-parse <commit>:src` for a
    clean checkout), computed from the files, so a checkout without .git still
    names the exact source it measured. Byte-compiled files are skipped."""
    entries = []
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if name == "__pycache__" or name.endswith(".pyc"):
            continue
        if os.path.isdir(full):
            entries.append((name + "/", b"40000", name, git_tree_hash(full)))
        else:
            with open(full, "rb") as f:
                data = f.read()
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            entries.append((name, mode, name, blob))
    entries.sort(key=lambda e: e[0].encode())
    body = b"".join(mode + b" " + name.encode() + b"\0" + sha for _, mode, name, sha in entries)
    return hashlib.sha1(b"tree %d\0" % len(body) + body).digest()


def check_import(work):
    """Confirm the children import gibbstopics from this checkout's src/; the
    run also fills the bytecode cache, which every user's later runs reuse."""
    probe = Child([sys.executable, "-c", "import gibbstopics; print(gibbstopics.__file__)"],
                  os.path.join(work, "probe"))
    where = probe.stdout().strip()
    if probe.code != 0 or not where.startswith(SRC + os.sep):
        raise RuntimeError(f"children do not import gibbstopics from {SRC}: {where!r}")


def fmt_stats(stats):
    return "; ".join(name + ": " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                            for k, v in corpus.items())
                     for name, corpus in stats.items())


def fmt_samples(values):
    tail = metrics.tail_percentile(values)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f}" if tail
                 else "no tail percentile has 10 samples beyond it")
    return (f"min {min(values):.4f} p10 {metrics.percentile(values, 10):.4f} "
            f"p25 {metrics.percentile(values, 25):.4f} median {statistics.median(values):.4f} "
            f"{tail_text}")


def fmt_paced(name, samples):
    walls = [wall for wall, _ in samples]
    paced = [wall * PACE_REFERENCE_S / pace for wall, pace in samples]
    return (f"# {name} (s): {len(samples)} samples; raw {fmt_samples(walls)}; "
            f"each paced {fmt_samples(paced)}")


def end_to_end(session, step_samples, rss, setups):
    """wall_s sums the paced time of each step of a round; setup_s is the
    paced time of the set-up runs."""
    plan = session.plan
    print(f"# pace (s): {len(session.pace.samples)} reference loops, "
          f"{fmt_samples(session.pace.samples)}; reference {PACE_REFERENCE_S}")
    for step, samples in zip(plan.steps, step_samples):
        print(fmt_paced(f"wall of {' '.join(step.args[:2])}", samples))
    print(fmt_paced("set-up", setups))
    wall = sum(metrics.paced_time(samples, PACE_REFERENCE_S) for samples in step_samples)
    values = {"wall_s": wall, "setup_s": metrics.paced_time(setups, PACE_REFERENCE_S),
              "sampled_tokens_per_s": plan.sampled_tokens / wall, "peak_rss_mb": rss,
              "nmi": statistics.mean(session.nmi) if session.complete else None,
              "log_joint_per_token": plan.log_joint() if session.complete else None}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced_rounds, untraced_walls):
    """Metrics of the traced round with the median traced wall time: one
    round, so its parts still add up to its wall time."""
    rounds = sorted((metrics.layer_metrics(records) for records in traced_rounds),
                    key=lambda m: m["trace.wall_s"])
    values = rounds[(len(rounds) - 1) // 2]
    untraced = statistics.median(untraced_walls)
    values["trace_overhead_frac"] = (values["trace.wall_s"] - untraced) / untraced
    print(f"# traced rounds: {len(rounds)}; reporting the median one, whose cli.import_s, "
          f"cli.other_s and layer self times add up to trace.wall_s")
    return {name: {"value": values[name], "unit": unit} for name, unit in metrics.LAYER_UNITS.items()}


def run(args):
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        plan = workloads.PLANS[args.workload](work, args.seed)
        context = dict(machine_context(), pinned_cpu=pin_to_one_cpu())
        print(f"# gibbstopics benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("# machine: " + " ".join(f"{k}={v}" for k, v in context.items()))
        print("# corpus: " + fmt_stats(plan.stats))
        session = Session(plan, work)
        check_import(work)
        # Set-up and rounds alternate, so both sample the machine over the
        # whole run; no round starts that would end past the budget.
        step_walls = [[] for _ in plan.steps]
        walls, setups, rss, traced_rounds = [], [], 0.0, []
        start = time.monotonic()
        while True:
            if not args.trace:
                setups.append(session.run_setup())
            round_walls, round_rss, _ = session.run_round()
            for samples, wall in zip(step_walls, round_walls):
                samples.append(wall)
            walls.append(sum(wall for wall, _ in round_walls))
            rss = max(rss, round_rss)
            if args.trace:
                _, _, records = session.run_round(traced=True)
                if len(records) == len(plan.steps):
                    traced_rounds.append(records)
            elapsed = time.monotonic() - start
            if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_REPS:
            setups.append(session.run_setup())
        for problem in session.problems[:20]:
            print(f"# FAILED {problem}", file=sys.stderr)
        correct = session.failed == 0 and session.complete and (not args.trace or traced_rounds)
        if args.trace and traced_rounds:
            result = per_layer(traced_rounds, walls)
        elif not args.trace:
            result = end_to_end(session, step_walls, rss, setups)
        else:
            result = {}
        print(f"# fail_frac: {session.failed / session.attempted:.4g} ratio "
              f"({session.failed} of {session.attempted} CLI invocations)")
        for name, m in result.items():
            print(f"{name:32s} {m['value']!s:>24} {m['unit']}")
        return {"correct": bool(correct), "attempted": session.attempted,
                "failed": session.failed, "metrics": result}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gibbstopics", "cli.py")):
        print(f"error: no program to measure: {SRC}/gibbstopics is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
