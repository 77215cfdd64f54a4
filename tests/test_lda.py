import ast
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gibbstopics import native, train_dmm, train_lda
from gibbstopics.core import CountState, Hyperparams, ToolError, make_rng, recount_dmm, recount_lda
from gibbstopics.dmm import dmm_chain, init_dmm
from gibbstopics.lda import init_lda, lda_sweep
from gibbstopics.persistence import load_corpus

from conftest import make_corpus
from oracles import check_state, draw, lda_conditional


def loop_sweep(corpus, state, hp, rng):
    """Reference sweep: lda_sweep as a per-token NumPy loop over
    lda_conditional and draw, each document's topic counts recounted from z."""
    nkw, nk, z = state.nkw, state.nk, state.z
    n_vocab = nkw.shape[1]
    uniforms = rng.random(corpus.n_tokens).tolist()
    words, offsets = corpus.words.tolist(), corpus.offsets.tolist()
    for d in range(corpus.n_docs):
        ndk_d = np.bincount(z[offsets[d]:offsets[d + 1]], minlength=hp.ntopics)
        for t in range(offsets[d], offsets[d + 1]):
            w, k = words[t], z[t]
            ndk_d[k] -= 1
            nkw[k, w] -= 1
            nk[k] -= 1
            k = draw(lda_conditional(state, hp, ndk_d, w, n_vocab), uniforms[t])
            z[t] = k
            ndk_d[k] += 1
            nkw[k, w] += 1
            nk[k] += 1
    return state


def test_init_single_topic():
    corpus = make_corpus([[0, 1], [1, 2, 0]], 3)
    rng, _ = make_rng(1)
    state = init_lda(corpus, Hyperparams(ntopics=1), rng)
    assert np.all(state.z == 0)
    assert state.nk[0] == 5


def test_init_conservation():
    corpus = make_corpus([[0, 1], [1]], 2)
    rng, _ = make_rng(2)
    state = init_lda(corpus, Hyperparams(ntopics=2), rng)
    assert state.nk.sum() == 3
    assert state.nkw.sum() == 3
    check_state(state, corpus, "LDA")


def test_init_deterministic():
    corpus = make_corpus([[0, 1, 2, 0], [2, 1]], 3)
    a = init_lda(corpus, Hyperparams(ntopics=4), make_rng(77)[0])
    b = init_lda(corpus, Hyperparams(ntopics=4), make_rng(77)[0])
    assert np.array_equal(a.z, b.z)


def test_conditional_symmetry_with_zero_counts():
    hp = Hyperparams(ntopics=3, alpha=0.7, beta=0.3)
    state = CountState(
        nkw=np.zeros((3, 4), dtype=np.int64),
        nk=np.zeros(3, dtype=np.int64),
        z=np.zeros(0, dtype=np.int64),
    )
    w = lda_conditional(state, hp, np.bincount(state.z, minlength=3), 2, 4)
    assert np.allclose(w / w.sum(), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_conditional_worked_example():
    # K=2, V=5, alpha=0.1, beta=0.01; decremented counts:
    # ndk[d]=[2,0] (the document's z), nkw[:,w]=[1,1], nk=[3,1]
    hp = Hyperparams(ntopics=2, alpha=0.1, beta=0.01)
    nkw = np.zeros((2, 5), dtype=np.int64)
    nkw[0, 0] = 1
    nkw[1, 0] = 1
    nkw[0, 1] = 2  # pads nk[0] to 3
    state = CountState(
        nkw=nkw,
        nk=np.array([3, 1], dtype=np.int64),
        z=np.array([0, 0], dtype=np.int64),
    )
    w = lda_conditional(state, hp, np.bincount(state.z, minlength=2), 0, 5)
    assert np.allclose(w, [0.69540984, 0.09619048], atol=1e-4)
    assert np.allclose(w / w.sum(), [0.8785, 0.1215], atol=1e-4)


def test_sweep_single_topic_is_identity():
    corpus = make_corpus([[0, 1, 0], [2]], 3)
    hp = Hyperparams(ntopics=1)
    rng, _ = make_rng(3)
    state = init_lda(corpus, hp, rng)
    before = state.z.copy()
    lda_sweep(corpus, state, hp, rng)
    assert np.array_equal(before, state.z)


def test_sweep_preserves_invariants():
    corpus = make_corpus([[0, 1, 2, 3], [3, 2, 1], [0, 0]], 4)
    hp = Hyperparams(ntopics=3)
    rng, _ = make_rng(4)
    state = init_lda(corpus, hp, rng)
    for _ in range(10):
        lda_sweep(corpus, state, hp, rng)
        check_state(state, corpus, "LDA")
    assert state.nk.sum() == corpus.n_tokens


def test_sweep_draws_one_uniform_per_token():
    corpus = make_corpus([[0, 1, 2], [], [2, 2], [1]], 3)
    hp = Hyperparams(ntopics=3)
    rng, _ = make_rng(8)
    state = init_lda(corpus, hp, rng)
    ref = np.random.Generator(np.random.PCG64())
    ref.bit_generator.state = rng.bit_generator.state
    lda_sweep(corpus, state, hp, rng)
    ref.random(corpus.n_tokens)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_train_writes_one_output_set(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc a\n")
    from gibbstopics.persistence import load_corpus
    corpus = load_corpus(path)
    hp = Hyperparams(model="LDA", ntopics=2, niters=1, name="run", seed=5)
    train_lda(corpus, hp)
    for suffix in ("theta", "phi", "topWords", "topicAssignments", "paras"):
        assert (tmp_path / f"run.{suffix}").is_file()
    assert len(list(tmp_path.glob("run.*"))) == 5


def test_train_save_schedule(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc a\n")
    from gibbstopics.persistence import load_corpus
    corpus = load_corpus(path)
    hp = Hyperparams(model="LDA", ntopics=2, niters=4, sstep=2, name="run", seed=5)
    train_lda(corpus, hp)
    # saves at iteration 2 plus final; the iteration-4 save IS the final one
    assert (tmp_path / "run.theta.2").is_file()
    assert (tmp_path / "run.theta").is_file()
    assert not (tmp_path / "run.theta.4").is_file()


def test_train_deterministic_given_seed(tmp_path):
    from gibbstopics.persistence import load_corpus
    path = tmp_path / "c.txt"
    path.write_text("a b a\nc b\nb c a\n")
    corpus = load_corpus(path)
    contents = []
    for _ in range(2):
        hp = Hyperparams(model="LDA", ntopics=2, niters=15, name="run", seed=11)
        train_lda(corpus, hp)
        contents.append((tmp_path / "run.theta").read_bytes())
    assert contents[0] == contents[1]


# From K = 1, where nothing is drawn, to K = 300: the cumulative sums are
# built the same way at every K, so each one must match the oracle's.
@pytest.mark.parametrize("ntopics", [1, 7, 8, 9, 16, 127, 128, 129, 300])
@pytest.mark.parametrize("alpha,beta", [(0.1, 0.01), (2.5, 1.5)])
def test_sweep_bit_identical_to_loop_form(ntopics, alpha, beta):
    gen = np.random.Generator(np.random.PCG64(ntopics))
    n_vocab = 40
    docs = [gen.integers(0, n_vocab, size=gen.integers(0, 12)) for _ in range(30)]
    docs[3] = docs[17] = []
    corpus = make_corpus(docs, n_vocab)
    hp = Hyperparams(ntopics=ntopics, alpha=alpha, beta=beta)
    states, rngs = [], []
    for sweep in (lda_sweep, loop_sweep):
        rng, _ = make_rng(ntopics + 1)
        state = init_lda(corpus, hp, rng)
        for _ in range(3):
            sweep(corpus, state, hp, rng)
        states.append(state)
        rngs.append(rng)
    fast, ref = states
    for table in ("z", "nkw", "nk"):
        assert np.array_equal(getattr(fast, table), getattr(ref, table))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


class _FixedUniform:
    """Stands in for the generator: every uniform of the sweep is u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def _boundary_uniform(weights):
    """(u, k): a uniform with u * cum[-1] exactly on the cumulative boundary
    cum[k-1] of the weights, so the draw is k, where u times NumPy's pairwise
    total weights.sum() draws another topic; None if there is none."""
    cum = weights.cumsum()
    for j in range(weights.size - 1):
        for u in (cum[j] / cum[-1], np.nextafter(cum[j] / cum[-1], 0)):
            if u * cum[-1] == cum[j] and cum.searchsorted(u * weights.sum(), "right") != j + 1:
                return float(u), j + 1
    return None


def test_sweep_draw_at_cumulative_boundary():
    # Random draws almost never land on a boundary, so aim one at it: the
    # kernel must total by the last cumulative sum and draw above an exact
    # tie, as the oracle's draw does.
    gen = np.random.Generator(np.random.PCG64(0))
    ntopics, hp = 300, Hyperparams(ntopics=300, alpha=0.1, beta=0.01)
    corpus = make_corpus([[0]], 2)
    z = np.zeros(1, dtype=np.int64)  # the document's one token, on topic 0
    for _ in range(100):
        nkw = gen.integers(1, 50, size=(ntopics, 2))
        removed = CountState(nkw=nkw.copy(), nk=nkw.sum(axis=1), z=z)
        ndk_d = np.bincount(z, minlength=ntopics)
        ndk_d[0] -= 1
        removed.nkw[0, 0] -= 1
        removed.nk[0] -= 1
        weights = lda_conditional(removed, hp, ndk_d, 0, 2)
        found = _boundary_uniform(weights)
        if found:
            break
    u, expected = found
    assert draw(weights, u) == expected
    state = CountState(nkw=nkw, nk=nkw.sum(axis=1), z=z)
    lda_sweep(corpus, state, hp, _FixedUniform(u))
    assert state.z[0] == expected


@pytest.mark.parametrize("case", ["topic K", "word V", "float64 nkw", "offsets past words",
                                  "empty offsets", "short z", "strided z", "read-only nkw",
                                  "read-only nk"])
def test_sweep_rejects_out_of_bounds_input(case):
    # The kernel reads and writes through raw pointers, so each of these must
    # be refused before the first draw.
    docs = [[0, 1, 2], [2, 1]]
    hp = Hyperparams(ntopics=3)
    rng, _ = make_rng(9)
    state = init_lda(make_corpus(docs, 3), hp, rng)
    if case == "topic K":
        state.z[0] = 3
    elif case == "word V":
        docs[1][0] = 3
    elif case == "float64 nkw":
        state.nkw = state.nkw.astype(np.float64)
    elif case == "short z":
        state.z = state.z[:-1].copy()
    elif case == "strided z":
        state.z = state.z.repeat(2)[::2]  # same topics, every other int64
    elif case.startswith("read-only"):
        getattr(state, case.split()[1]).flags.writeable = False
    corpus = make_corpus(docs, 3)
    if case == "offsets past words":
        corpus = replace(corpus, offsets=corpus.offsets + [0, 0, 1])
    elif case == "empty offsets":
        corpus = replace(corpus, offsets=np.empty(0, np.int64))
    before = [t.copy() for t in (state.z, state.nkw, state.nk)]
    rng_state = rng.bit_generator.state
    # empty offsets (n_docs = -1) must be refused as offsets
    with pytest.raises(ToolError, match="lda_sweep: document offsets" if case == "empty offsets"
                       else "lda_sweep"):
        lda_sweep(corpus, state, hp, rng)
    after = (state.z, state.nkw, state.nk)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert rng.bit_generator.state == rng_state


@pytest.mark.parametrize("value, error", [
    ([0, 1], "offsets is not a C-contiguous int64 array of shape \\(2,\\)"),
    (np.empty(0, np.int64), "offsets do not rise from 0 to 1"),
    (np.array([0, 2, 1]), "offsets do not rise from 0 to 1"),
    (np.array([1, 1]), "offsets do not rise from 0 to 1"),
])
def test_native_checks_refuse_bad_offsets(value, error):
    # Not a TypeError or an IndexError: every refusal is a ToolError naming the caller.
    with pytest.raises(ToolError, match=f"^who: document {error}"):
        native.check_corpus("who", value, np.zeros(1, np.int64), 1)


def test_only_native_mentions_ctypes():
    # native.py is the one checked boundary to the compiled library: every
    # other module reaches it through native.check and native.call.
    package = Path(native.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "native.py" and "ctypes" in path.read_text()]
    assert offenders == []


def test_samplers_import_no_chain_runner():
    # lda.py and dmm.py are pure samplers: chain.run_chain drives them, and
    # neither reaches back into the chain, inference or the CLI.
    package = Path(native.__file__).parent
    banned = {f"gibbstopics.{m}" for m in ("chain", "inference", "cli")}
    for name in ("lda.py", "dmm.py"):
        imported = set()
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
        assert imported & banned == set(), name


def test_sweep_detects_corrupt_counts():
    corpus = make_corpus([[0, 1], [1]], 2)
    hp = Hyperparams(ntopics=2)
    rng, _ = make_rng(6)
    state = init_lda(corpus, hp, rng)
    state.nkw[:, 0] -= 5  # weights (n_kw + beta) go negative
    with pytest.raises(ToolError, match="nonpositive weight"):
        lda_sweep(corpus, state, hp, rng)


@pytest.mark.parametrize("model", ["lda", "dmm"])
def test_refused_sweep_restores_its_unit(model):
    # Word 1's counts go negative, so each kernel resamples the units before
    # it, then refuses the first unit holding word 1 (token 3, document 2) and
    # moves that unit back under its topic: every table is then the recount
    # of z plus exactly the planted change.
    corpus = make_corpus([[0, 0], [0], [1, 1]], 2)
    hp = Hyperparams(model=model.upper(), ntopics=2, beta=0.1)
    rng, _ = make_rng(6)
    init, recount = (init_lda, recount_lda) if model == "lda" else (init_dmm, recount_dmm)
    state = init(corpus, hp, rng)
    sweep = (partial(lda_sweep, corpus, state, hp, rng) if model == "lda"
             else dmm_chain(corpus, state, hp, rng)[0])
    state.nkw[:, 1] -= 5
    with pytest.raises(ToolError, match="at (token 3|document 2), count bookkeeping corrupt"):
        sweep()
    expected = recount(corpus, state.z, hp.ntopics)
    expected.nkw[:, 1] -= 5
    for name in ("mk", "nkw", "nk"):
        a, b = getattr(state, name), getattr(expected, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


def _train(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc a\n")
    hp = Hyperparams(model="LDA", ntopics=2, niters=1, name="run", seed=5)
    train_lda(load_corpus(path), hp)


def test_build_without_compiler_is_tool_error(empty_kernel_cache, monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(ToolError, match="cc -O2 -fPIC -shared -ffp-contract=off.*No such file"):
        _train(tmp_path)
    assert not list(empty_kernel_cache.glob("*.tmp"))
    assert not (tmp_path / "run.theta").exists()


def test_failed_build_names_first_error_line(empty_kernel_cache, monkeypatch, tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\necho 'cc: fatal: out of cheese' >&2\necho more >&2\nexit 1\n")
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    with pytest.raises(ToolError) as info:
        _train(tmp_path)
    assert str(info.value).endswith("`cc -O2 -fPIC -shared -ffp-contract=off`: cc: fatal: out of cheese")
    assert list(empty_kernel_cache.iterdir()) == []


def test_unreadable_kernel_source_is_tool_error(empty_kernel_cache, monkeypatch, tmp_path):
    missing = str(tmp_path / "gone" / "sweeps.c")
    monkeypatch.setattr(native, "_SOURCE", missing)
    with pytest.raises(ToolError, match=f"^cannot read the kernel source {re.escape(missing)}: "):
        _train(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]  # no artifact, no cache


def test_unloadable_library_is_tool_error(empty_kernel_cache, monkeypatch, tmp_path):
    def build(lib_path):  # a cached file that is not a shared library
        os.makedirs(os.path.dirname(lib_path))
        Path(lib_path).write_text("not a library\n")

    monkeypatch.setattr(native, "_build", build)
    with pytest.raises(ToolError) as info:
        _train(tmp_path)
    (lib,) = empty_kernel_cache.iterdir()
    assert str(info.value).startswith(f"cannot load the compiled kernels {lib}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "xdg"]


def test_second_load_reuses_cached_library(empty_kernel_cache, tmp_path):
    native._kernel()
    (lib,) = empty_kernel_cache.glob("sweeps-*.so")
    os.utime(lib, ns=(10**18, 10**18))
    native._kernel.cache_clear()
    _train(tmp_path)
    # DMM runs in the same library: it loads the cached file, builds nothing.
    native._kernel.cache_clear()
    train_dmm(load_corpus(tmp_path / "c.txt"), Hyperparams(model="DMM", ntopics=2, niters=1,
                                                          name="dmm", seed=5))
    assert (tmp_path / "dmm.theta").exists()
    assert list(empty_kernel_cache.iterdir()) == [lib]
    assert lib.stat().st_mtime_ns == 10**18


def test_kernel_source_compiles_without_warnings(tmp_path):
    # Strict C99 too: README promises only a plain cc, so no GNU extension.
    build = ["cc", "-std=c99", "-pedantic-errors", "-O2", "-Wall", "-Wextra", "-Werror",
             "-ffp-contract=off", "-fPIC", "-shared", "-o", str(tmp_path / "sweeps.so"),
             native._SOURCE]
    result = subprocess.run(build, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_relative_xdg_cache_home_is_ignored(empty_kernel_cache, monkeypatch, tmp_path):
    # The XDG Base Directory spec says relative values are to be ignored:
    # one cache under $HOME, not one per working directory.
    monkeypatch.setenv("XDG_CACHE_HOME", "relative-cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    native._kernel()
    assert len(list((tmp_path / "home" / ".cache" / "gibbstopics").glob("sweeps-*.so"))) == 1
    assert not (tmp_path / "relative-cache").exists()


def test_import_builds_nothing(tmp_path):
    # Nor does it load NumPy: the public names are imported on first use.
    code = ("import sys, gibbstopics; "
            "loaded = {'subprocess', 'numpy'} & set(sys.modules); assert not loaded, loaded")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"),
               PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    assert not (tmp_path / "xdg").exists()


def test_corpus_load_without_compiler_is_tool_error(empty_kernel_cache, monkeypatch, tmp_path):
    # The tokenizer is a kernel, so loading a corpus needs the library.
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\n")
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(ToolError, match="cc -O2 -fPIC -shared -ffp-contract=off.*No such file"):
        load_corpus(corpus)
    assert not list(empty_kernel_cache.glob("*.tmp"))
