"""The one Gibbs chain runner, shared by training and inference: validation,
seeding, init, the frozen training counts when folding in, niters sweeps, and
the five artifacts written at every save point. train_lda and train_dmm are
its training entry points; inference.infer is its folding-in one."""

from __future__ import annotations

import math
import os
from functools import partial

from gibbstopics import persistence
from gibbstopics.core import (CountState, Hyperparams, ToolError, estimate_phi,
                              estimate_theta_lda, make_rng)
from gibbstopics.dmm import dmm_chain, init_dmm
from gibbstopics.lda import init_lda, lda_sweep


def run_chain(corpus, hp: Hyperparams, frozen=None) -> CountState:
    """Run a chain of kind hp.model on corpus: seeded from hp.seed (a drawn
    seed is stored in hp, so .paras records it), hp.niters sweeps, saving
    every hp.sstep iterations (when sstep > 0) and always at the end. frozen,
    a PretrainedModel, is required when folding in (LDAinf, DMMinf) and
    refused otherwise; its counts stay fixed while the corpus is sampled.
    Before any file is written, it refuses frozen counts that are not a K x V
    table of nonnegative integers, and alpha and beta that would give a
    kernel a weight that is not a finite, positive double."""
    hp.validate()
    if (frozen is None) != (hp.model in ("LDA", "DMM")):
        need = "needs" if frozen is None else "takes no"
        raise ToolError(f"model {hp.model} {need} trained model counts")
    if frozen is not None:  # before init; added below, a wrong shape would broadcast silently
        nkw, shape = frozen.nkw, (hp.ntopics, len(corpus.vocab))
        if (nkw.dtype.kind, nkw.shape) != ("i", shape) or nkw.min(initial=0) < 0:
            raise ToolError(f"trained counts of {frozen.paras_path} are not a nonnegative integer "
                            f"{shape[0]} x {shape[1]} table")
    # .paras stores the corpus path, as given and absolute, one line each.
    for path in (corpus.source_path, os.path.abspath(corpus.source_path)):
        if path.splitlines() != [path]:
            raise ToolError(f"corpus path {path!r} holds a line break, which .paras cannot store")
    rng, hp.seed = make_rng(hp.seed)
    lda = hp.model in ("LDA", "LDAinf")
    state = (init_lda if lda else init_dmm)(corpus, hp, rng)
    if frozen is not None:
        # Adding the frozen counts makes the training sweeps reusable verbatim:
        # the topic-word factor sees training + new counts, while the document
        # counts (LDA's, from z, and DMM's mk) cover only the new documents.
        state.nkw += frozen.nkw
        state.nk += frozen.nkw.sum(axis=1)
    # Both kernels need K*alpha and V*beta finite; LDA also its least weight (no counts
    # against N tokens) and K weights at the largest counts (L, W), each in the kernel's order.
    alpha, beta, vbeta = float(hp.alpha), float(hp.beta), len(corpus.vocab) * float(hp.beta)
    ok = hp.ntopics * alpha < math.inf and vbeta < math.inf
    if ok and lda:
        n, longest = int(state.nk.sum()), int((corpus.offsets[1:] - corpus.offsets[:-1]).max())
        most = int(state.nkw.sum(axis=0).max())
        ok = alpha * beta / (n + vbeta) > 0 and (
            hp.ntopics * ((longest + alpha) * (most + beta) / vbeta) < math.inf)
    if not ok:
        raise ToolError(f"alpha {hp.alpha} and beta {hp.beta} give model {hp.model} a weight "
                        "that is not finite and positive")
    if lda:
        sweep = partial(lda_sweep, corpus, state, hp, rng)
        theta = partial(estimate_theta_lda, corpus, state, hp)
    else:
        sweep, theta = dmm_chain(corpus, state, hp, rng)
    base = persistence.output_base(corpus.source_path, hp.name)

    def save(iteration=None):
        # .topicAssignments has one line per document: LDA's flat z is split.
        z = persistence.split_docs(state.z, corpus.offsets) if lda else state.z
        persistence.save_outputs(base, theta(), estimate_phi(state, hp), corpus, z, hp,
                                 iteration=iteration)

    for it in range(1, hp.niters + 1):
        sweep()
        if hp.sstep > 0 and it % hp.sstep == 0 and it < hp.niters:
            save(it)
            print(f"{hp.model} iteration {it}/{hp.niters}: saved {base}.* ({it})")
    save()
    print(f"{hp.model} done: {hp.niters} iterations, outputs at {base}.*")
    return state


def _train(kind: str, corpus, hp: Hyperparams) -> CountState:
    if hp.model != kind:
        raise ToolError(f"train_{kind.lower()} runs model {kind}, but hp.model is {hp.model!r}")
    return run_chain(corpus, hp)


def train_lda(corpus, hp: Hyperparams) -> CountState:
    """Train LDA: one topic per token, hp.model must be "LDA"."""
    return _train("LDA", corpus, hp)


def train_dmm(corpus, hp: Hyperparams) -> CountState:
    """Train DMM: one topic per document, hp.model must be "DMM"."""
    return _train("DMM", corpus, hp)
