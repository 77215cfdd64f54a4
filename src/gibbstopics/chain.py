"""The one Gibbs chain runner, shared by training and inference: validation,
seeding, init, the frozen training counts, the sampler's chain and the save
schedule. train_lda and train_dmm start it to train, inference.infer to fold in."""

from __future__ import annotations

import os

from gibbstopics import persistence
from gibbstopics.core import (CountState, Hyperparams, ToolError, estimate_phi, make_rng,
                              one_utf8_line)
from gibbstopics.dmm import dmm_chain, init_dmm
from gibbstopics.lda import init_lda, lda_chain


def run_chain(corpus, hp: Hyperparams, frozen=None) -> CountState:
    """Run a chain of kind hp.model on corpus: seeded from hp.seed (a drawn seed
    is stored in hp, for .paras), hp.niters sweeps, saving every hp.sstep
    iterations (when sstep > 0) and at the end. frozen, a PretrainedModel, is
    required when folding in (LDAinf, DMMinf), else refused; its counts stay
    fixed. Bad frozen counts, corpus paths and priors are refused before any write."""
    hp.validate()
    if (frozen is None) != (hp.model in ("LDA", "DMM")):
        need = "needs" if frozen is None else "takes no"
        raise ToolError(f"model {hp.model} {need} trained model counts")
    if frozen is not None:  # before init; added below, a wrong shape would broadcast silently
        nkw, shape = frozen.nkw, (hp.ntopics, len(corpus.vocab))
        if (nkw.dtype.kind, nkw.shape) != ("i", shape) or nkw.min(initial=0) < 0:
            raise ToolError(f"trained counts of {frozen.paras_path} are not a nonnegative integer "
                            f"{shape[0]} x {shape[1]} table")
    for path in (corpus.source_path, os.path.abspath(corpus.source_path)):
        if not one_utf8_line(path):
            raise ToolError(f"corpus path {path!r} holds a line break or is not UTF-8, "
                            "which .paras cannot store")
    rng, hp.seed = make_rng(hp.seed)
    init, chain = (init_lda, lda_chain) if hp.model in ("LDA", "LDAinf") else (init_dmm, dmm_chain)
    state = init(corpus, hp, rng)
    if frozen is not None:
        # Adding the frozen counts makes the training sweeps reusable verbatim:
        # the topic-word factor sees training + new counts, while the document
        # counts (LDA's, from z, and DMM's mk) cover only the new documents.
        state.nkw += frozen.nkw
        state.nk += frozen.nkw.sum(axis=1)
    sweep, theta = chain(corpus, state, hp, rng)
    base = persistence.output_base(corpus.source_path, hp.name)

    def save(iteration=None):
        persistence.save_outputs(base, theta(), estimate_phi(state, hp), corpus, state.z, hp,
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
