"""The one Gibbs chain runner, shared by training and inference: validation,
seeding, init, adding the frozen training counts, the sampler's chain and the
save schedule. train_lda and train_dmm start it to train, inference.infer to fold in."""

from __future__ import annotations

import os
import re

from gibbstopics import persistence
from gibbstopics.core import (CountState, Hyperparams, ToolError, estimate_phi, make_rng,
                              one_utf8_line)
from gibbstopics.dmm import dmm_chain, init_dmm
from gibbstopics.lda import init_lda, lda_chain


def run_chain(corpus, hp: Hyperparams, frozen=None) -> CountState:
    """Run a chain of kind hp.model on corpus: seeded from hp.seed (a drawn seed
    is stored in hp, for .paras), hp.niters sweeps, saving every hp.sstep
    iterations (when sstep > 0) and at the end. frozen, the trained K x V counts
    when folding in (LDAinf, DMMinf), is added to the chain's and stays fixed.
    Bad corpus paths and priors, and a name whose outputs would replace the
    corpus, are refused before any write."""
    hp.validate()
    for path in (corpus.source_path, os.path.abspath(corpus.source_path)):
        if not one_utf8_line(path):
            raise ToolError(f"corpus path {path!r} holds a line break or is not UTF-8, "
                            "which .paras cannot store")
    base = persistence.output_base(corpus.source_path, hp.name)
    real = os.path.realpath(corpus.source_path)
    # The corpus as given, or the file its links lead to, is one the run replaces.
    if _writes(hp, os.path.basename(corpus.source_path)) or (
            _writes(hp, os.path.basename(real))
            and os.path.dirname(real) == os.path.realpath(os.path.dirname(base))):
        raise ToolError(f"-name {hp.name} would overwrite the corpus {corpus.source_path}; "
                        "choose another -name")
    rng, hp.seed = make_rng(hp.seed)
    init, chain = (init_lda, lda_chain) if hp.model in ("LDA", "LDAinf") else (init_dmm, dmm_chain)
    state = init(corpus, hp, rng)
    if frozen is not None:
        # Adding the frozen counts makes the training sweeps reusable verbatim:
        # the topic-word factor sees training + new counts, while the document
        # counts (LDA's, from z, and DMM's mk) cover only the new documents.
        state.nkw += frozen
        state.nk += frozen.sum(axis=1)
    sweep, theta = chain(corpus, state, hp, rng)

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


def _writes(hp: Hyperparams, file_name: str) -> bool:
    """Whether a run of hp writes file_name: <name>.<suffix>, or with sstep > 0
    <name>.<suffix>.<it> for it = sstep, 2*sstep, ... below niters."""
    m = re.fullmatch(re.escape(hp.name) + r"\.(?:theta|phi|topWords|topicAssignments|paras)"
                     r"(?:\.([1-9][0-9]*))?", file_name)
    return bool(m) and (m[1] is None or hp.sstep > 0 and int(m[1]) in
                        range(hp.sstep, hp.niters, hp.sstep))


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
