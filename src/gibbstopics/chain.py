"""The Gibbs chain shared by training and inference: niters sweeps from an
initialised state, with the five artifacts written at every save point."""

from __future__ import annotations

import os

from gibbstopics import persistence
from gibbstopics.core import CountState, Hyperparams, ToolError, estimate_phi
from gibbstopics.corpus import split_docs


def run_chain(corpus, state: CountState, hp: Hyperparams, sweep, estimate_theta,
              quiet: bool = False) -> CountState:
    """Call sweep() hp.niters times, saving every hp.sstep iterations (when
    sstep > 0) and always at the end; estimate_theta() gives the current
    document-topic matrix."""
    # .paras stores the corpus path, as given and absolute, one line each.
    for path in (corpus.source_path, os.path.abspath(corpus.source_path)):
        if path.splitlines() != [path]:
            raise ToolError(f"corpus path {path!r} holds a line break, which .paras cannot store")
    base = persistence.output_base(corpus.source_path, hp.name)

    def save(iteration=None):
        # .topicAssignments has one line per document: LDA's flat z is split.
        z = state.z if hp.model in ("DMM", "DMMinf") else split_docs(state.z, corpus.offsets)
        persistence.save_outputs(base, estimate_theta(), estimate_phi(state, hp), corpus, z, hp,
                                 iteration=iteration)

    for it in range(1, hp.niters + 1):
        sweep()
        if hp.sstep > 0 and it % hp.sstep == 0 and it < hp.niters:
            save(it)
            if not quiet:
                print(f"{hp.model} iteration {it}/{hp.niters}: saved {base}.* ({it})")
    save()
    if not quiet:
        print(f"{hp.model} done: {hp.niters} iterations, outputs at {base}.*")
    return state
