"""Topic inference on an unseen corpus by folding-in: new-document assignments
are Gibbs-sampled against the trained model's topic-word counts, which stay
frozen. Out-of-vocabulary tokens are dropped so phi keeps the trained
dimensions."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from gibbstopics import persistence
from gibbstopics.chain import run_chain
from gibbstopics.core import (
    CountState,
    Hyperparams,
    ToolError,
    _topic_word_counts,
    estimate_theta_lda,
)
from gibbstopics.corpus import Corpus, Vocabulary, load_corpus
from gibbstopics.dmm import dmm_chain, init_dmm
from gibbstopics.lda import init_lda, lda_sweep


@dataclass
class PretrainedModel:
    hp: Hyperparams       # hyperparameters of the training run (model is LDA or DMM)
    vocab: Vocabulary     # training vocabulary
    nkw: np.ndarray       # frozen K x V topic-word counts
    nk: np.ndarray        # frozen length-K topic totals
    paras_path: str       # the .paras file the model was loaded from


def load_pretrained(paras_path) -> PretrainedModel:
    """Rebuild frozen topic-word counts by replaying the saved assignments of a
    training run against its corpus."""
    paras_path = str(paras_path)
    rec = persistence.read_paras(paras_path)
    if rec.hp.model not in ("LDA", "DMM"):
        raise ToolError(f"paras file {paras_path} is from model {rec.hp.model}, expected LDA or DMM")
    hp = rec.hp.validate()

    # Outputs land in the corpus's folder, so the corpus sits next to the .paras.
    paras_dir = os.path.dirname(os.path.abspath(paras_path))
    candidates = (rec.corpus_abs, os.path.join(paras_dir, os.path.basename(rec.corpus_abs)))
    corpus_path = next((c for c in candidates if os.path.isfile(c)), None)
    if corpus_path is None:
        raise ToolError(f"training corpus {rec.corpus} referenced by {paras_path} not found")
    corpus = load_corpus(corpus_path)

    assign_path = os.path.join(paras_dir, hp.name + ".topicAssignments")
    z, offsets = persistence.read_assignments(assign_path)
    if offsets.size != corpus.offsets.size:
        raise ToolError(f"assignment count {offsets.size - 1} != document count {corpus.n_docs} "
                        f"in {assign_path}")
    # LDA has one topic per token, DMM one per document.
    expected = corpus.offsets if hp.model == "LDA" else np.arange(corpus.n_docs + 1)
    if not np.array_equal(offsets, expected):
        raise ToolError(f"assignment length mismatch at document "
                        f"{np.argmax(offsets != expected)} in {assign_path}")
    bad = z[(z < 0) | (z >= hp.ntopics)]
    if bad.size:
        raise ToolError(f"topic id {bad[0]} out of range in {assign_path}")
    nkw = _topic_word_counts(z if hp.model == "LDA" else z.repeat(np.diff(corpus.offsets)),
                             corpus, hp.ntopics)
    return PretrainedModel(hp=hp, vocab=corpus.vocab, nkw=nkw, nk=nkw.sum(axis=1),
                           paras_path=paras_path)


def fold_corpus(model: PretrainedModel, new_corpus_path) -> Corpus:
    """Map the unseen corpus through the training vocabulary, dropping OOV
    tokens (documents may become empty)."""
    raw = load_corpus(new_corpus_path)
    # training id of each unseen-corpus word id, -1 when out of vocabulary
    to_train = np.array([model.vocab.index.get(w, -1) for w in raw.vocab.words], dtype=np.int64)
    words = to_train[raw.words]
    kept = words >= 0
    # document d starts after the kept tokens of documents 0..d-1
    offsets = np.concatenate(([0], kept.cumsum()))[raw.offsets]
    folded = Corpus(words=words[kept], offsets=offsets, vocab=model.vocab,
                    source_path=raw.source_path)
    if folded.n_tokens == 0:
        print(f"warning: every token of {new_corpus_path} is out of vocabulary", file=sys.stderr)
    return folded


def infer(model: PretrainedModel, new_corpus_path, niters: int, twords: int,
          name: str, sstep: int, rng: np.random.Generator, seed: int,
          quiet: bool = False) -> CountState:
    """Sample topic assignments for the unseen corpus with the training counts
    frozen, writing the usual five artifacts next to the unseen corpus. A name
    whose outputs would replace the model's own files is refused up front."""
    kind = "LDAinf" if model.hp.model == "LDA" else "DMMinf"
    hp = replace(model.hp, model=kind, niters=niters, twords=twords, name=name,
                 sstep=sstep, seed=seed).validate()
    trained = persistence.output_base(model.paras_path, model.hp.name)
    if os.path.realpath(persistence.output_base(new_corpus_path, name)) == os.path.realpath(trained):
        raise ToolError(f"-name {name} would overwrite the model of {model.paras_path} "
                        f"({trained}.*); choose another -name")
    folded = fold_corpus(model, new_corpus_path)
    state = (init_lda if kind == "LDAinf" else init_dmm)(folded, hp, rng)
    # Adding the frozen counts makes the training sweeps reusable verbatim:
    # the topic-word factor sees training + new counts, while ndk/mk cover
    # only the new documents.
    state.nkw += model.nkw
    state.nk += model.nk
    if kind == "LDAinf":
        sweep = partial(lda_sweep, folded, state, hp, rng)
        theta = partial(estimate_theta_lda, state, hp)
    else:
        sweep, theta = dmm_chain(folded, state, hp, rng)
    return run_chain(folded, state, hp, sweep, theta, quiet=quiet)
