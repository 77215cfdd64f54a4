"""Topic inference on an unseen corpus by folding-in: new-document assignments
are Gibbs-sampled against the trained model's topic-word counts, which stay
frozen. Out-of-vocabulary tokens are dropped so phi keeps the trained
dimensions. This module loads the trained model and folds the corpus;
chain.run_chain runs the LDAinf or DMMinf chain."""

from __future__ import annotations

import os
import re
import sys

import numpy as np

from gibbstopics import persistence
from gibbstopics.chain import run_chain
from gibbstopics.core import ArrayRecord, CountState, Hyperparams, ToolError, recount_dmm, recount_lda
from gibbstopics.persistence import Corpus, load_corpus


class PretrainedModel(ArrayRecord):
    hp: Hyperparams       # hyperparameters of the training run (model is LDA or DMM)
    vocab: tuple          # the training corpus's distinct words, by word id
    nkw: np.ndarray       # frozen K x V topic-word counts; its row sums are the topic totals
    paras_path: str       # the .paras file the model was loaded from


def load_pretrained(paras_path) -> PretrainedModel:
    """Rebuild frozen topic-word counts by replaying the saved assignments of a
    training run against its corpus: <name>.topicAssignments for <name>.paras,
    and for a save point's <name>.paras.<it>, <name>.topicAssignments.<it>."""
    paras_path = str(paras_path)
    rec = persistence.read_paras(paras_path)
    hp = rec.hp
    if hp.model not in ("LDA", "DMM"):
        raise ToolError(f"paras file {paras_path} is from model {hp.model}, expected LDA or DMM")

    # Outputs land in the corpus's folder, so the corpus sits next to the .paras.
    beside = persistence.output_base(paras_path, os.path.basename(rec.corpus_abs))
    corpus_path = next((c for c in (rec.corpus_abs, beside) if os.path.isfile(c)), None)
    if corpus_path is None:
        raise ToolError(f"training corpus {rec.corpus} referenced by {paras_path} not found")
    corpus = load_corpus(corpus_path)

    saved = re.fullmatch(re.escape(hp.name) + r"\.paras(\.[0-9]+)", os.path.basename(paras_path))
    assign_path = (persistence.output_base(paras_path, hp.name) + ".topicAssignments"
                   + (saved[1] if saved else ""))
    z, offsets = persistence.read_assignments(assign_path)
    if offsets.size != corpus.offsets.size:
        raise ToolError(f"assignment count {offsets.size - 1} != document count {corpus.n_docs} "
                        f"in {assign_path}")
    # LDA has one topic per token, DMM one per document.
    expected = corpus.offsets if hp.model == "LDA" else np.arange(corpus.n_docs + 1)
    if not np.array_equal(offsets, expected):
        raise ToolError(f"assignment length mismatch at document "
                        f"{np.argmax(offsets != expected)} in {assign_path}")
    bad = np.flatnonzero((z < 0) | (z >= hp.ntopics))
    if bad.size:
        raise ToolError(f"topic id {z[bad[0]]} out of range [0, {hp.ntopics}) at line "
                        f"{np.searchsorted(offsets, bad[0], 'right')} in {assign_path}")
    nkw = (recount_lda if hp.model == "LDA" else recount_dmm)(corpus, z, hp.ntopics).nkw
    return PretrainedModel(hp=hp, vocab=corpus.vocab, nkw=nkw, paras_path=paras_path)


def fold_corpus(model: PretrainedModel, new_corpus_path) -> Corpus:
    """Map the unseen corpus through the training vocabulary, dropping OOV
    tokens (documents may become empty)."""
    raw = load_corpus(new_corpus_path)
    # training id of each unseen-corpus word id, -1 when out of vocabulary
    index = dict(zip(model.vocab, range(len(model.vocab))))
    to_train = np.array([index.get(w, -1) for w in raw.vocab], dtype=np.int64)
    words = to_train[raw.words]
    kept = words >= 0
    # document d starts after the kept tokens of documents 0..d-1
    offsets = np.concatenate(([0], kept.cumsum()))[raw.offsets]
    folded = Corpus(words=words[kept], offsets=offsets, vocab=model.vocab,
                    source_path=raw.source_path)
    if folded.n_tokens == 0:
        print(f"warning: every token of {new_corpus_path} is out of vocabulary", file=sys.stderr)
    return folded


def infer(model: PretrainedModel, new_corpus_path, hp: Hyperparams) -> CountState:
    """Sample topic assignments for the unseen corpus with the training counts
    frozen, writing the usual five artifacts next to the unseen corpus.
    hp.model must be the model's kind plus "inf"; K, alpha and beta are set
    from the model. A name whose outputs would replace the model's own files,
    and counts that are not a nonnegative integer K x V table, are refused up front."""
    if hp.model != model.hp.model + "inf":
        raise ToolError(f"paras file {model.paras_path} is from a {model.hp.model} model, "
                        f"but -model {hp.model} was requested")
    hp.ntopics, hp.alpha, hp.beta = model.hp.ntopics, model.hp.alpha, model.hp.beta
    hp.validate()  # before hp.name makes a path
    trained = persistence.output_base(model.paras_path, model.hp.name)
    if os.path.realpath(persistence.output_base(new_corpus_path, hp.name)) == os.path.realpath(trained):
        raise ToolError(f"-name {hp.name} would overwrite the model of {model.paras_path} "
                        f"({trained}.*); choose another -name")
    nkw, shape = model.nkw, (hp.ntopics, len(model.vocab))  # a wrong shape would broadcast
    if (nkw.dtype.kind, nkw.shape) != ("i", shape) or nkw.min(initial=0) < 0:
        raise ToolError(f"trained counts of {model.paras_path} are not a nonnegative integer "
                        f"{shape[0]} x {shape[1]} table")
    return run_chain(fold_corpus(model, new_corpus_path), hp, nkw)
