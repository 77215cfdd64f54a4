"""The three benchmark workloads: their generated inputs, the CLI invocations
of one round, and the quality of the outputs they leave behind.

Sizes are fixed per workload; the seed only changes which corpus of that size
is drawn, so every seed costs the same sampling work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import metrics
from checks import read_assignments

ALPHA = 0.1
ITERS = 2  # Gibbs sweeps per sampling invocation, on every workload


@dataclass
class ModelRun:
    """A training or inference invocation and the artifacts it must leave."""
    base: str             # output path without suffix
    kind: str             # "LDA" (per-token assignments) or "DMM" (one per document)
    ntopics: int
    n_vocab: int          # width of .phi: the (training) vocabulary size
    lengths: np.ndarray   # sampled tokens per document, after OOV dropping


@dataclass
class Step:
    """One CLI invocation: arguments after `python -m gibbstopics.cli`."""
    args: list
    model: ModelRun | None = None  # None for Eval


@dataclass
class Plan:
    steps: list
    setup_args: list      # `python -c` code and its arguments: import + input loading
    stats: dict           # corpus name -> gen.corpus_stats
    sampled_tokens: int   # in-vocabulary tokens of sampled documents x iterations
    log_joint: Callable[[], float]  # per-token collapsed log joint of the outputs


def _write_docs(directory, name, docs):
    os.makedirs(directory, exist_ok=True)
    corpus = os.path.join(directory, name + ".txt")
    labels = os.path.join(directory, name + ".LABEL")
    gen.write_corpus(corpus, docs)
    gen.write_labels(labels, docs.labels)
    return corpus, labels


def _eval_step(labels, directory, theta_name):
    return Step(["-model", "Eval", "-label", labels, "-dir", directory, "-prob", theta_name])


def _setup_args(*loads):
    code = "import sys, gibbstopics\n" + "\n".join(
        f"gibbstopics.{fn}(sys.argv[{i + 1}])" for i, (fn, _) in enumerate(loads))
    return [code] + [path for _, path in loads]


def plan_lda_train(work, seed) -> Plan:
    """LDA at K=100 on mixture documents: the per-token sweep dominates."""
    rng = np.random.default_rng(seed)
    phi = gen.make_topics(rng, 20, 5000, 0.05)
    docs = gen.sample_mixture_docs(rng, phi, gen.sample_lengths(rng, 1000, 50, 5), 0.1)
    corpus, labels = _write_docs(work, "corpus", docs)
    k, beta, iters = 100, 0.01, ITERS
    stats = {"corpus": gen.corpus_stats(docs)}
    n_vocab = stats["corpus"]["vocab"]
    run = ModelRun(os.path.join(work, "lda"), "LDA", k, n_vocab, docs.lengths)
    steps = [
        Step(["-model", "LDA", "-corpus", corpus, "-ntopics", str(k), "-alpha", str(ALPHA),
              "-beta", str(beta), "-niters", str(iters), "-name", "lda", "-seed", str(seed)], run),
        _eval_step(labels, work, "lda.theta"),
    ]

    def log_joint():
        z = np.concatenate(read_assignments(run.base + ".topicAssignments", "LDA"))
        return metrics.lda_log_joint(docs.doc_of, docs.words, z, docs.lengths,
                                     k, n_vocab, ALPHA, beta) / docs.words.size

    return Plan(steps, _setup_args(("load_corpus", corpus)), stats,
                docs.words.size * iters, log_joint)


def plan_dmm_short(work, seed) -> Plan:
    """DMM at K=50 on one-topic short documents: per-document overhead, a
    D x K theta to write and read, LDA bypassed."""
    rng = np.random.default_rng(seed)
    phi = gen.make_topics(rng, 20, 3000, 0.05)
    docs = gen.sample_single_topic_docs(rng, phi, gen.sample_lengths(rng, 6000, 8, 3))
    corpus, labels = _write_docs(work, "corpus", docs)
    k, beta, iters = 50, 0.1, ITERS
    stats = {"corpus": gen.corpus_stats(docs)}
    n_vocab = stats["corpus"]["vocab"]
    run = ModelRun(os.path.join(work, "dmm"), "DMM", k, n_vocab, docs.lengths)
    steps = [
        Step(["-model", "DMM", "-corpus", corpus, "-ntopics", str(k), "-alpha", str(ALPHA),
              "-beta", str(beta), "-niters", str(iters), "-name", "dmm", "-seed", str(seed)], run),
        _eval_step(labels, work, "dmm.theta"),
    ]

    def log_joint():
        z = read_assignments(run.base + ".topicAssignments", "DMM")
        return metrics.dmm_log_joint(docs.doc_of, docs.words, z, k, n_vocab,
                                     ALPHA, beta) / docs.words.size

    return Plan(steps, _setup_args(("load_corpus", corpus)), stats,
                docs.words.size * iters, log_joint)


def plan_infer_replay(work, seed) -> Plan:
    """LDAinf and DMMinf against planted pretrained models on a large training
    corpus: replay, folding and artifact IO carry the time."""
    from gibbstopics import Hyperparams, persistence

    rng = np.random.default_rng(seed)
    n_words, k, beta, iters = 25000, 20, 0.01, ITERS
    phi = gen.make_topics(rng, k, n_words, 0.05)
    train = gen.sample_mixture_docs(rng, phi, gen.sample_lengths(rng, 10000, 40, 5), 0.1)
    unseen = gen.inject_oov(
        rng, gen.sample_mixture_docs(rng, phi, gen.sample_lengths(rng, 500, 40, 5), 0.1),
        first_oov_id=n_words, n_oov_words=2000, token_share=0.1, n_full_docs=4)

    # The pretrained models are the planted state, written through the
    # program's own writers: their cost and content do not depend on the sampler.
    train_dir, unseen_dir = os.path.join(work, "train"), os.path.join(work, "unseen")
    train_corpus, _ = _write_docs(train_dir, "corpus", train)
    offsets = train.offsets
    planted = {"LDA": [train.topics[s:e] for s, e in zip(offsets[:-1], offsets[1:])],
               "DMM": train.labels}
    paras = {}
    for kind, z in planted.items():
        name = "train" + kind
        hp = Hyperparams(model=kind, ntopics=k, alpha=ALPHA, beta=beta, niters=1,
                         name=name, seed=seed)
        paras[kind] = os.path.join(train_dir, name + ".paras")
        persistence.write_paras(hp, train_corpus, paras[kind])
        persistence.write_assignments(z, os.path.join(train_dir, name + ".topicAssignments"), kind)
    unseen_corpus, labels = _write_docs(unseen_dir, "corpus", unseen)

    train_vocab = np.unique(train.words)
    keep = np.isin(unseen.words, train_vocab)
    kept_doc_of, kept_words = unseen.doc_of[keep], unseen.words[keep]
    kept_lengths = np.bincount(kept_doc_of, minlength=unseen.lengths.size)
    stats = {"train": gen.corpus_stats(train), "unseen": gen.corpus_stats(unseen, train_vocab)}

    steps, runs = [], {}
    for kind in ("LDA", "DMM"):
        name = "inf" + kind
        runs[kind] = ModelRun(os.path.join(unseen_dir, name), kind, k, train_vocab.size, kept_lengths)
        steps.append(Step(["-model", kind + "inf", "-paras", paras[kind], "-corpus", unseen_corpus,
                           "-niters", str(iters), "-name", name, "-seed", str(seed)], runs[kind]))
    steps += [_eval_step(labels, unseen_dir, f"inf{kind}.theta") for kind in ("LDA", "DMM")]

    frozen_lda = train.topics
    frozen_dmm = train.labels[train.doc_of]

    def log_joint():
        # Folding-in samples from P(z_new | w_new, frozen training counts), so
        # its quality is the log joint conditional on the training state.
        z = np.concatenate(read_assignments(runs["LDA"].base + ".topicAssignments", "LDA"))
        lda = (metrics.lda_doc_log_joint(kept_doc_of, z, kept_lengths, k, ALPHA)
               + metrics.conditional_word_log_joint(z, kept_words, frozen_lda, train.words,
                                                    k, train_vocab.size, beta))
        zd = read_assignments(runs["DMM"].base + ".topicAssignments", "DMM")
        dmm = (metrics.dmm_doc_log_joint(zd, k, ALPHA)
               + metrics.conditional_word_log_joint(zd[kept_doc_of], kept_words, frozen_dmm,
                                                    train.words, k, train_vocab.size, beta))
        return (lda + dmm) / 2 / kept_words.size

    setup = _setup_args(("load_pretrained", paras["LDA"]), ("load_corpus", unseen_corpus))
    return Plan(steps, setup, stats, kept_words.size * iters * 2, log_joint)


PLANS = {
    "lda-train": plan_lda_train,
    "dmm-short": plan_dmm_short,
    "infer-replay": plan_infer_replay,
}
