"""Topic modeling via collapsed Gibbs sampling: LDA and the one-topic-per-document
Dirichlet Multinomial Mixture, plus topic inference on unseen corpora and a
document-clustering evaluation (Purity, NMI)."""

from gibbstopics.chain import train_dmm, train_lda
from gibbstopics.core import (
    CountState,
    Hyperparams,
    ToolError,
    estimate_phi,
    estimate_theta_lda,
    make_rng,
)
from gibbstopics.corpus import Corpus, Vocabulary, load_corpus, load_labels
from gibbstopics.dmm import dmm_sweep, estimate_theta_dmm, init_dmm
from gibbstopics.evaluation import evaluate_files, nmi, purity
from gibbstopics.inference import PretrainedModel, infer, load_pretrained
from gibbstopics.lda import init_lda, lda_sweep

__all__ = [
    "Corpus",
    "CountState",
    "Hyperparams",
    "PretrainedModel",
    "ToolError",
    "Vocabulary",
    "dmm_sweep",
    "estimate_phi",
    "estimate_theta_dmm",
    "estimate_theta_lda",
    "evaluate_files",
    "infer",
    "init_dmm",
    "init_lda",
    "lda_sweep",
    "load_corpus",
    "load_labels",
    "load_pretrained",
    "make_rng",
    "nmi",
    "purity",
    "train_dmm",
    "train_lda",
]
