"""Topic modeling via collapsed Gibbs sampling: LDA and the one-topic-per-document
Dirichlet Multinomial Mixture, plus topic inference on unseen corpora and a
document-clustering evaluation (Purity, NMI).

Each public name is imported from its module on first use (PEP 562) and then
held here, so `import gibbstopics` loads neither NumPy nor the samplers."""

import importlib

# Each public name and the module that binds it.
_HOMES = {
    "Corpus": "persistence", "load_corpus": "persistence", "load_labels": "persistence",
    "CountState": "core", "Hyperparams": "core", "ToolError": "core", "estimate_phi": "core",
    "estimate_theta_lda": "core", "make_rng": "core",
    "dmm_sweep": "dmm", "estimate_theta_dmm": "dmm", "init_dmm": "dmm",
    "lda_sweep": "lda", "init_lda": "lda",
    "train_dmm": "chain", "train_lda": "chain",
    "PretrainedModel": "inference", "infer": "inference", "load_pretrained": "inference",
    "evaluate_files": "evaluation", "nmi": "evaluation", "purity": "evaluation",
}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value
