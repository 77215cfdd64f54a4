import numpy as np
import pytest

from gibbstopics import native
from gibbstopics.persistence import Corpus


def make_corpus(docs, n_vocab, source_path="<memory>"):
    """Build a Corpus directly from id lists, with placeholder word strings."""
    return Corpus(
        words=np.array([w for doc in docs for w in doc], dtype=np.int64),
        offsets=np.cumsum([0, *map(len, docs)], dtype=np.int64),
        vocab=tuple(f"w{i}" for i in range(n_vocab)),
        source_path=source_path,
    )


def synthetic_lines(rng, n_docs, n_vocab, doc_len):
    """Random documents over a w0..w{V-1} vocabulary, one per line."""
    lines = []
    for _ in range(n_docs):
        ids = rng.integers(0, n_vocab, size=doc_len)
        lines.append(" ".join(f"w{i}" for i in ids))
    return lines


def two_topic_lines(rng, n_docs, doc_len, words_per_topic=10):
    """Well-separated corpus: each document draws all tokens from one of two
    disjoint vocabularies. Returns (lines, generator topic per document)."""
    vocabs = (
        [f"a{i}" for i in range(words_per_topic)],
        [f"b{i}" for i in range(words_per_topic)],
    )
    lines, topics = [], []
    for d in range(n_docs):
        t = d % 2
        lines.append(" ".join(vocabs[t][j] for j in rng.integers(0, words_per_topic, size=doc_len)))
        topics.append(t)
    return lines, topics


def planted_short_lines(rng, n_docs=2000, mean_len=8, min_len=3, n_topics=20, n_words=2000):
    """Short documents with one planted topic each, over a w0..w{V-1}
    vocabulary: each topic a Dirichlet(0.05) draw over n_words words, each
    document at least min_len tokens, all from its topic, with lengths that sum
    to n_docs * mean_len. Returns (lines, planted topic per document)."""
    gam = rng.standard_gamma(0.05, size=(n_topics, n_words))
    cdf = np.cumsum(gam, axis=1)
    # topic t's CDF shifted to (t, t+1], so one search draws every token's word
    cdf = cdf / cdf[:, -1:] + np.arange(n_topics)[:, None]
    lengths = min_len + rng.multinomial(n_docs * (mean_len - min_len), np.full(n_docs, 1 / n_docs))
    topics = rng.integers(0, n_topics, size=n_docs)
    row = np.repeat(topics, lengths)
    words = np.minimum(np.searchsorted(cdf.ravel(), row + rng.random(row.size), "right")
                       - row * n_words, n_words - 1)
    tokens = [f"w{w}" for w in words.tolist()]
    bounds = np.cumsum([0, *lengths.tolist()]).tolist()
    lines = [" ".join(tokens[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]
    return lines, topics.tolist()


@pytest.fixture(scope="session", autouse=True)
def compiled_kernels():
    """Build or load the compiled library before any test, so that a first
    build never counts against a hypothesis example's deadline."""
    native._kernel()


@pytest.fixture(autouse=True)
def no_inherited_pythonpath(monkeypatch):
    """Every child process a test starts sees only the environment the test
    builds; the package itself is imported through pytest's pythonpath."""
    monkeypatch.delenv("PYTHONPATH", raising=False)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def empty_kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache for the test, with the loaded library forgotten.
    After the test, every patch is undone and the real library loaded again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    native._kernel.cache_clear()
    yield tmp_path / "xdg" / "gibbstopics"
    monkeypatch.undo()
    native._kernel.cache_clear()
    native._kernel()
