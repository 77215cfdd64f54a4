import numpy as np
import pytest

from gibbstopics import native
from gibbstopics.corpus import Corpus, Vocabulary


def make_corpus(docs, n_vocab, source_path="<memory>"):
    """Build a Corpus directly from id lists, with placeholder word strings."""
    words = tuple(f"w{i}" for i in range(n_vocab))
    vocab = Vocabulary(words=words, index={w: i for i, w in enumerate(words)})
    return Corpus(
        words=np.array([w for doc in docs for w in doc], dtype=np.int64),
        offsets=np.cumsum([0, *map(len, docs)], dtype=np.int64),
        vocab=vocab,
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


@pytest.fixture(scope="session", autouse=True)
def compiled_kernels():
    """Build or load the compiled library before any test, so that a first
    build never counts against a hypothesis example's deadline."""
    native._kernel()


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
