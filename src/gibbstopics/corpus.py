"""Corpus and label loading: one document per line, whitespace tokens,
vocabulary ids assigned in first-occurrence order. The tokenize kernel of
the compiled library (native.py) splits a corpus, so loading one needs the
library; loading labels does not."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gibbstopics import native
from gibbstopics.core import ToolError
from gibbstopics.persistence import read_lines, read_text


@dataclass(frozen=True)
class Vocabulary:
    words: tuple
    index: dict

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Corpus:
    words: np.ndarray    # int64 word id of every token, document after document
    offsets: np.ndarray  # int64, D+1 from 0: document d is words[offsets[d]:offsets[d+1]]
    vocab: Vocabulary
    source_path: str

    @cached_property
    def docs(self) -> tuple:
        """One view into words per document (empty only after OOV folding)."""
        return split_docs(self.words, self.offsets)

    @property
    def n_docs(self) -> int:
        return self.offsets.size - 1

    @property
    def n_tokens(self) -> int:
        return self.words.size


def split_docs(flat: np.ndarray, offsets: np.ndarray) -> tuple:
    """Per-document views of an array holding one value per token."""
    bounds = offsets.tolist()
    return tuple(flat[start:end] for start, end in zip(bounds[:-1], bounds[1:]))


def load_corpus(path) -> Corpus:
    """Load a UTF-8 corpus file: one document per line, each ended by LF,
    CR LF or CR, and tokens split on the whitespace of str.split(). Blank
    lines are fatal so that line numbers stay aligned with any gold-label
    file."""
    path = str(path)
    data, _ = read_text(path, "corpus file")  # decoded once: invalid UTF-8 names its line
    if not data:
        raise ToolError(f"corpus file {path} is empty")
    text = np.frombuffer(data, np.uint8)
    n = text.size
    # Worst-case capacities, allocated but touched only as far as written.
    words = np.empty((n + 1) // 2, np.int64)
    offsets = np.empty(n + 1, np.int64)
    vocab = np.empty(n + 1, np.uint8)
    sizes = np.empty(3, np.int64)
    native.check("tokenize", ("text", text, np.uint8, (n,), False),
                 ("words", words, np.int64, ((n + 1) // 2,), True),
                 ("offsets", offsets, np.int64, (n + 1,), True),
                 ("vocab", vocab, np.uint8, (n + 1,), True), ("sizes", sizes, np.int64, (3,), True))
    if native.call("tokenize", n, text, words, offsets, vocab, sizes) < 0:
        raise ToolError(f"out of memory tokenizing corpus file {path}")
    n_tokens, n_docs, n_vocab = sizes.tolist()
    offsets = offsets[:n_docs + 1]
    blank = np.flatnonzero(offsets[1:] == offsets[:-1])
    if blank.size:
        raise ToolError(f"blank document at line {blank[0] + 1} in {path}")
    vocab_words = vocab[:n_vocab - 1].tobytes().decode().split("\n")
    index = dict(zip(vocab_words, range(len(vocab_words))))
    return Corpus(words=words[:n_tokens], offsets=offsets,
                  vocab=Vocabulary(words=tuple(vocab_words), index=index), source_path=path)


def load_labels(path) -> tuple:
    """Load one gold label per line, aligned by line number with the corpus."""
    path = str(path)
    labels = []
    for lineno, line in enumerate(read_lines(path, "label file"), start=1):
        label = line.strip()
        if not label:
            raise ToolError(f"blank label at line {lineno} in {path}")
        labels.append(label)
    return tuple(labels)
