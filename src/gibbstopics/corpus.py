"""Corpus and label loading: one document per line, whitespace tokens, word
ids in first-occurrence order. persistence.read_tokens splits a corpus (and a
.topicAssignments file) with native.py's tokenize kernel, so loading a corpus
needs the compiled library. native.check_corpus is the rule kernels hold it to.
Loading labels imports neither NumPy nor the library."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from gibbstopics.core import ToolError
from gibbstopics.persistence import read_lines, read_tokens

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, eq=False)  # arrays have no truth value: equal only to itself
class Corpus:
    words: np.ndarray    # int64 word id of every token, document after document
    offsets: np.ndarray  # int64, D+1 from 0: document d is words[offsets[d]:offsets[d+1]]
    vocab: tuple         # the distinct words: word id i is vocab[i]
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
    """Load a UTF-8 corpus file, one document per line, as read_tokens splits
    it. Blank lines are fatal so that line numbers stay aligned with any
    gold-label file."""
    path = str(path)
    data, words, offsets, tokens = read_tokens(path, "corpus file")
    if not data:
        raise ToolError(f"corpus file {path} is empty")
    blank = (offsets[1:] == offsets[:-1]).nonzero()[0]
    if blank.size:
        raise ToolError(f"blank document at line {blank[0] + 1} in {path}")
    return Corpus(words=words, offsets=offsets, vocab=tuple(tokens), source_path=path)


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
