"""Corpus and label loading: one document per line, whitespace tokens,
vocabulary ids assigned in first-occurrence order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gibbstopics.core import ToolError
from gibbstopics.persistence import read_lines


@dataclass(frozen=True)
class Vocabulary:
    words: tuple
    index: dict

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Corpus:
    docs: tuple  # one int array of word ids per document (empty only after OOV folding)
    vocab: Vocabulary
    source_path: str

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    @property
    def n_tokens(self) -> int:
        return sum(len(doc) for doc in self.docs)


@dataclass(frozen=True)
class LabelSet:
    labels: tuple


def load_corpus(path) -> Corpus:
    """Load a UTF-8 corpus file: one document per line, tokens split on
    whitespace. Blank lines are fatal so that line numbers stay aligned with
    any gold-label file."""
    path = str(path)
    lines = read_lines(path, "corpus file")
    if not lines:
        raise ToolError(f"corpus file {path} is empty")

    index: dict[str, int] = {}
    docs = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise ToolError(f"blank document at line {lineno} in {path}")
        docs.append(np.array([index.setdefault(tok, len(index)) for tok in tokens], dtype=np.int64))
    return Corpus(docs=tuple(docs), vocab=Vocabulary(words=tuple(index), index=index),
                  source_path=path)


def load_labels(path) -> LabelSet:
    """Load one gold label per line, aligned by line number with the corpus."""
    path = str(path)
    labels = []
    for lineno, line in enumerate(read_lines(path, "label file"), start=1):
        label = line.strip()
        if not label:
            raise ToolError(f"blank label at line {lineno} in {path}")
        labels.append(label)
    return LabelSet(labels=tuple(labels))
