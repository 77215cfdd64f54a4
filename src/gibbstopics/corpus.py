"""Corpus and label loading: one document per line, whitespace tokens,
vocabulary ids assigned in first-occurrence order."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """Load a UTF-8 corpus file: one document per line, tokens split on
    whitespace. Blank lines are fatal so that line numbers stay aligned with
    any gold-label file."""
    path = str(path)
    lines = read_lines(path, "corpus file")
    if not lines:
        raise ToolError(f"corpus file {path} is empty")

    index: dict[str, int] = {}
    ids: list[int] = []
    offsets = [0]
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise ToolError(f"blank document at line {lineno} in {path}")
        ids += [index.setdefault(tok, len(index)) for tok in tokens]
        offsets.append(len(ids))
    return Corpus(words=np.array(ids, dtype=np.int64), offsets=np.array(offsets, dtype=np.int64),
                  vocab=Vocabulary(words=tuple(index), index=index), source_path=path)


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
