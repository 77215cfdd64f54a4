"""Corpus and label loading: one document per line, whitespace tokens,
vocabulary ids assigned in first-occurrence order."""

from __future__ import annotations

from collections import defaultdict
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

    # A missing word gets the next id: default_factory is called, then its
    # result stored, so the per-token lookup runs no bytecode.
    ids_of = defaultdict()
    ids_of.default_factory = ids_of.__len__
    ids: list[int] = []
    offsets = [0]
    for line in lines:
        ids += map(ids_of.__getitem__, line.split())
        offsets.append(len(ids))
    offsets = np.array(offsets, dtype=np.int64)
    blank = np.flatnonzero(offsets[1:] == offsets[:-1])
    if blank.size:
        raise ToolError(f"blank document at line {blank[0] + 1} in {path}")
    # a plain dict: a defaultdict would add every word looked up and missed
    index = dict(ids_of)
    return Corpus(words=np.array(ids, dtype=np.int64), offsets=offsets,
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
