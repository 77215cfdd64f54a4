"""Corpus and label loading: one document per line, whitespace tokens,
vocabulary ids assigned in first-occurrence order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gibbstopics.core import ToolError


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
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ToolError(f"cannot read corpus file {path}: {exc}") from exc
    if not lines:
        raise ToolError(f"corpus file {path} is empty")

    index: dict[str, int] = {}
    words: list[str] = []
    docs = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise ToolError(f"blank document at line {lineno} in {path}")
        ids = np.empty(len(tokens), dtype=np.int64)
        for i, tok in enumerate(tokens):
            wid = index.get(tok)
            if wid is None:
                wid = len(words)
                index[tok] = wid
                words.append(tok)
            ids[i] = wid
        docs.append(ids)

    vocab = Vocabulary(words=tuple(words), index=index)
    return Corpus(docs=tuple(docs), vocab=vocab, source_path=path)


def load_labels(path, expected_count: int) -> LabelSet:
    """Load one gold label per line, aligned by line number with the corpus."""
    path = str(path)
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ToolError(f"cannot read label file {path}: {exc}") from exc
    labels = []
    for lineno, line in enumerate(lines, start=1):
        label = line.strip()
        if not label:
            raise ToolError(f"blank label at line {lineno} in {path}")
        labels.append(label)
    if len(labels) != expected_count:
        raise ToolError(f"label count {len(labels)} != document count {expected_count} in {path}")
    return LabelSet(labels=tuple(labels))
