import numpy as np
import pytest

from gibbstopics.core import ToolError
from gibbstopics.corpus import load_corpus, load_labels


def write(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_first_occurrence_indexing(tmp_path):
    corpus = load_corpus(write(tmp_path, "a b a\nc b\n"))
    assert corpus.n_docs == 2
    assert corpus.vocab.size == 3
    assert corpus.vocab.words == ("a", "b", "c")
    assert [list(d) for d in corpus.docs] == [[0, 1, 0], [2, 1]]


def test_singleton(tmp_path):
    corpus = load_corpus(write(tmp_path, "x"))
    assert corpus.n_docs == 1
    assert corpus.vocab.size == 1
    assert list(corpus.docs[0]) == [0]


def test_blank_line_is_fatal(tmp_path):
    with pytest.raises(ToolError, match="blank document at line 2"):
        load_corpus(write(tmp_path, "a b\n\nc d\n"))


def test_whitespace_only_line_is_fatal(tmp_path):
    with pytest.raises(ToolError, match="blank document at line 3"):
        load_corpus(write(tmp_path, "a\nb\n   \n"))


def test_missing_file_names_path(tmp_path):
    with pytest.raises(ToolError, match="nonexistent.txt"):
        load_corpus(tmp_path / "nonexistent.txt")


def test_vocab_bijection(tmp_path):
    corpus = load_corpus(write(tmp_path, "q r s q\nt r\n"))
    for i, w in enumerate(corpus.vocab.words):
        assert corpus.vocab.index[w] == i


def test_reload_is_deterministic(tmp_path):
    path = write(tmp_path, "pear plum pear\nfig plum kiwi\nkiwi fig\n")
    a = load_corpus(path)
    b = load_corpus(path)
    assert a.vocab.words == b.vocab.words
    assert all(np.array_equal(x, y) for x, y in zip(a.docs, b.docs))


def test_token_conservation(tmp_path):
    text = "a b c\nd e\nf f f f\n"
    corpus = load_corpus(write(tmp_path, text))
    assert corpus.n_tokens == len(text.split())


def test_tokens_taken_verbatim(tmp_path):
    corpus = load_corpus(write(tmp_path, "Apple apple APPLE"))
    assert corpus.vocab.size == 3


def test_load_labels(tmp_path):
    path = write(tmp_path, "pos\nneg\npos\n", name="corpus.LABEL")
    assert load_labels(path) == ("pos", "neg", "pos")


def test_labels_trimmed(tmp_path):
    path = write(tmp_path, "  A \nB\t\n", name="l")
    assert load_labels(path) == ("A", "B")


def test_uniform_labels_allowed(tmp_path):
    path = write(tmp_path, "A\nA\n", name="l")
    assert load_labels(path) == ("A", "A")


def test_blank_label_is_fatal(tmp_path):
    path = write(tmp_path, "A\n\nB\n", name="l")
    with pytest.raises(ToolError, match="blank label at line 2"):
        load_labels(path)


def test_only_lf_crlf_and_cr_end_a_line(tmp_path):
    # str.splitlines also breaks at form feed, U+2028 and other separators,
    # which would shift every later document off its label's line.
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_bytes("a\u2028b c\r\nd\x0ce\x85f\r".encode())
    corpus = load_corpus(corpus_path)
    assert corpus.n_docs == 2
    assert [list(d) for d in corpus.docs] == [[0, 1, 2], [3, 4, 5]]
    labels_path = tmp_path / "corpus.LABEL"
    labels_path.write_bytes("x\u2029y\nz\x1cw\n".encode())
    assert load_labels(labels_path) == ("x\u2029y", "z\x1cw")
