from dataclasses import replace

import numpy as np
import pytest

from gibbstopics import train_lda
from gibbstopics.core import Hyperparams, ToolError, make_rng
from gibbstopics.dmm import _chain_tables, dmm_sweep, doc_word_counts, estimate_theta_dmm, init_dmm
from gibbstopics.inference import load_pretrained
from gibbstopics.lda import init_lda, lda_sweep
from gibbstopics.persistence import load_corpus, load_labels

from conftest import make_corpus


def write(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_first_occurrence_indexing(tmp_path):
    corpus = load_corpus(write(tmp_path, "a b a\nc b\n"))
    assert corpus.n_docs == 2
    assert corpus.vocab == ("a", "b", "c")
    assert [list(d) for d in corpus.docs] == [[0, 1, 0], [2, 1]]


def test_singleton(tmp_path):
    corpus = load_corpus(write(tmp_path, "x"))
    assert corpus.n_docs == 1
    assert len(corpus.vocab) == 1
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
    lines = ["q r s q", "t r"]
    corpus = load_corpus(write(tmp_path, "\n".join(lines) + "\n"))
    assert len(set(corpus.vocab)) == len(corpus.vocab)
    assert [[corpus.vocab[i] for i in doc] for doc in corpus.docs] == [l.split() for l in lines]


def test_reload_is_deterministic(tmp_path):
    path = write(tmp_path, "pear plum pear\nfig plum kiwi\nkiwi fig\n")
    a = load_corpus(path)
    b = load_corpus(path)
    assert a.vocab == b.vocab
    assert all(np.array_equal(x, y) for x, y in zip(a.docs, b.docs))


@pytest.mark.parametrize("kind", ["Corpus", "CountState", "PretrainedModel"])
def test_array_holders_equal_only_themselves(tmp_path, kind):
    # A generated == would compare the arrays and fail on their truth value,
    # and a generated hash would hash them: each equals and hashes as itself.
    path = write(tmp_path, "a b a\nc b\n")
    if kind == "PretrainedModel":
        train_lda(load_corpus(path), Hyperparams(ntopics=2, niters=1, name="m", seed=1))
    load = {"Corpus": lambda: load_corpus(path),
            "CountState": lambda: init_lda(load_corpus(path), Hyperparams(ntopics=2),
                                           make_rng(1)[0]),
            "PretrainedModel": lambda: load_pretrained(tmp_path / "m.paras")}[kind]
    a, b = load(), load()
    assert type(a).__name__ == kind
    assert a == a and a != b and a in [a] and a not in [b]
    assert len({a, b}) == 2


BAD_CORPORA = {
    "float64 offsets": lambda c: replace(c, offsets=c.offsets.astype(np.float64)),
    "list offsets": lambda c: replace(c, offsets=c.offsets.tolist()),
    "int32 words": lambda c: replace(c, words=c.words.astype(np.int32)),
    "list words": lambda c: replace(c, words=c.words.tolist()),
    "strided words": lambda c: replace(c, words=c.words.repeat(2)[::2]),  # same ids
    "offsets past the words": lambda c: replace(c, offsets=c.offsets + [0, 0, 1]),
    "empty offsets": lambda c: replace(c, offsets=np.empty(0, np.int64)),
    "word id V": lambda c: replace(c, words=np.where(np.arange(c.n_tokens) == 1, 3, c.words)),
}


@pytest.mark.parametrize("case", BAD_CORPORA)
@pytest.mark.parametrize("who", ["lda_sweep", "dmm_sweep", "estimate_theta_dmm",
                                 "doc_word_counts"])
def test_kernel_callers_refuse_a_malformed_corpus(who, case):
    # Every caller of a kernel checks the corpus (native.check_corpus) before
    # it draws or writes: a ToolError naming the function called, not a
    # TypeError, and no table or generator touched.
    corpus = make_corpus([[0, 1, 2], [2, 1]], 3)
    lda = who == "lda_sweep"
    hp = Hyperparams(model="LDA" if lda else "DMM", ntopics=3)
    rng, _ = make_rng(9)
    state = (init_lda if lda else init_dmm)(corpus, hp, rng)
    tables = [t for t in (state.z, state.mk, state.nkw, state.nk) if t is not None]
    before, rng_state = [t.copy() for t in tables], rng.bit_generator.state
    # The DMM functions check the words they are given: the malformed corpus's own.
    log_tables = None if lda else _chain_tables(corpus, state, hp)
    run = {"lda_sweep": lambda c: lda_sweep(c, state, hp, rng),
           "dmm_sweep": lambda c: dmm_sweep(c, state, hp, rng, c.words, log_tables),
           "estimate_theta_dmm": lambda c: estimate_theta_dmm(state, c, hp, c.words, log_tables),
           "doc_word_counts": doc_word_counts}[who]
    with pytest.raises(ToolError, match=f"^{who}: "):
        run(BAD_CORPORA[case](corpus))
    assert all(np.array_equal(a, b) for a, b in zip(tables, before))
    assert rng.bit_generator.state == rng_state


def test_token_conservation(tmp_path):
    text = "a b c\nd e\nf f f f\n"
    corpus = load_corpus(write(tmp_path, text))
    assert corpus.n_tokens == len(text.split())


def test_tokens_taken_verbatim(tmp_path):
    corpus = load_corpus(write(tmp_path, "Apple apple APPLE"))
    assert len(corpus.vocab) == 3


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
