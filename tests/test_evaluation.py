import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbstopics.core import ToolError
from gibbstopics.evaluation import evaluate_files, nmi, purity


def brute_purity(clusters, labels):
    """Independent oracle: explicit majority count per cluster."""
    total = 0
    for c in set(clusters):
        members = [l for ci, l in zip(clusters, labels) if ci == c]
        total += max(Counter(members).values())
    return total / len(clusters)


def brute_nmi(clusters, labels, log=math.log2):
    """Independent oracle: contingency table, explicit entropy sums."""
    n = len(clusters)
    cs, ls = sorted(set(clusters)), sorted(set(labels))
    table = {(c, l): 0 for c in cs for l in ls}
    for c, l in zip(clusters, labels):
        table[(c, l)] += 1
    pc = {c: sum(table[(c, l)] for l in ls) / n for c in cs}
    pl = {l: sum(table[(c, l)] for c in cs) / n for l in ls}
    mutual = 0.0
    for c in cs:
        for l in ls:
            pj = table[(c, l)] / n
            if pj > 0:
                mutual += pj * log(pj / (pc[c] * pl[l]))
    hc = -sum(p * log(p) for p in pc.values() if p > 0)
    hl = -sum(p * log(p) for p in pl.values() if p > 0)
    if hc + hl == 0:
        return 1.0
    return mutual / ((hc + hl) / 2)


partitions = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=12)


class TestArgmax:
    """Eval's cluster rule, the argmax of each .theta row with ties to the
    lowest topic, seen through the purity and NMI evaluate_files reports.
    Both scores ignore cluster names, so each case is built so that another
    rule would group the documents differently."""

    @staticmethod
    def score(tmp_path, rows, labels):
        (tmp_path / "m.theta").write_text("".join(f"{row}\n" for row in rows))
        result = evaluate_files(tmp_path, "m.theta", labels).results[0]
        return result.purity, result.nmi

    def test_basic(self, tmp_path):
        # argmax groups the three documents apart; argmin would group two
        rows = ["0.2 0.7 0.1", "0.6 0.3 0.1", "0.1 0.2 0.7"]
        assert self.score(tmp_path, rows, ("A", "B", "C")) == (1.0, 1.0)

    def test_tie_lowest_index(self, tmp_path):
        # the tied row joins topic 0's document, not topic 1's
        rows = ["0.5 0.5", "0.9 0.1", "0.1 0.9"]
        assert self.score(tmp_path, rows, ("A", "A", "B")) == (1.0, 1.0)
        purity_1, nmi_1 = self.score(tmp_path, rows, ("B", "A", "B"))
        assert abs(purity_1 - 2 / 3) < 1e-12 and nmi_1 < 1.0

    def test_singleton(self, tmp_path):
        # one topic: a single cluster, so NMI is 0 against two classes
        assert self.score(tmp_path, ["1", "1"], ("A", "B")) == (0.5, 0.0)

    def test_empty_fatal(self, tmp_path):
        with pytest.raises(ToolError, match="not a distribution"):
            self.score(tmp_path, ["", ""], ("A", "B"))


class TestPurity:
    def test_pure_clusters(self):
        assert purity([0, 1, 2], ["A", "B", "C"]) == 1.0

    def test_worked_example(self):
        value = purity([0, 0, 0, 1, 1, 2], ["A", "A", "B", "B", "B", "A"])
        assert abs(value - 5 / 6) < 1e-12
        assert abs(value - 0.83333) < 1e-5

    def test_single_item(self):
        assert purity([0], ["A"]) == 1.0

    def test_length_mismatch_fatal(self):
        with pytest.raises(ToolError):
            purity([0, 1], ["A"])

    @given(partitions)
    def test_matches_oracle(self, pairs):
        clusters = [c for c, _ in pairs]
        labels = [str(l) for _, l in pairs]
        assert abs(purity(clusters, labels) - brute_purity(clusters, labels)) < 1e-12

    @given(partitions, st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, pairs, rnd):
        clusters = [c for c, _ in pairs]
        labels = [str(l) for _, l in pairs]
        perm_c = {c: i for i, c in enumerate(sorted(set(clusters), key=lambda _: rnd.random()))}
        perm_l = {l: f"x{i}" for i, l in enumerate(sorted(set(labels), key=lambda _: rnd.random()))}
        assert abs(purity(clusters, labels)
                   - purity([perm_c[c] for c in clusters], [perm_l[l] for l in labels])) < 1e-12


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1], ["A", "A", "B", "B"]) == 1.0

    def test_independent_partitions(self):
        assert abs(nmi([0, 0, 1, 1], ["A", "B", "A", "B"])) < 1e-12

    def test_worked_example(self):
        assert abs(nmi([0, 0, 1, 1], ["A", "A", "A", "B"]) - 0.34372) < 1e-5

    def test_both_trivial_partitions(self):
        assert nmi([0, 0, 0], ["A", "A", "A"]) == 1.0

    def test_one_trivial_partition(self):
        assert abs(nmi([0, 1, 0], ["A", "A", "A"])) < 1e-12

    def test_length_mismatch_fatal(self):
        with pytest.raises(ToolError):
            nmi([0], ["A", "B"])

    @given(partitions)
    def test_matches_oracle(self, pairs):
        clusters = [c for c, _ in pairs]
        labels = [str(l) for _, l in pairs]
        assert abs(nmi(clusters, labels) - min(1.0, max(0.0, brute_nmi(clusters, labels)))) < 1e-12

    @given(partitions)
    def test_log_base_cancels(self, pairs):
        clusters = [c for c, _ in pairs]
        labels = [str(l) for _, l in pairs]
        assert abs(brute_nmi(clusters, labels, math.log2)
                   - brute_nmi(clusters, labels, math.log)) < 1e-12

    @given(partitions)
    def test_symmetric(self, pairs):
        a = [c for c, _ in pairs]
        b = [str(l) for _, l in pairs]
        assert abs(nmi(a, b) - nmi(b, a)) < 1e-12

    @given(partitions)
    def test_in_unit_interval(self, pairs):
        value = nmi([c for c, _ in pairs], [str(l) for _, l in pairs])
        assert 0.0 <= value <= 1.0


def write_theta_file(directory, name, rows):
    path = directory / name
    path.write_text("".join(" ".join(str(v) for v in row) + "\n" for row in rows))
    return path


class TestEvaluateFiles:
    def test_exact_name_single_file(self, tmp_path):
        write_theta_file(tmp_path, "testLDA.theta", [[0.9, 0.1], [0.2, 0.8]])
        labels = ("A", "B")
        summary = evaluate_files(tmp_path, "testLDA.theta", labels)
        assert len(summary.results) == 1
        assert summary.results[0].purity == 1.0
        assert summary.purity_std == 0.0
        assert summary.nmi_std == 0.0

    def test_suffix_matches_multiple_sorted(self, tmp_path):
        write_theta_file(tmp_path, "testLDA.theta", [[0.9, 0.1], [0.2, 0.8]])
        write_theta_file(tmp_path, "testDMM.theta", [[0.9, 0.1], [0.6, 0.4]])
        labels = ("A", "B")
        summary = evaluate_files(tmp_path, "theta", labels)
        assert [r.file for r in summary.results] == ["testDMM.theta", "testLDA.theta"]

    def test_mean_and_sample_std(self, tmp_path):
        # purities engineered to 0.8 and 0.6 over 5 documents
        labels = ("A", "A", "A", "B", "B")
        write_theta_file(tmp_path, "a.theta",
                         [[1, 0], [1, 0], [1, 0], [1, 0], [0, 1]])  # purity 0.8
        write_theta_file(tmp_path, "b.theta",
                         [[1, 0], [1, 0], [0, 1], [1, 0], [0, 1]])  # purity 0.6
        summary = evaluate_files(tmp_path, "theta", labels)
        assert [round(r.purity, 5) for r in summary.results] == [0.8, 0.6]
        assert abs(summary.purity_mean - 0.7) < 1e-12
        assert abs(summary.purity_std - 0.14142) < 1e-5

    def test_no_match_fatal(self, tmp_path):
        with pytest.raises(ToolError, match="no file matching"):
            evaluate_files(tmp_path, "theta", ("A",))

    def test_row_count_mismatch_names_file(self, tmp_path):
        write_theta_file(tmp_path, "bad.theta", [[1.0]])
        with pytest.raises(ToolError, match="bad.theta"):
            evaluate_files(tmp_path, "theta", ("A", "B"))
