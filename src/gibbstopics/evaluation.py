"""Document-clustering evaluation: each document goes to its highest-probability
topic, scored against gold labels with Purity and NMI, aggregated over one or
more .theta files."""

from __future__ import annotations

import math
import os
from collections import Counter

from gibbstopics.core import Record, ToolError
from gibbstopics.persistence import read_matrix


class ClusteringResult(Record):
    file: str
    purity: float
    nmi: float


class EvalSummary(Record):
    results: list
    purity_mean: float
    purity_std: float
    nmi_mean: float
    nmi_std: float


def _check_lengths(clusters, labels):
    if len(clusters) != len(labels):
        raise ToolError(f"cluster count {len(clusters)} != label count {len(labels)}")
    if len(clusters) == 0:
        raise ToolError("empty clustering")


def purity(clusters, labels) -> float:
    """Fraction of documents in the majority gold class of their cluster:
    (1/N) * sum_k max_j |cluster_k intersect class_j|."""
    _check_lengths(clusters, labels)
    majority: dict = {}
    for (c, _), n in Counter(zip(clusters, labels)).items():
        majority[c] = max(majority.get(c, 0), n)
    return sum(majority.values()) / len(clusters)


def nmi(clusters, labels) -> float:
    """Mutual information between the cluster and label partitions, normalized
    by the average of their entropies. The log base cancels in the ratio.

    Both partitions trivial (single block each) is defined as 1.0; exactly one
    zero-entropy partition yields 0 naturally.
    """
    _check_lengths(clusters, labels)
    n = len(clusters)
    joint = Counter(zip(clusters, labels))
    c_counts = Counter(clusters)
    l_counts = Counter(labels)
    mutual = sum(
        nij / n * math.log(nij * n / (c_counts[c] * l_counts[l]))
        for (c, l), nij in joint.items()
    )
    h_c = -sum(v / n * math.log(v / n) for v in c_counts.values())
    h_l = -sum(v / n * math.log(v / n) for v in l_counts.values())
    denom = (h_c + h_l) / 2
    if denom == 0:
        return 1.0
    return min(1.0, max(0.0, mutual / denom))


def evaluate_files(directory, suffix_or_name: str, labels) -> EvalSummary:
    """Score every file in the directory whose name ends with the given suffix
    (an exact file name matches itself), in ascending name order, and report
    the mean and sample standard deviation (divisor n-1, 0 when n=1)."""
    directory = str(directory)
    if not os.path.isdir(directory):
        raise ToolError(f"directory {directory} not found")
    names = sorted(
        name for name in os.listdir(directory)
        if name.endswith(suffix_or_name) and os.path.isfile(os.path.join(directory, name))
    )
    if not names:
        raise ToolError(f"no file matching {suffix_or_name!r} in {directory}")
    results = []
    for name in names:
        path = os.path.join(directory, name)
        theta = read_matrix(path)
        if len(theta) != len(labels):
            raise ToolError(f"{path}: {len(theta)} distribution rows != {len(labels)} labels")
        clusters = [row.index(max(row)) for row in theta]  # ties go to the lowest index
        results.append(ClusteringResult(file=name, purity=purity(clusters, labels),
                                        nmi=nmi(clusters, labels)))
    return EvalSummary(
        results=results,
        purity_mean=_mean([r.purity for r in results]),
        purity_std=_sample_std([r.purity for r in results]),
        nmi_mean=_mean([r.nmi for r in results]),
        nmi_std=_sample_std([r.nmi for r in results]),
    )


def _mean(values) -> float:
    return sum(values) / len(values)


def _sample_std(values) -> float:
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))
