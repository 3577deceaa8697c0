"""Copy-graph analysis of DATE's dependence posteriors.

DATE estimates, for every co-answering worker pair, the probability of
each copy direction.  Thresholding those posteriors yields a directed
*copy graph*: an edge ``a -> b`` means "a likely copies from b".  This
module builds that graph (networkx), extracts the copier clusters the
platform would audit, ranks likely source workers, and — when the
dataset carries generative ground truth — scores the detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.date import TruthDiscoveryResult
from ..errors import ConfigurationError
from ..types import Dataset

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "dependence_graph",
    "copier_clusters",
    "likely_sources",
    "detection_scores",
    "DetectionScores",
]


def dependence_graph(
    result: TruthDiscoveryResult,
    *,
    threshold: float = 0.5,
) -> nx.DiGraph:
    """Build the directed copy graph from a truth-discovery result.

    An edge ``a -> b`` (a copies from b) is added when
    ``P(a → b | D) >= threshold``; the posterior is stored as the edge
    attribute ``probability``.  All workers appear as nodes with their
    estimated accuracy as the ``accuracy`` attribute.
    """
    import networkx as nx

    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError("threshold must be in (0, 1]")
    graph = nx.DiGraph()
    for worker_id in result.worker_ids:
        graph.add_node(worker_id, accuracy=result.worker_accuracy.get(worker_id, 0.0))
    for (a, b), posterior in result.dependence.items():
        if posterior.p_a_to_b >= threshold:
            graph.add_edge(a, b, probability=posterior.p_a_to_b)
        if posterior.p_b_to_a >= threshold:
            graph.add_edge(b, a, probability=posterior.p_b_to_a)
    return graph


def copier_clusters(
    result: TruthDiscoveryResult,
    *,
    threshold: float = 0.5,
    min_size: int = 2,
) -> list[set[str]]:
    """Weakly-connected groups of workers linked by suspected copying.

    Each cluster is a candidate audit unit: a source plus its likely
    copiers (directionality inside the cluster can be ambiguous when
    copies are verbatim).  Returned largest-first.
    """
    import networkx as nx

    graph = dependence_graph(result, threshold=threshold)
    graph.remove_nodes_from([n for n in list(graph) if graph.degree(n) == 0])
    clusters = [set(c) for c in nx.weakly_connected_components(graph)]
    return sorted(
        (c for c in clusters if len(c) >= min_size),
        key=lambda c: (-len(c), sorted(c)),
    )


def likely_sources(
    result: TruthDiscoveryResult,
    *,
    threshold: float = 0.5,
    top: int | None = None,
) -> list[tuple[str, float]]:
    """Rank workers by how much copying mass points *at* them.

    A worker's source score is the sum of ``P(x → worker)`` over all
    incoming suspected-copy edges; the workers others copy from rank
    highest.  Returns ``(worker_id, score)`` pairs, descending.
    """
    graph = dependence_graph(result, threshold=threshold)
    scores = {
        node: sum(
            data["probability"] for _, _, data in graph.in_edges(node, data=True)
        )
        for node in graph
    }
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    ranked = [(w, s) for w, s in ranked if s > 0.0]
    return ranked[:top] if top is not None else ranked


@dataclass(frozen=True)
class DetectionScores:
    """Precision/recall of copier detection against generative truth.

    A worker counts as *detected* when it belongs to any suspected-copy
    cluster.  ``pair_recall`` scores the finer-grained goal: how many
    true (copier, source) pairs are linked by an edge in either
    direction.
    """

    threshold: float
    detected_copiers: int
    true_copiers: int
    false_positives: int
    flagged_workers: int
    pair_recall: float

    @property
    def recall(self) -> float:
        """Fraction of true copiers that were flagged."""
        if self.true_copiers == 0:
            return 1.0
        return self.detected_copiers / self.true_copiers

    @property
    def precision(self) -> float:
        """Fraction of flagged workers that are copiers *or sources*."""
        if self.flagged_workers == 0:
            return 1.0
        return 1.0 - self.false_positives / self.flagged_workers


def detection_scores(
    result: TruthDiscoveryResult,
    dataset: Dataset,
    *,
    threshold: float = 0.5,
) -> DetectionScores:
    """Score copier detection against the dataset's generative truth."""
    clusters = copier_clusters(result, threshold=threshold)
    flagged = {worker for cluster in clusters for worker in cluster}
    copiers = {w.worker_id for w in dataset.workers if w.is_copier}
    sources = {s for w in dataset.workers if w.is_copier for s in w.sources}
    involved = copiers | sources

    detected = len(flagged & copiers)
    false_positives = len(flagged - involved)

    graph = dependence_graph(result, threshold=threshold)
    true_pairs = [
        (w.worker_id, source)
        for w in dataset.workers
        if w.is_copier
        for source in w.sources
    ]
    linked = sum(
        1
        for copier, source in true_pairs
        if graph.has_edge(copier, source) or graph.has_edge(source, copier)
    )
    return DetectionScores(
        threshold=threshold,
        detected_copiers=detected,
        true_copiers=len(copiers),
        false_positives=false_positives,
        flagged_workers=len(flagged),
        pair_recall=linked / len(true_pairs) if true_pairs else 1.0,
    )
