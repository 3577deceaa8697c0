"""JSON payload codecs for artifacts that outlive a process.

The ledger stores everything as JSON; this module holds the lossless
converters for the result bundles that are not already JSON-shaped.
Floats survive exactly (JSON uses shortest-``repr`` encoding), numpy
matrices are stored as nested lists with their dtype restored on read,
so a deserialized result compares bit-identical to the original — the
property the streaming warm-restart tests pin.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.date import TruthDiscoveryResult
from ..core.engine import DependenceView

__all__ = ["truth_result_from_payload", "truth_result_to_payload"]


def truth_result_to_payload(result: TruthDiscoveryResult) -> dict[str, Any]:
    """Lower a :class:`TruthDiscoveryResult` to a JSON-safe dict."""
    return {
        "truths": dict(result.truths),
        "accuracy_matrix": result.accuracy_matrix.tolist(),
        "worker_accuracy": dict(result.worker_accuracy),
        "confidence": dict(result.confidence),
        "support": {
            task: dict(values) for task, values in result.support.items()
        },
        "dependence": _dependence_rows(result.dependence),
        "iterations": result.iterations,
        "converged": result.converged,
        "method": result.method,
        "worker_ids": list(result.worker_ids),
        "task_ids": list(result.task_ids),
        "ground_truths": dict(result._ground_truths),
    }


def _dependence_rows(dependence) -> list[list]:
    """``[a, b, p_a_to_b, p_b_to_a]`` rows in the mapping's pair order."""
    if isinstance(dependence, DependenceView):
        return [
            [a, b, p_ab, p_ba]
            for (a, b), p_ab, p_ba in zip(
                dependence, dependence.p_ab.tolist(), dependence.p_ba.tolist()
            )
        ]
    return [
        [a, b, posterior.p_a_to_b, posterior.p_b_to_a]
        for (a, b), posterior in dependence.items()
    ]


def _dependence_view(rows: list[list]) -> DependenceView:
    """Rebuild the view from payload rows, numbering ids as they appear."""
    positions: dict = {}
    pair_a = [positions.setdefault(row[0], len(positions)) for row in rows]
    pair_b = [positions.setdefault(row[1], len(positions)) for row in rows]
    return DependenceView(
        pair_a,
        pair_b,
        [row[2] for row in rows],
        [row[3] for row in rows],
        tuple(positions),
    )


def truth_result_from_payload(payload: dict[str, Any]) -> TruthDiscoveryResult:
    """Rebuild a :class:`TruthDiscoveryResult` from its JSON payload."""
    matrix = np.asarray(payload["accuracy_matrix"], dtype=np.float64)
    if matrix.size == 0:
        matrix = matrix.reshape(
            (len(payload["worker_ids"]), len(payload["task_ids"]))
        )
    return TruthDiscoveryResult(
        truths=dict(payload["truths"]),
        accuracy_matrix=matrix,
        worker_accuracy={
            k: float(v) for k, v in payload["worker_accuracy"].items()
        },
        confidence={k: float(v) for k, v in payload["confidence"].items()},
        support={
            task: {value: float(count) for value, count in values.items()}
            for task, values in payload["support"].items()
        },
        dependence=_dependence_view(payload["dependence"]),
        iterations=int(payload["iterations"]),
        converged=bool(payload["converged"]),
        method=str(payload["method"]),
        worker_ids=tuple(payload["worker_ids"]),
        task_ids=tuple(payload["task_ids"]),
        _ground_truths=dict(payload["ground_truths"]),
    )
