"""Reference computations the benchmark checks the program's outputs against.

Everything here is written apart from the program: the majority vote, the
balanced accuracy and the Pareto dominance test are re-derived from their
definitions in the paper, not imported from ``repro``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def sliding_mode(raw: Sequence[int], window: int) -> List[int]:
    """Causal sliding-window mode; ties go to the most recent tied class."""
    out = []
    for i in range(len(raw)):
        recent = [int(v) for v in raw[max(0, i - window + 1) : i + 1]]
        counts = {}
        for v in recent:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        out.append(next(v for v in reversed(recent) if counts[v] == best))
    return out


def balanced_accuracy(labels: Sequence[int], predictions: Sequence[int]) -> float:
    """Mean recall over the classes present in ``labels``."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    recalls = [
        float(np.mean(predictions[labels == c] == c)) for c in np.unique(labels)
    ]
    return sum(recalls) / len(recalls)


def dominated(point: Tuple[float, float], others: Sequence[Tuple[float, float]]) -> bool:
    """Whether ``(score, cost)`` is dominated: another point scores at least
    as high at no more cost, and is strictly better in one of the two."""
    score, cost = point
    return any(
        s >= score and c <= cost and (s > score or c < cost) for s, c in others
    )


def energy_per_cycle_uj(frequency_hz: float, active_power_w: float) -> float:
    """Energy of one cycle at constant active power, in microjoules."""
    return active_power_w / frequency_hz * 1e6
