"""Order statistics reported by the benchmark, always with their sample count."""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> Dict[str, float]:
    """Nearest-rank percentile ``q`` (0..100) with the sample count.

    A tail percentile is only meaningful when at least ten samples lie
    beyond it, so ``q`` above 50 needs ``n * (100 - q) / 100 >= 10``;
    otherwise :class:`ValueError` is raised rather than a number that is
    really the maximum.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    if q > 50 and n * (100.0 - q) / 100.0 < 10:
        raise ValueError(
            f"p{q:g} needs at least {math.ceil(1000 / (100.0 - q))} samples, got {n}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return {"value": float(ordered[rank - 1]), "samples": n}

