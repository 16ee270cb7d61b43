"""Categorical draws: `law` normalises weights once into a read-only
cumulative law, and `draw` maps one `rng.random()` double to an index.  They
consume the double, and return the index, that Generator.choice(len(p), p=p)
would for p = weights / weights.sum(), without revalidating p on every draw.
"""

from __future__ import annotations

import numpy as np


def law(weights) -> np.ndarray:
    """Read-only cumulative law of non-negative weights, as Generator.choice
    builds it from p = weights / weights.sum()."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not total > 0:
        raise ValueError("a law needs a positive total weight")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def draw(cdf: np.ndarray, rng) -> int:
    """Index drawn from a cumulative law with one rng.random() double."""
    return int(cdf.searchsorted(rng.random(), side="right"))
