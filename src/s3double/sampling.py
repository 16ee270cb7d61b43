"""Categorical draws: `law` normalises weights once into a read-only
cumulative law, and `draw` maps one `rng.random()` double to an index.  They
consume the double, and return the index, that Generator.choice(len(p), p=p)
would for p = weights / weights.sum(), without revalidating p on every draw.
A stack of weight rows gives a stack of laws, and `draws` takes one double
per row, each from that row's own generator.
"""

from __future__ import annotations

import numpy as np


def law(weights) -> np.ndarray:
    """Read-only cumulative law of non-negative weights along the last axis,
    as Generator.choice builds it from p = weights / weights.sum(); each row
    of a stack is bit for bit the law of that row alone."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum(axis=-1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("a law needs a positive total weight")
    cdf = (weights / total).cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    cdf.setflags(write=False)
    return cdf


def draw(cdf: np.ndarray, rng) -> int:
    """Index drawn from a cumulative law with one rng.random() double."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def draws(cdf: np.ndarray, rngs) -> np.ndarray:
    """One index per generator: row i of a stack of laws (or one law shared
    by every row) drawn with one rngs[i].random() double, as `draw` draws it."""
    u = np.array([rng.random() for rng in rngs])
    return (cdf <= u[:, None]).sum(axis=-1)
