"""Sparse vectors over a mixed-radix basis: an int8 digit matrix (one row per
stored basis state, one column per radix), the radix tuple and complex
amplitudes.  The lattice state has one radix-6 column per edge, the circuit
register one radix-3 or radix-2 column per wire (edge g is the qutrit digit
g mod 3 and the qubit digit g div 3), the code register one column per qudit.

Only this module turns a row into a key (`pack`: little-endian mixed radix
in one int64, column 0 least significant); every merge, overlap and lookup
goes through it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_CHUNK = 1 << 14  # rows per int64 cast in `pack`, which bounds its temporary


class ResourceError(RuntimeError):
    """State too large for exact simulation."""

    def __init__(self, message: str, estimated_terms: int):
        super().__init__(f"{message} (estimated term count {estimated_terms})")
        self.estimated_terms = estimated_terms


@lru_cache(maxsize=None)
def _place_values(radices):
    if math.prod(radices) > np.iinfo(np.int64).max:
        return None
    values = np.array([math.prod(radices[:c]) for c in range(len(radices))], dtype=np.int64)
    values.setflags(write=False)
    return values


def place_values(radices, rows: int) -> np.ndarray:
    """Weight of each column in the key.  The overflow rule: once the radix
    product passes int64, ResourceError reports `rows`, the row count met."""
    values = _place_values(tuple(radices))
    if values is None:
        raise ResourceError(f"{len(radices)} radix columns overflow an int64 key", rows)
    return values


def pack(digits, radices) -> np.ndarray:
    """int64 key of each row; the digits are promoted to int64 before the
    multiply, a bounded block of rows at a time."""
    values = place_values(radices, len(digits))
    if len(digits) <= _CHUNK:
        return digits @ values
    keys = np.empty(len(digits), dtype=np.int64)
    for i in range(0, len(digits), _CHUNK):
        np.matmul(digits[i : i + _CHUNK], values, out=keys[i : i + _CHUNK])
    return keys


def unpack(keys, radices) -> np.ndarray:
    """Digit rows of int64 keys (the inverse of `pack`)."""
    rows = np.empty((len(keys), len(radices)), dtype=np.int8)
    for c, r in enumerate(radices):
        keys, rows[:, c] = np.divmod(keys, r)
    return rows


def basis_rows(radices) -> np.ndarray:
    """Every basis state as a row, in key order: row i packs to i."""
    return unpack(np.arange(math.prod(radices)), radices)


def merged(digits, radices, amps, tol: float) -> list:
    """[(rows, amplitudes)] per column of the (row, column) `amps`: equal
    rows added in input order, sums of modulus <= tol dropped, rows in key
    order.  One np.unique serves every column."""
    keys = pack(digits, radices)
    uniq, inverse = np.unique(keys, return_inverse=True)
    first = np.empty(len(uniq), dtype=np.intp)
    first[inverse] = np.arange(len(keys))  # a row per key, without a sort
    sums = np.zeros((amps.shape[1], len(uniq)), dtype=complex)
    for col, a in zip(sums, amps.T):
        np.add.at(col, inverse, a)
    return [(digits[first[m]], col[m]) for col, m in zip(sums, np.abs(sums) > tol)]


def overlap(a_digits, a_amps, b_digits, b_amps, radices) -> complex:
    """<a|b> over the rows two vectors of distinct rows share."""
    keys = pack(a_digits, radices), pack(b_digits, radices)
    _, ia, ib = np.intersect1d(*keys, assume_unique=True, return_indices=True)
    return complex(np.sum(np.conj(a_amps[ia]) * b_amps[ib]))


def find(digits, radices, query) -> np.ndarray:
    """Index in `digits` (distinct rows) of each row of `query` (any leading
    shape), -1 where it is absent."""
    keys = pack(digits, radices)
    wanted = pack(query.reshape(-1, len(radices)), radices).reshape(query.shape[:-1])
    order = np.argsort(keys)
    pos = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), len(keys) - 1)]
    return np.where(keys[pos] == wanted, pos, -1)
