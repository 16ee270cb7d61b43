"""Categorical draws: `law` normalises weights once into a read-only
cumulative law, and `draw` maps one `rng.random()` double to an index.  They
consume the double, and return the index, that Generator.choice(len(p), p=p)
would for p = weights / weights.sum(), without revalidating p on every draw.
A stack of weight rows gives a stack of laws, and `draws` takes one double
per row, each from that row's own generator.

`hits_below(rng, p, n)` yields the offsets of those of the next n doubles
that fall below p, and consumes exactly the doubles a scalar
``rng.random() < p`` loop would have read up to each: it reads a block of
doubles at once and steps the PCG64 back over those it read past a hit.

`trial_generators(seed, n)` gives those per-trial generators: generator t
yields the same stream, and has the same `bit_generator.state`, as
``np.random.default_rng([seed, t])``.  It runs NumPy's SeedSequence hash for
all n trials as one uint32 array program and seeds each PCG64 from its row,
so no trial pays for a SeedSequence of its own.
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


# hits_below reads a block of about this many expected gaps 1/p, so that
# most hits take one block
_BLOCK_GAPS = 4
# below this expected gap, scalar draws cost less than a block and a rewind
_SCALAR_GAP = 16


def hits_below(rng, p: float, n: int):
    """Yield in order each offset i < n whose double, of the next n
    rng.random() doubles, is below p.  The caller may draw from rng between
    hits: each hit is yielded once the doubles up to and including its own
    are consumed and no more, so the stream, and `rng.bit_generator.state`
    at each yield and at the end, are the scalar loop's,
    ``for i in range(n): if rng.random() < p: yield i``.

    Cost: one rng.random(k) block of k = min(n, 4/p) doubles per hit, more
    only where a block holds no hit, and one PCG64 rewind over the doubles
    read past the hit; where hits come more often than every 16 doubles, or
    on any other bit generator, the scalar loop itself."""
    # numpy.random loads on first use (see trial_generators); rng loaded it
    from numpy.random import PCG64

    if p * _SCALAR_GAP > 1 or not isinstance(rng.bit_generator, PCG64):
        for i in range(n):
            if rng.random() < p:
                yield i
        return
    block = max(1, n if p * n <= _BLOCK_GAPS else int(_BLOCK_GAPS / p))
    start = 0
    while start < n:
        k = min(block, n - start)
        below = rng.random(k) < p
        i = int(below.argmax())
        if not below[i]:
            start += k
            continue
        if i + 1 < k:
            _rewind(rng.bit_generator, k - i - 1)
        yield start + i
        start += i + 1


def _rewind(bit_generator, m: int):
    """Step a PCG64 back over its last m outputs.  `advance` wraps its delta
    modulo 2**128, so a negative delta steps back; it also drops a buffered
    32-bit half-word, which this puts back."""
    buffered = bit_generator.state
    bit_generator.advance(-m)
    if buffered["has_uint32"]:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, buffered["uinteger"]
        bit_generator.state = state


# NumPy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, filled by `hashmix` with the INIT_A/MULT_A multipliers and
# read out by the same hash with INIT_B/MULT_B.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_keys(init, mult):
    """The (xor, multiplier) pair of each successive hash; the multiplier
    chain does not depend on the data, so every trial shares it."""
    key = init
    while True:
        nxt = key * mult & _MASK32
        yield np.uint32(key), np.uint32(nxt)
        key = nxt


def _hash(words, keys):
    """SeedSequence's `hashmix` of a column of words, with the next keys."""
    x, m = next(keys)
    words = (words ^ x) * m
    return words ^ (words >> np.uint32(16))


def _mix(x, y):
    """SeedSequence's `mix` of two columns of words."""
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _seed_states(seed: int, n: int) -> np.ndarray:
    """Row t is SeedSequence([seed, t]).generate_state(4, np.uint64): the
    entropy is seed's 32-bit words, least significant first, then the trial
    word, and every word of the hash is one column over all trials."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n, w, dtype=np.uint32) for w in words] + [np.arange(n, dtype=np.uint32)]
    keys = _hash_keys(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [_hash(entropy[i] if i < len(entropy) else zero, keys) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], keys))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, keys))
    keys = _hash_keys(_INIT_B, _MULT_B)
    state = np.stack([_hash(pool[i % _POOL_SIZE], keys) for i in range(8)], axis=1)
    # SeedSequence reads pairs of words as little-endian uint64
    return state.astype("<u4").view("<u8").astype(np.uint64)


def trial_generators(seed: int, n: int) -> list:
    """n Generators, generator t drawing what np.random.default_rng([seed, t])
    draws, for a seed >= 0 and n <= 2**32 (every trial index one word)."""
    # numpy.random loads on first use: importing it here keeps it out of
    # every command that draws nothing
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    if not 0 <= n <= 2**32:
        raise ValueError(f"expected 0..2**32 trials, got {n}")

    class _Row(ISeedSequence):
        """The precomputed PCG64 seed state of one trial."""

        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for its four uint64 words once, at construction
            return self.row

    return [Generator(PCG64(_Row(row))) for row in _seed_states(seed, n)]
