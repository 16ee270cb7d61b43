"""Anyonic state simulator over fusion trees for the S3 double.

States are superpositions of fusion trees with a fixed binary shape over a
fixed leaf sequence.  Shapes are nested tuples of leaf positions (e.g.
``((0, 1), (2, 3))``); a basis tree assigns an anyon label to every internal
node (the root label is fixed per state).  F-moves re-associate one vertex and
braids exchange adjacent sibling leaves.

The remote-measurement and merge/split protocols act on the four-D logical
qutrit space (total charge G, internal pair labels (x, y)) and its two-qutrit
extension.  A state is a pair array: one amplitude per pair in ``ALL_PAIRS``
order (a 9-entry vector; the merged pair is the 9 x 9 matrix over two such
orders), and every index of it is an admissible labeling, so there is
nothing to validate beyond its shape.  Each protocol runs a batch of trials:
it takes a stack of B pair arrays and a sequence of B generators, trial i
drawing its outcomes from generator i alone and in the order a lone trial
would, and each round is one array program over the trials still running.
A single state is a batch of one.  The rounds multiply by the constant
tables of ``category.qutrit_tables()``, built once per process from the
shipped category that every operation here reads.  ``FusionState`` is the
state of the F-move and braid engine alone.

Global phases are tracked explicitly: normalization only divides by the
positive norm, so protocol sign bookkeeping stays observable in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import sampling
from .category import (
    ALL_PAIRS,
    FUSE_OUTCOMES,
    MA_OUTCOMES,
    MU_OUTCOMES,
    QUTRIT_PAIRS,
    ROOT_OUTCOMES,
    U_PAIRS,
    default_category,
    qutrit_tables,
)

QUTRIT_SHAPE = ((0, 1), (2, 3))
PRUNE_TOL = 1e-14


class FusionError(ValueError):
    pass


@lru_cache(maxsize=1024)
def _subtrees(shape):
    """Internal nodes of a nested-tuple shape in postorder (root last)."""
    if not isinstance(shape, tuple):
        return ()
    return _subtrees(shape[0]) + _subtrees(shape[1]) + (shape,)


@lru_cache(maxsize=1024)
def _node_indices(shape):
    """Read-only map from each internal node of a shape to its postorder index."""
    return MappingProxyType({node: i for i, node in enumerate(_subtrees(shape))})


@lru_cache(maxsize=1024)
def _vertex_slots(shape):
    """(left child, right child, node) of every internal node, as positions
    in the label sequence ``leaves + labeling``."""
    index = _node_indices(shape)
    n_leaves = len(index) + 1

    def slot(node):
        return node if isinstance(node, int) else n_leaves + index[node]

    return tuple((slot(node[0]), slot(node[1]), slot(node)) for node in index)


@dataclass(frozen=True)
class FusionState:
    """Superposition over internal labelings of one tree shape."""

    leaves: tuple  # anyon letters
    shape: tuple
    root: str
    amps: dict  # labeling tuple (aligned with _subtrees(shape)) -> complex

    @property
    def nodes(self):
        return _subtrees(self.shape)

    def node_index(self, node):
        try:
            return _node_indices(self.shape)[node]
        except KeyError:
            raise ValueError(f"{node!r} is not an internal node") from None

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amps.values())))

    def normalized(self) -> "FusionState":
        n = self.norm()
        if n == 0:
            raise FusionError("cannot normalize the zero state")
        return replace(self, amps={k: v / n for k, v in self.amps.items()})

    def pruned(self) -> "FusionState":
        return replace(self, amps={k: v for k, v in self.amps.items() if abs(v) > PRUNE_TOL})

    def label_of(self, labeling, node):
        if isinstance(node, int):
            return self.leaves[node]
        return labeling[self.node_index(node)]

    def validate(self):
        N = default_category().N
        slots = _vertex_slots(self.shape)
        for labeling in self.amps:
            if labeling[-1] != self.root:
                raise FusionError("root label mismatch")
            labels = self.leaves + labeling
            for i, j, k in slots:
                a, b, c = labels[i], labels[j], labels[k]
                if not N.get((a, b, c), 0):
                    raise FusionError(f"inadmissible vertex {a} x {b} -> {c}")
        return self


def qutrit_state(amps) -> FusionState:
    """Four-D fusion tree with total charge G from {(x, y): amplitude}."""
    for x, y in amps:
        if (x, y) not in QUTRIT_PAIRS:
            raise FusionError(f"({x},{y}) not an internal pair of the qutrit space")
    state = FusionState(
        ("D",) * 4, QUTRIT_SHAPE, "G", {(x, y, "G"): complex(v) for (x, y), v in amps.items()}
    )
    return state.validate().normalized()


def qutrit_vector(amps) -> np.ndarray:
    """Stack of normalised pair vectors in ALL_PAIRS order from {(x, y):
    amplitudes}: row i takes entry i of every pair's amplitude column, and
    scalar amplitudes give a batch of one."""
    if not QUTRIT_PAIRS.issuperset(amps):
        raise FusionError(f"{set(amps) - QUTRIT_PAIRS} not an internal pair of the qutrit space")
    rows = np.atleast_2d(np.transpose(list(amps.values())))
    vecs = np.zeros((len(rows), len(ALL_PAIRS)), dtype=complex)
    vecs[:, [ALL_PAIRS.index(pair) for pair in amps]] = rows
    return _normalized(vecs)


def _normalized(arr) -> np.ndarray:
    """A stack of pair arrays, each over its own norm, in the arithmetic of
    ``FusionState.normalized``: each entry's squared modulus is Python's
    `abs(v) ** 2`, a row's squares are added left to right (as Python's
    `sum` adds floats up to 3.11; 3.12 compensates), and each real and
    imaginary part is divided by the norm (Python's complex / float; NumPy's
    complex division multiplies by a reciprocal).  `merge-split` prints a
    fidelity that reads these bits.  Python's `abs` of a complex is C
    `hypot` and its `** 2` is C `pow`, the two that `np.hypot` and
    `np.float_power` call; `np.abs`, `np.square` and `np.power` round apart
    from them in some entries.  `np.add.accumulate` adds a row's columns one
    at a time in row-major order, where `np.sum` would add them pairwise.
    Adding 0.0 makes an exactly zero entry +0 whatever product made it, so
    `factor_halves`' SVD sees the same bits for the same amplitudes."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    parts = arr.reshape(len(arr), math.prod(arr.shape[1:])).view(float)
    squares = np.float_power(np.hypot(parts[:, 0::2], parts[:, 1::2]), 2.0)
    norms = np.sqrt(np.add.accumulate(squares, axis=1)[:, -1])
    if not norms.all():
        raise FusionError("cannot normalize the zero state")
    norms = norms.reshape((-1,) + (1,) * (arr.ndim - 1))
    return (arr.view(float) / norms + 0.0).view(complex)


def _pair_stack(arr, shape, rngs=None) -> np.ndarray:
    """A protocol's input as a complex stack of pair arrays of the shape it
    takes, refused otherwise or where its trials lack one generator each."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim != len(shape) + 1 or arr.shape[1:] != shape:
        raise FusionError(f"expected a stack of pair arrays of shape {shape}, got {arr.shape}")
    if rngs is not None and len(rngs) != len(arr):
        raise FusionError(f"{len(arr)} trials need {len(arr)} generators, got {len(rngs)}")
    return arr


# ---------------------------------------------------------------------------
# F-moves and braids


def f_move(state: FusionState, node) -> FusionState:
    """Re-associate one vertex: ((a b) c) <-> (a (b c)).

    The direction is read off the current shape of `node`; norm is preserved
    (F matrices are unitary).
    """
    data = default_category()
    if node not in state.nodes:
        raise FusionError(f"no internal node {node!r}")
    left, right = node
    if isinstance(left, tuple):
        new_node = (left[0], (left[1], right))
        forward = True  # coefficients F[a,b,c,d,e,f], e known
    elif isinstance(right, tuple):
        new_node = ((left, right[0]), right[1])
        forward = False  # inverse move, f known
    else:
        raise FusionError("vertex joins two leaves; nothing to re-associate")

    def swapped(tree, old, new):
        if tree == old:
            return new
        if isinstance(tree, int):
            return tree
        return (swapped(tree[0], old, new), swapped(tree[1], old, new))

    new_shape = swapped(state.shape, node, new_node)
    new_nodes = _subtrees(new_shape)
    # the only internal node whose label changes is the inner child of the
    # re-associated vertex; everything else (including the vertex itself)
    # carries its old label over
    if forward:
        a_t, (b_t, c_t) = new_node
        old_inner, new_inner = (a_t, b_t), (b_t, c_t)
    else:
        (a_t, b_t), c_t = new_node
        old_inner, new_inner = (b_t, c_t), (a_t, b_t)
    old_nodes = {n: swapped(n, new_node, node) for n in new_nodes if n != new_inner}
    out = {}
    for labeling, amp in state.amps.items():
        a = state.label_of(labeling, a_t)
        b = state.label_of(labeling, b_t)
        c = state.label_of(labeling, c_t)
        d = state.label_of(labeling, node)
        known = state.label_of(labeling, old_inner)
        if forward:
            branch = [
                (f, data.f_entry(a, b, c, d, known, f))
                for f in data.outcomes(b, c)
                if data.N.get((a, f, d), 0)
            ]
        else:
            branch = [
                (e, np.conj(data.f_entry(a, b, c, d, e, known)))
                for e in data.outcomes(a, b)
                if data.N.get((e, c, d), 0)
            ]
        carried = {n: state.label_of(labeling, old) for n, old in old_nodes.items()}
        for lab, coeff in branch:
            if abs(coeff) < PRUNE_TOL:
                continue
            new_lab = tuple(lab if n == new_inner else carried[n] for n in new_nodes)
            out[new_lab] = out.get(new_lab, 0) + coeff * amp
    result = FusionState(state.leaves, new_shape, state.root, out).pruned()
    if abs(result.norm() - state.norm()) > 1e-12:
        raise FusionError("F-move failed to preserve the norm")
    return result


def left_comb_shape(n_leaves: int):
    shape = 0
    for i in range(1, n_leaves):
        shape = (shape, i)
    return shape


def to_left_comb(state: FusionState):
    """Convert to the canonical left-comb shape.

    Returns (state, moves) where `moves` is the recorded f_move target list
    that reproduces the conversion.
    """
    moves = []
    current = state
    while True:
        target = next((node for node in current.nodes if isinstance(node[1], tuple)), None)
        if target is None:
            return current, tuple(moves)
        moves.append(target)
        current = f_move(current, target)


def braid(state: FusionState, i: int, over: bool = True) -> FusionState:
    """Exchange sibling leaves i and i+1 (over- or under-crossing)."""
    data = default_category()
    node = (i, i + 1)
    if node not in state.nodes:
        raise FusionError(f"leaves {i},{i + 1} are not siblings; apply f_move first")
    idx = state.node_index(node)
    a, b = state.leaves[i], state.leaves[i + 1]
    new_leaves = list(state.leaves)
    new_leaves[i], new_leaves[i + 1] = b, a
    out = {}
    for labeling, amp in state.amps.items():
        c = labeling[idx]
        phase = data.r_symbol(a, b, c) if over else np.conj(data.r_symbol(b, a, c))
        out[labeling] = amp * phase
    return FusionState(tuple(new_leaves), state.shape, state.root, out)


# ---------------------------------------------------------------------------
# Remote measurements on the logical qutrit


@dataclass(frozen=True, eq=False)
class ProtocolOutcome:
    """A batch of B protocol runs, trial i drawing from generator i of the
    sequence handed in.  `states` stacks the normalised pair arrays the
    trials leave: (B, 9) vectors, or (B, 9, 9) merged pair matrices (a
    timed-out split trial leaves its input as it came).  `tags`,
    `transcripts`, `trial_rounds` and `timeouts` hold one entry per trial;
    `rounds` is the batch total, which a mean over trials divides."""

    tags: tuple
    transcripts: tuple
    states: np.ndarray
    trial_rounds: tuple
    timeouts: tuple

    @property
    def rounds(self) -> int:
        return sum(self.trial_rounds)


def _outcome(tags, transcripts, states, rounds, live) -> ProtocolOutcome:
    """The batch outcome; a trial still `live` when its rounds ran out timed out."""
    timeouts = np.isin(np.arange(len(tags)), live).tolist()
    return ProtocolOutcome(
        tuple(tags), tuple(map(tuple, transcripts)), states, tuple(rounds.tolist()), tuple(timeouts)
    )


def _note(transcripts, rows, steps):
    """Append one step to the transcript of each trial in `rows`."""
    for i, step in zip(rows.tolist(), steps):
        transcripts[i].append(step)


_VECTOR = (len(ALL_PAIRS),)
_MATRIX = (len(ALL_PAIRS), len(ALL_PAIRS))
_OUTSIDE_U = np.array([pair not in U_PAIRS for pair in ALL_PAIRS])
_HALVES = sampling.law([0.5, 0.5])  # an A or B outcome of equal weight


def _branch(rngs, table, vecs):
    """Draw one outcome per trial of a diagonal Kraus table by the Born rule,
    one `sampling.draws` double per trial from the law of its branches'
    squared norms; returns (outcome indices, unnormalised post-measurement
    stack)."""
    branches = table * vecs[:, None]
    w = sampling.draws(sampling.law((np.abs(branches) ** 2).sum(axis=-1)), rngs)
    return w, branches[np.arange(len(w)), w]


def measure_MA(vecs, rngs, max_rounds: int = 64) -> ProtocolOutcome:
    """Interferometric measurement {Pi_A, Pi_A'} on the computational qutrit.

    A D-pair probes the left internal label x; the pair's fusion outcome w
    projects x = w.  On w = G the probe is fused back into the tree (outcome
    D returns directly, outcome E flips the sign of |GG> relative to |GA> via
    a B-pair correction) and rounds continue until the E-count is even.

    Every round multiplies the trials still running by a constant table of
    ``category.qutrit_tables()`` (``ma`` and ``e_correction``).
    """
    tables = qutrit_tables()
    vecs = _pair_stack(vecs, _VECTOR, rngs)
    if vecs[:, _OUTSIDE_U].any():
        raise FusionError("measure_MA requires support on the computational subspace")
    w, vecs = _branch(rngs, tables.ma, vecs)
    g, e, fuse_law = MA_OUTCOMES.index("G"), FUSE_OUTCOMES.index("E"), sampling.law(tables.fuse)
    transcripts = [[("interfere", MA_OUTCOMES[k])] for k in w.tolist()]
    # fuse each w = G probe with the leftmost D and correct E outcomes
    live, odd, rounds = np.flatnonzero(w == g), np.zeros(len(w), bool), np.ones(len(w), int)
    for _ in range(1, max_rounds):
        if not live.size:
            break
        fuse = sampling.draws(fuse_law, [rngs[i] for i in live])
        _note(transcripts, live, [("fuse", FUSE_OUTCOMES[k]) for k in fuse.tolist()])
        vecs[live[fuse == e]] *= tables.e_correction
        odd[live[fuse == e]] ^= True
        # an odd E-count: another interferometry round, certain as x = G
        live = live[odd[live]]
        vecs[live] *= tables.ma[g]
        _note(transcripts, live, [("interfere", "G")] * live.size)
        rounds[live] += 1
    tags = ["Aprime" if k == g else "A" for k in w.tolist()]
    return _outcome(tags, transcripts, _normalized(vecs), rounds, live)


def measure_MU(vecs, rngs, max_rounds: int = 64) -> ProtocolOutcome:
    """Iterated intermediate measurement realizing {Pi_U, Pi_Uperp}.

    Each round an H-pair probes the internal pair (x, y); outcome w = A
    multiplies U-perp amplitudes by -1/2, outcome w = B kills U and gives the
    two U-perp sectors opposite imaginary amplitudes.  All-A transcripts
    converge to Pi_U; after a first B the rounds continue until a second B
    restores intra-U-perp coherence.

    Every round multiplies each trial still running by one row of the
    constant table ``category.qutrit_tables().mu``, pruned at ``PRUNE_TOL``.
    """
    table = qutrit_tables().mu
    vecs = _pair_stack(vecs, _VECTOR, rngs)
    n, b = len(vecs), MU_OUTCOMES.index("B")
    states, transcripts = np.empty_like(vecs), [[] for _ in range(n)]
    b_count, rounds, live = np.zeros(n, int), np.full(n, max_rounds), np.arange(n)
    for r in range(1, max_rounds + 1):
        if not live.size:
            break
        w, vecs = _branch([rngs[i] for i in live], table, vecs)
        vecs[np.abs(vecs) <= PRUNE_TOL] = 0
        _note(transcripts, live, [MU_OUTCOMES[k] for k in w.tolist()])
        b_count[live] += w == b
        # a second B ends a trial, and so does the last round of an all-A one
        done = (b_count[live] == 2) | ((b_count[live] == 0) & (r == max_rounds))
        states[live[done]], rounds[live[done]] = vecs[done], r
        live, vecs = live[~done], vecs[~done]
    states[live] = vecs
    # an all-A trial ends as U, unless no round ran and it timed out
    tags = ["U" if c == 0 and max_rounds > 0 else "Uperp" for c in b_count.tolist()]
    return _outcome(tags, transcripts, _normalized(states), rounds, live)


# ---------------------------------------------------------------------------
# Merge and split of logical qutrits


TWO_QUTRIT_SHAPE = (((0, 1), (2, 3)), ((4, 5), (6, 7)))


def merge_qutrits(vecs_l, vecs_r, rngs) -> ProtocolOutcome:
    """Fuse the G roots of two logical qutrits into a single G root.

    Subroutine 1 fuses the roots (outcomes A: 1/4, B: 1/4, G: 1/2).  On A/B,
    subroutine 2 splits the Abelian outcome back into two G, probes the left
    one with a D-pair (X in {A, G}), and fuses the residual pair(s) down to a
    single G; the internal labels of both qutrits are untouched throughout,
    and the merged pair matrix is the outer product of the two pair vectors
    times the branch's constant phase from ``category.qutrit_tables().merge``.
    """
    tables = qutrit_tables()
    vecs_l, vecs_r = _pair_stack(vecs_l, _VECTOR, rngs), _pair_stack(vecs_r, _VECTOR, rngs)
    branches = [tables.merge[c] for c in ROOT_OUTCOMES[:2]]  # the A and B outcomes
    if any(abs(abs(branch.pair_phase) - 1) > 1e-12 for branch in branches):
        raise FusionError("residual G-pair fusion is not deterministic")
    root = sampling.draws(sampling.law(tables.root_fusion), rngs)
    transcripts = [[("root-fusion", ROOT_OUTCOMES[c])] for c in root.tolist()]
    # split A/B into two G, then D-pair interferometry on the left G
    split = np.flatnonzero(root != ROOT_OUTCOMES.index("G"))
    laws = sampling.law([branch.weights for branch in branches])
    X = sampling.draws(laws[root[split]], [rngs[i] for i in split])
    _note(transcripts, split, [("interferometer", MA_OUTCOMES[x]) for x in X.tolist()])
    phases = np.ones(len(root), dtype=complex)
    phases[split] = np.array([[b.pair_phase, b.probe_phase] for b in branches])[root[split], X]
    # X = A: the residual G pair fuses to G; X = G: the left two G fuse to
    # an Abelian A or B, then Abelian x G -> G
    direct, probed = split[X == MA_OUTCOMES.index("A")], split[X == MA_OUTCOMES.index("G")]
    _note(transcripts, direct, [("pair-fusion", "G")] * direct.size)
    ab = sampling.draws(_HALVES, [rngs[i] for i in probed])
    for i, k in zip(probed.tolist(), ab.tolist()):
        transcripts[i] += [("left-fusion", "AB"[k]), ("abelian-fusion", "G")]
    merged = (phases[:, None] * vecs_l)[:, :, None] * vecs_r[:, None]
    n = len(root)
    return _outcome(["merged"] * n, transcripts, _normalized(merged), np.ones(n, int), [])


def split_qutrit(mats, rngs, max_rounds: int = 64) -> ProtocolOutcome:
    """Split the G root of every merged two-qutrit pair matrix of a stack
    back into two G roots.

    Each round applies a shortest-G-ribbon + measurement attempt that
    succeeds (fusion outcome G) with probability 1/2; the exposed internal
    label is A or B with equal amplitude, and the B branch is recorded but
    harmless.  The split leaves the internal labels untouched, so the joint
    amplitudes come back as the product state of the two halves (left,
    right) in the same pair matrix.
    """
    mats = _pair_stack(mats, _MATRIX, rngs)
    p_succ = qutrit_tables().root_fusion[ROOT_OUTCOMES.index("G")]
    attempt, n = sampling.law([p_succ, 1 - p_succ]), len(mats)
    tags, transcripts = ["timeout"] * n, [[] for _ in range(n)]
    rounds, live = np.full(n, max_rounds), np.arange(n)
    for r in range(1, max_rounds + 1):
        if not live.size:
            break
        ok = sampling.draws(attempt, [rngs[i] for i in live]) == 0
        _note(transcripts, live, [("split-attempt", "G" if s else "AB") for s in ok.tolist()])
        done = live[ok]
        for i, k in zip(done.tolist(), sampling.draws(_HALVES, [rngs[i] for i in done]).tolist()):
            transcripts[i].append(("internal", "AB"[k]))
            tags[i] = "split-" + "AB"[k]
        rounds[done], live = r, live[~ok]
    states, ran = mats.copy(), np.isin(np.arange(n), live, invert=True)
    states[ran] = _normalized(mats[ran])
    return _outcome(tags, transcripts, states, rounds, live)


def factor_halves(mats):
    """Factor a stack of product two-qutrit pair matrices into the stacks of
    their normalised single-qutrit pair vectors (left, right)."""
    u, s, vh = np.linalg.svd(_pair_stack(mats, _MATRIX))
    if (s[:, 1] > 1e-9).any():
        raise FusionError("state is entangled across the two qutrits")
    scale = np.sqrt(s[:, :1])
    return tuple(
        _normalized(np.where(np.abs(vec) > PRUNE_TOL, vec * scale, 0))
        for vec in (u[:, :, 0], vh[:, 0])
    )
