"""Anyonic state simulator over fusion trees for the S3 double.

States are superpositions of fusion trees with a fixed binary shape over a
fixed leaf sequence.  Shapes are nested tuples of leaf positions (e.g.
``((0, 1), (2, 3))``); a basis tree assigns an anyon label to every internal
node (the root label is fixed per state).  F-moves re-associate one vertex and
braids exchange adjacent sibling leaves.

The remote-measurement and merge/split protocols act on the four-D logical
qutrit space (total charge G, internal pair labels (x, y)) and its two-qutrit
extension.  Their state is a pair array: one amplitude per pair in
``ALL_PAIRS`` order (a 9-entry vector; the merged pair is the 9 x 9 matrix
over two such orders), and every index of it is an admissible labeling, so
there is nothing to validate beyond its shape.  They take and return pair
arrays, multiplying them by the constant tables of
``category.qutrit_tables()``, built once per process from the shipped
category that every operation here reads.  ``FusionState`` is the state of
the F-move and braid engine alone.

Global phases are tracked explicitly: normalization only divides by the
positive norm, so protocol sign bookkeeping stays observable in tests.
"""

from __future__ import annotations

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
_PAIR_INDEX = {pair: i for i, pair in enumerate(ALL_PAIRS)}
PRUNE_TOL = 1e-14


class FusionError(ValueError):
    pass


@lru_cache(maxsize=1024)
def _subtrees(shape):
    """Internal nodes of a nested-tuple shape in postorder (root last)."""
    out = []

    def walk(node):
        if isinstance(node, tuple):
            walk(node[0])
            walk(node[1])
            out.append(node)

    walk(shape)
    return tuple(out)


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
        return replace(
            self, amps={k: v for k, v in self.amps.items() if abs(v) > PRUNE_TOL}
        )

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
        ("D",) * 4,
        QUTRIT_SHAPE,
        "G",
        {(x, y, "G"): complex(v) for (x, y), v in amps.items()},
    )
    return state.validate().normalized()


def _pair_index(pair) -> int:
    try:
        return _PAIR_INDEX[pair]
    except KeyError:
        raise FusionError(f"{pair!r} not an internal pair of the qutrit space") from None


def qutrit_vector(amps) -> np.ndarray:
    """Normalised pair vector in ALL_PAIRS order from {(x, y): amplitude}."""
    vec = np.zeros(len(ALL_PAIRS), dtype=complex)
    for pair, v in amps.items():
        vec[_pair_index(pair)] = v
    return _normalized(vec)


def _normalized(arr) -> np.ndarray:
    """A pair array over its norm, in the arithmetic of
    ``FusionState.normalized``: the squared moduli summed left to right in
    row-major order, then the real and imaginary parts divided by the norm
    (Python's complex / float; NumPy's complex division multiplies by a
    reciprocal).  Adding 0.0 turns every -0.0 part into +0.0, so an exactly
    zero entry is +0 whatever product made it, and the SVD of
    `factor_halves` sees the same bits for the same amplitudes."""
    n = float(np.sqrt(sum(abs(v) ** 2 for v in arr.ravel().tolist())))
    if n == 0:
        raise FusionError("cannot normalize the zero state")
    return (np.ascontiguousarray(arr, dtype=complex).view(float) / n + 0.0).view(complex)


def _pair_array(arr, shape) -> np.ndarray:
    """A protocol's input as a complex array, refused unless it has the pair
    shape the protocol takes."""
    arr = np.asarray(arr, dtype=complex)
    if arr.shape != shape:
        raise FusionError(f"expected a pair array of shape {shape}, got {arr.shape}")
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

    def swap_node(tree):
        if tree == node:
            return new_node
        if isinstance(tree, int):
            return tree
        return (swap_node(tree[0]), swap_node(tree[1]))

    def unswap_node(tree):
        if tree == new_node:
            return node
        if isinstance(tree, int):
            return tree
        return (unswap_node(tree[0]), unswap_node(tree[1]))

    new_shape = swap_node(state.shape)
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
        carried = {
            n: state.label_of(labeling, unswap_node(n))
            for n in new_nodes
            if n != new_inner
        }
        for lab, coeff in branch:
            if abs(coeff) < PRUNE_TOL:
                continue
            new_lab = tuple(
                lab if n == new_inner else carried[n] for n in new_nodes
            )
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
        target = next(
            (
                node
                for node in current.nodes
                if isinstance(node[1], tuple)
            ),
            None,
        )
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
    """One protocol run.  `state` is the normalised pair array it leaves: a
    9-entry vector in ALL_PAIRS order, or the 9 x 9 merged pair matrix of
    `merge_qutrits` and `split_qutrit` (a timed-out split returns its input
    as it came)."""

    tag: str
    transcript: tuple
    state: np.ndarray
    rounds: int
    timed_out: bool = False


_VECTOR = (len(ALL_PAIRS),)
_MATRIX = (len(ALL_PAIRS), len(ALL_PAIRS))
_OUTSIDE_U = np.array([pair not in U_PAIRS for pair in ALL_PAIRS])


def _sample(rng, labels, weights):
    return labels[sampling.draw(sampling.law(weights), rng)]


def _branch(rng, labels, table, vec):
    """Draw one outcome of a diagonal Kraus table by the Born rule, one
    `sampling.draw` from the law of its branches' squared norms; returns
    (label, unnormalised post-measurement vector)."""
    branches = table * vec
    w = _sample(rng, labels, (np.abs(branches) ** 2).sum(axis=1))
    return w, branches[labels.index(w)]


def measure_MA(vec, rng, max_rounds: int = 64) -> ProtocolOutcome:
    """Interferometric measurement {Pi_A, Pi_A'} on the computational qutrit.

    A D-pair probes the left internal label x; the pair's fusion outcome w
    projects x = w.  On w = G the probe is fused back into the tree (outcome
    D returns directly, outcome E flips the sign of |GG> relative to |GA> via
    a B-pair correction) and rounds continue until the E-count is even.

    Every round multiplies the pair vector by a constant table of
    ``category.qutrit_tables()`` (``ma`` and ``e_correction``).
    """
    tables = qutrit_tables()
    vec = _pair_array(vec, _VECTOR)
    if vec[_OUTSIDE_U].any():
        raise FusionError("measure_MA requires support on the computational subspace")
    w, vec = _branch(rng, MA_OUTCOMES, tables.ma, vec)
    transcript = [("interfere", w)]
    if w == "A":
        return ProtocolOutcome("A", tuple(transcript), _normalized(vec), 1)
    i_g = tables.ma[MA_OUTCOMES.index("G")]
    # fuse the w = G probe with the leftmost D and correct E outcomes
    e_parity = 0
    rounds = 1
    while rounds < max_rounds:
        fuse = _sample(rng, FUSE_OUTCOMES, tables.fuse)
        transcript.append(("fuse", fuse))
        if fuse == "E":
            vec = vec * tables.e_correction
            e_parity ^= 1
        if e_parity == 0:
            return ProtocolOutcome("Aprime", tuple(transcript), _normalized(vec), rounds)
        # another interferometry round: support is x = G, outcome certain
        vec = vec * i_g
        transcript.append(("interfere", "G"))
        rounds += 1
    return ProtocolOutcome(
        "Aprime", tuple(transcript), _normalized(vec), rounds, timed_out=True
    )


def measure_MU(vec, rng, max_rounds: int = 64) -> ProtocolOutcome:
    """Iterated intermediate measurement realizing {Pi_U, Pi_Uperp}.

    Each round an H-pair probes the internal pair (x, y); outcome w = A
    multiplies U-perp amplitudes by -1/2, outcome w = B kills U and gives the
    two U-perp sectors opposite imaginary amplitudes.  All-A transcripts
    converge to Pi_U; after a first B the rounds continue until a second B
    restores intra-U-perp coherence.

    Every round multiplies the pair vector by one row of the constant table
    ``category.qutrit_tables().mu`` and drops entries below ``PRUNE_TOL``.
    """
    table = qutrit_tables().mu
    vec = _pair_array(vec, _VECTOR)
    transcript = []
    b_count = 0
    for rounds in range(1, max_rounds + 1):
        w, vec = _branch(rng, MU_OUTCOMES, table, vec)
        transcript.append(w)
        vec[np.abs(vec) <= PRUNE_TOL] = 0
        if w == "B":
            b_count += 1
            if b_count == 2:
                return ProtocolOutcome("Uperp", tuple(transcript), _normalized(vec), rounds)
        if b_count == 0 and rounds == max_rounds:
            return ProtocolOutcome("U", tuple(transcript), _normalized(vec), rounds)
    return ProtocolOutcome(
        "Uperp", tuple(transcript), _normalized(vec), max_rounds, timed_out=True
    )


# ---------------------------------------------------------------------------
# Merge and split of logical qutrits


TWO_QUTRIT_SHAPE = (((0, 1), (2, 3)), ((4, 5), (6, 7)))


def merge_qutrits(vec_l, vec_r, rng) -> ProtocolOutcome:
    """Fuse the G roots of two logical qutrits into a single G root.

    Subroutine 1 fuses the roots (outcomes A: 1/4, B: 1/4, G: 1/2).  On A/B,
    subroutine 2 splits the Abelian outcome back into two G, probes the left
    one with a D-pair (X in {A, G}), and fuses the residual pair(s) down to a
    single G; the internal labels of both qutrits are untouched throughout,
    and the merged pair matrix is the outer product of the two pair vectors
    times the branch's constant phase from ``category.qutrit_tables().merge``.
    """
    tables = qutrit_tables()
    vec_l, vec_r = _pair_array(vec_l, _VECTOR), _pair_array(vec_r, _VECTOR)
    transcript = []
    phase = 1.0 + 0j
    outcome = _sample(rng, ROOT_OUTCOMES, tables.root_fusion)
    transcript.append(("root-fusion", outcome))
    if outcome != "G":
        # split A/B into two G, then D-pair interferometry on the left G
        branch = tables.merge[outcome]
        X = _sample(rng, MA_OUTCOMES, branch.weights)
        transcript.append(("interferometer", X))
        if X == "A":
            if abs(abs(branch.pair_phase) - 1) > 1e-12:
                raise FusionError("residual G-pair fusion is not deterministic")
            phase = branch.pair_phase
            transcript.append(("pair-fusion", "G"))
        else:
            phase = branch.probe_phase
            # fuse the left two G: Abelian outcome A or B, then Abelian x G -> G
            ab = _sample(rng, ["A", "B"], [0.5, 0.5])
            transcript.append(("left-fusion", ab))
            transcript.append(("abelian-fusion", "G"))
    merged = np.outer(phase * vec_l, vec_r)
    return ProtocolOutcome("merged", tuple(transcript), _normalized(merged), 1)


def split_qutrit(mat, rng, max_rounds: int = 64) -> ProtocolOutcome:
    """Split the G root of a merged two-qutrit pair matrix back into two G
    roots.

    Each round applies a shortest-G-ribbon + measurement attempt that
    succeeds (fusion outcome G) with probability 1/2; the exposed internal
    label is A or B with equal amplitude, and the B branch is recorded but
    harmless.  The split leaves the internal labels untouched, so the joint
    amplitudes come back as the product state of the two halves (left,
    right) in the same pair matrix.
    """
    mat = _pair_array(mat, _MATRIX)
    p_succ = qutrit_tables().root_fusion[ROOT_OUTCOMES.index("G")]
    transcript = []
    for rounds in range(1, max_rounds + 1):
        outcome = _sample(rng, ["G", "AB"], [p_succ, 1 - p_succ])
        transcript.append(("split-attempt", outcome))
        if outcome == "G":
            internal = _sample(rng, ["A", "B"], [0.5, 0.5])
            transcript.append(("internal", internal))
            return ProtocolOutcome(
                f"split-{internal}", tuple(transcript), _normalized(mat), rounds
            )
    return ProtocolOutcome("timeout", tuple(transcript), mat, max_rounds, timed_out=True)


def factor_halves(mat):
    """Factor a product two-qutrit pair matrix into its normalised
    single-qutrit pair vectors (left, right)."""
    u, s, vh = np.linalg.svd(_pair_array(mat, _MATRIX))
    if len(s) > 1 and s[1] > 1e-9:
        raise FusionError("state is entangled across the two qutrits")
    scale = np.sqrt(s[0])
    return tuple(
        _normalized(np.where(np.abs(vec) > PRUNE_TOL, vec * scale, 0))
        for vec in (u[:, 0], vh[0])
    )
