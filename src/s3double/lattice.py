"""Exact sparse simulator of the S3 quantum double on a directed open square
lattice.

Geometry: vertices (x, y) with x in 0..W, y in 0..H (y grows downward);
horizontal edges point rightward, vertical edges point downward.  A plaquette
is labelled by its northwest vertex, and a site s = (v, p) pairs a plaquette
with its northwest vertex; sites are indexed (x, y) with 0 <= x < W,
0 <= y < H.

States are sparse maps from edge configurations (one group element per edge)
to complex amplitudes.  In addition, a state carries a set of "uniform"
vertices: the physical state is the normalized image of the stored terms
under the product of vertex projectors A_v over that set.  Stored terms are
kept in a canonical gauge (the spanning-tree edge into each uniform vertex is
fixed to the identity), which makes the orbit basis orthonormal and keeps
protocol states tiny: the ground state is a single term.  Operators that do
not commute with A_v at some uniform vertex require de-uniformizing that
vertex first (term count x6 per vertex).

Key format: a state stores one int8 row of group indices per term, one
column per edge (`LatticeState.digits`), and operators write columns.  The
`digits` module packs rows into keys (base 6, edge 0 least significant, at
most 24 digits per int64) for every merge, overlap and dense index.
ribbon_operator_matrices tags each basis column in radix-6 columns after the
last edge, which no lattice operation touches.

Operator conventions: L^g_+|m> = |gm>, L^g_-|m> = |m gbar>, T^h_+ = delta_{h,m},
T^h_- = delta_{hbar,m}.  A^g_v acts with L^g_+ on edges starting at v and
L^g_- on edges ending at v.  B^h_p projects the counterclockwise flux
g1 g2 g3bar g4bar (left, bottom, right, top edges of p) onto h.  Ribbon
operators F^{h,g} act on triangle sequences: direct triangles read a group
element with T, dual triangles multiply with L conjugated by the prefix of
elements read so far.  The anyon ribbons F^{R,C;u,v} and the single-site
charge projectors K^{R,C}_s are fixed linear combinations of these, F^{R,C;u,v}
= sum_g coeffs[g] F^{h,g} and K^a_s = (d_a/|G|) sum_{h,g} conj chi_a(h, g)
A^g_v B^h_p, with coefficients read from algebra's tables (ribbon_terms,
CHARACTERS); this module does no representation theory of its own.  Every
(u, v) Kraus branch of a mixed anyon ribbon comes from anyon_ribbon_branches,
with one triangle walk and one merge over the terms stacked once per flux
h = c.  The K^a of one flux class come from one A^g_v orbit and one merge
(_charge_projections).  Both measurements are a BranchLaw: anyon_ribbon_law
keeps the (u, v) branches and charge_law the K^a of the flux classes present
at a site, each with the cumulative law of their squared norms, and every
outcome is one `sampling` draw from it.  While a law_table() is open (the CLI
opens one per command), both laws are kept in it, keyed by the exact bytes of
their input state, so a state that recurs trial after trial is walked once and
only drawn from after that.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial, wraps
from itertools import groupby

import numpy as np

from . import digits as dg
from . import sampling
from .algebra import (
    ANYON_TABLE,
    ANYONS,
    CHARACTERS,
    E,
    GroupElement,
    INV_TABLE,
    MUL_TABLE,
    ORDER,
    QUANTUM_DIMS,
    ribbon_terms,
)
from .digits import ResourceError

PRUNE_TOL = 1e-14
MAX_VERTICES = 10


class AnnihilationError(RuntimeError):
    """Every branch of a measurement law (BranchLaw) has zero norm."""


# ---------------------------------------------------------------------------
# Geometry


@dataclass(frozen=True)
class Lattice:
    """Directed open square lattice of W x H plaquettes."""

    W: int
    H: int

    def __post_init__(self):
        if self.W < 1 or self.H < 1:
            raise ValueError("lattice must have at least one plaquette")

    @property
    def vertices(self):
        return [(x, y) for y in range(self.H + 1) for x in range(self.W + 1)]

    @property
    def n_vertices(self) -> int:
        return (self.W + 1) * (self.H + 1)

    @property
    def sites(self):
        return [(x, y) for y in range(self.H) for x in range(self.W)]

    def h_edge(self, x: int, y: int) -> int:
        """Index of the edge (x, y) -> (x+1, y)."""
        if not (0 <= x < self.W and 0 <= y <= self.H):
            raise ValueError(f"no horizontal edge at {(x, y)}")
        return y * self.W + x

    def v_edge(self, x: int, y: int) -> int:
        """Index of the edge (x, y) -> (x, y+1)."""
        if not (0 <= x <= self.W and 0 <= y < self.H):
            raise ValueError(f"no vertical edge at {(x, y)}")
        return self.W * (self.H + 1) + y * (self.W + 1) + x

    @property
    def n_edges(self) -> int:
        return self.W * (self.H + 1) + self.H * (self.W + 1)

    def is_horizontal(self, edge: int) -> bool:
        return edge < self.W * (self.H + 1)

    def edge_endpoints(self, edge: int):
        """((x, y), (x', y')) start and end vertices of an edge index."""
        if not 0 <= edge < self.n_edges:
            raise ValueError(f"no edge {edge}")
        if self.is_horizontal(edge):
            y, x = divmod(edge, self.W)
            return (x, y), (x + 1, y)
        y, x = divmod(edge - self.W * (self.H + 1), self.W + 1)
        return (x, y), (x, y + 1)

    def star(self, v):
        """(edge, starts_here) pairs incident to vertex v."""
        x, y = v
        out = []
        if x < self.W:
            out.append((self.h_edge(x, y), True))
        if x > 0:
            out.append((self.h_edge(x - 1, y), False))
        if y < self.H:
            out.append((self.v_edge(x, y), True))
        if y > 0:
            out.append((self.v_edge(x, y - 1), False))
        return out

    def plaquette_edges(self, p):
        """(left, bottom, right, top) edge indices of plaquette p."""
        x, y = p
        return (
            self.v_edge(x, y),
            self.h_edge(x, y + 1),
            self.v_edge(x + 1, y),
            self.h_edge(x, y),
        )

    # spanning tree rooted at (0, 0): row 0 leftward, then columns upward
    def tree_parent_edge(self, v) -> int:
        x, y = v
        if v == (0, 0):
            raise ValueError("root has no parent edge")
        if y > 0:
            return self.v_edge(x, y - 1)  # ends at v
        return self.h_edge(x - 1, 0)  # ends at v

    def tree_order(self):
        """All non-root vertices, parents before children."""
        return [v for v in sorted(self.vertices, key=lambda v: (v[1], v[0])) if v != (0, 0)]


# ---------------------------------------------------------------------------
# Sparse state


@dataclass
class LatticeState:
    lattice: Lattice
    digits: np.ndarray  # int8 (term, edge) group indices, then any tag columns
    amps: np.ndarray  # complex128
    uniform: frozenset = field(default_factory=frozenset)  # vertices

    @property
    def n_terms(self) -> int:
        return len(self.amps)

    @property
    def keys(self) -> np.ndarray:
        """int64 key of each term: its index into the dense 6^n_edges vector."""
        return dg.pack(self.digits, (ORDER,) * self.digits.shape[1])

    def norm(self) -> float:
        # the bits of float(np.sqrt(np.sum(...))), without np.sum's per-call cost
        return math.sqrt(np.add.reduce(np.abs(self.amps) ** 2))

    def normalized(self) -> "LatticeState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return replace(self, amps=self.amps / n)


def _states(lattice, digits, amps, uniform) -> list:
    """One state per column of the (term, column) amps: equal rows of
    `digits` added, amplitudes of modulus <= PRUNE_TOL dropped."""
    merged = dg.merged(digits, (ORDER,) * digits.shape[1], amps, PRUNE_TOL)
    return [LatticeState(lattice, d, a, uniform) for d, a in merged]


def _mult(digits, edge, g, left):
    """L^g_+ (left) or L^g_- on `edge`, in place, with a per-term group
    element array (or scalar index)."""
    old = digits[:, edge]
    digits[:, edge] = MUL_TABLE[g, old] if left else MUL_TABLE[old, INV_TABLE[g]]


@lru_cache(maxsize=None)
def _star_cache(lattice):
    return {v: tuple(lattice.star(v)) for v in lattice.vertices}


@lru_cache(maxsize=None)
def _tree_cache(lattice):
    return tuple((v, lattice.tree_parent_edge(v)) for v in lattice.tree_order())


def _gauge_at_vertex(lattice, digits, v, g_arr):
    """A^g_v in place on `digits`, g_arr per term (not a view of `digits`)."""
    for edge, starts in _star_cache(lattice)[v]:
        _mult(digits, edge, g_arr, starts)


def _gauge_orbit(lattice, digits, v):
    """A^g_v of every row for every g, g-major: row g * len(digits) + i is
    A^g_v of digits[i]."""
    orbit = np.tile(digits, (ORDER, 1))
    _gauge_at_vertex(lattice, orbit, v, np.repeat(np.arange(ORDER), len(digits)))
    return orbit


def canonicalize_keys(lattice, digits, uniform):
    """Rows of `digits` with each uniform vertex's tree edge gauge-fixed to
    the identity; the input itself when no row moves, a new matrix
    otherwise."""
    out = digits
    for v, t in _tree_cache(lattice):
        if v in uniform and out[:, t].any():
            if out is digits:
                out = digits.copy()
            # tree edge ends at v; A^m_v sets it to e
            _gauge_at_vertex(lattice, out, v, out[:, t].copy())
    return out


# ---------------------------------------------------------------------------
# Elementary operators


def apply_vertex(state: LatticeState, v, g: GroupElement) -> LatticeState:
    """A^g_v.  Requires v not uniform (it acts trivially there otherwise)."""
    if v in state.uniform:
        return state
    digits = state.digits.copy()
    _gauge_at_vertex(state.lattice, digits, v, g.index)
    digits = canonicalize_keys(state.lattice, digits, state.uniform)
    return _states(state.lattice, digits, state.amps[:, None], state.uniform)[0]


def _flux(state: LatticeState, p) -> np.ndarray:
    """Counterclockwise flux of plaquette p in every stored term."""
    le, be, re, te = (state.digits[:, e] for e in state.lattice.plaquette_edges(p))
    return MUL_TABLE[MUL_TABLE[MUL_TABLE[le, be], INV_TABLE[re]], INV_TABLE[te]]


def apply_plaquette(state: LatticeState, p, h: GroupElement) -> LatticeState:
    """Projector B^h_p.

    The flux is based at the plaquette's northwest vertex; for non-central h
    the projector does not commute with gauge averaging there, so that vertex
    is expanded first if needed.
    """
    if h.index != 0 and p in state.uniform:
        state = deuniformize(state, p)
    mask = _flux(state, p) == h.index
    return LatticeState(state.lattice, state.digits[mask], state.amps[mask], state.uniform)


def apply_edge_monomial(state: LatticeState, edge: int, elements, phases) -> LatticeState:
    """Single-edge monomial |g> -> phases[g] |elements[g]>, with g, elements[g]
    group indices and both tables indexed by g.  The edge's endpoints are
    made explicit first, since such an operator need not commute with A_v
    there."""
    state = _deuniformized(state, state.lattice.edge_endpoints(edge))
    old = state.digits[:, edge]
    digits = state.digits.copy()
    digits[:, edge] = elements[old]
    digits = canonicalize_keys(state.lattice, digits, state.uniform)
    return _states(state.lattice, digits, (state.amps * phases[old])[:, None], state.uniform)[0]


def uniformize(state: LatticeState, v) -> LatticeState:
    """Apply the projector A_v and absorb v into the uniform set.

    Norm is preserved only if the state is already A_v-invariant.
    """
    if v in state.uniform:
        return state
    if v == (0, 0):
        # the spanning-tree root carries no tree edge, so its gauge orbit
        # cannot be canonicalized; the orbit basis stays well-defined only
        # while the root is explicit
        raise ValueError("the tree root vertex cannot join the uniform set")
    uniform = state.uniform | {v}
    digits = canonicalize_keys(state.lattice, state.digits, uniform)
    return _states(state.lattice, digits, (state.amps / np.sqrt(ORDER))[:, None], uniform)[0]


def _gauge_average(state: LatticeState, v, uniform, divisor) -> LatticeState:
    """sum_g A^g_v / divisor applied to the stored terms, canonicalized for
    the given uniform set."""
    digits = canonicalize_keys(state.lattice, _gauge_orbit(state.lattice, state.digits, v), uniform)
    return _states(state.lattice, digits, np.tile(state.amps / divisor, ORDER)[:, None], uniform)[0]


def deuniformize(state: LatticeState, v) -> LatticeState:
    """Exactly rewrite the state with v removed from the uniform set."""
    if v not in state.uniform:
        return state
    return _gauge_average(state, v, state.uniform - {v}, np.sqrt(ORDER))


def _deuniformized(state: LatticeState, vertices) -> LatticeState:
    """The state rewritten with none of the given vertices uniform."""
    for v in vertices:
        if v in state.uniform:
            state = deuniformize(state, v)
    return state


def expanded(state: LatticeState) -> LatticeState:
    """Fully expand all uniform vertices (term count x 6 per vertex)."""
    return _deuniformized(state, sorted(state.uniform))


def inner(a: LatticeState, b: LatticeState) -> complex:
    """<a|b> for states sharing the same uniform set (orbit basis is
    orthonormal)."""
    if a.uniform != b.uniform:
        raise ValueError("states must share the same uniform set")
    return dg.overlap(a.digits, a.amps, b.digits, b.amps, (ORDER,) * a.digits.shape[1])


def vertex_projector(state: LatticeState, v) -> LatticeState:
    """A_v without uniform-set bookkeeping (image may be unnormalized)."""
    if v in state.uniform:
        return state
    return _gauge_average(state, v, state.uniform, ORDER)


def stabilizer_expectations(state: LatticeState):
    """{('A', v): <A_v>} and {('B', p): <B_p>} for a normalized state."""
    out = {}
    for v in state.lattice.vertices:
        if v in state.uniform:
            out["A", v] = 1.0 + 0.0j
        else:
            out["A", v] = inner(state, vertex_projector(state, v))
    for p in state.lattice.sites:
        out["B", p] = inner(state, apply_plaquette(state, p, E))
    return out


# ---------------------------------------------------------------------------
# Ground state


def ground_state(lattice: Lattice) -> LatticeState:
    """Normalized product of all A_v projectors on the all-identity state."""
    if lattice.n_vertices > MAX_VERTICES:
        # the refused state would be one term: every vertex but the root uniform
        raise ResourceError(
            f"{lattice.W}x{lattice.H} lattice has {lattice.n_vertices} vertices, "
            f"over the desk-scale bound of {MAX_VERTICES}",
            1,
        )
    identity = np.zeros((1, lattice.n_edges), dtype=np.int8)
    state = LatticeState(lattice, identity, np.ones(1, dtype=complex), frozenset())
    for v in lattice.vertices:
        if v != (0, 0):
            state = uniformize(state, v)
    # the all-identity configuration is invariant under the residual global
    # right multiplication, so A_(0,0) already acts trivially
    return state.normalized()


# ---------------------------------------------------------------------------
# Ribbons


@dataclass(frozen=True)
class Triangle:
    kind: str  # "direct" | "dual"
    edge: int
    positive: bool  # sign of the T (direct) or L (dual) operator


@dataclass(frozen=True)
class Ribbon:
    """Triangle sequence from site s0 to site s1."""

    triangles: tuple
    s0: tuple
    s1: tuple

    def __add__(self, other: "Ribbon") -> "Ribbon":
        if self.s1 != other.s0:
            raise ValueError("ribbons do not share an intermediate site")
        return Ribbon(self.triangles + other.triangles, self.s0, other.s1)


def shortest_h(lattice: Lattice, site) -> Ribbon:
    """rho_h from site (x, y) to site (x+1, y)."""
    x, y = site
    return Ribbon(
        (
            Triangle("direct", lattice.h_edge(x, y), True),
            Triangle("dual", lattice.v_edge(x + 1, y), True),
        ),
        (x, y),
        (x + 1, y),
    )


def shortest_v(lattice: Lattice, site) -> Ribbon:
    """rho_v from site (x, y) to site (x, y-1)."""
    x, y = site
    return Ribbon(
        (
            Triangle("dual", lattice.h_edge(x, y), True),
            Triangle("direct", lattice.v_edge(x, y - 1), False),
        ),
        (x, y),
        (x, y - 1),
    )


def _ribbon_sum(state: LatticeState, ribbon: Ribbon, fluxes, table) -> list:
    """[sum_{b,g} table[b, g, r] F^{fluxes[b],g}_rho for each row r] from
    one triangle walk.  The terms are stacked once per flux block b,
    block-major like _gauge_orbit; each copy moves by its block's h alone,
    and the product of the elements read picks its g.  A row is zero outside
    its own block (those exact zeros leave its sums unchanged), so all rows
    share one canonicalization and one merge."""
    # a site is labelled by its northwest vertex, so F^{h,g} fails to commute
    # with A_v exactly at the vertices of its two end sites
    state = _deuniformized(state, (ribbon.s0, ribbon.s1))
    block = np.repeat(np.arange(len(fluxes)), state.n_terms)
    h = np.asarray(fluxes)[block]
    digits = np.tile(state.digits, (len(fluxes), 1))
    prefix = np.zeros(len(block), dtype=np.int64)  # product of elements read
    for tri in ribbon.triangles:
        if tri.kind == "direct":
            d = digits[:, tri.edge]
            read = d if tri.positive else INV_TABLE[d]
            prefix = MUL_TABLE[prefix, read]
        else:
            conj = MUL_TABLE[MUL_TABLE[INV_TABLE[prefix], h], prefix]
            _mult(digits, tri.edge, conj, tri.positive)
    digits = canonicalize_keys(state.lattice, digits, state.uniform)
    coeffs = table[block, prefix]  # (term, row)
    # amplitudes stay the left operand: a * c and c * a can round differently
    amps = np.tile(state.amps, len(fluxes))[:, None] * coeffs
    return _states(state.lattice, digits, amps, state.uniform)


def apply_ribbon(
    state: LatticeState, ribbon: Ribbon, h: GroupElement, g: GroupElement
) -> LatticeState:
    """F^{h,g}_rho: monomial action by triangle recursion."""
    return _ribbon_sum(state, ribbon, [h.index], np.eye(ORDER)[None, :, g.index, None])[0]


def anyon_ribbon_branch(
    state: LatticeState, ribbon: Ribbon, anyon: str, u, v
) -> LatticeState:
    """F^{R,C;u,v}_rho (unnormalized image)."""
    h, coeffs = ribbon_terms(anyon, u, v)
    return _ribbon_sum(state, ribbon, [h.index], coeffs[None, :, None])[0]


@lru_cache(maxsize=None)
def _branch_table(anyon: str):
    """(fluxes, table) of every F^{R,C;u,v}, u outer and v inner in the
    anyon's basis order: one flux block per h = c, and table[b, g, row] the
    row's coefficient of F^{h,g} in its own block b, zero in the others."""
    basis = ANYON_TABLE[anyon].basis
    fluxes = [h.index for h, _ in groupby(u[0] for u in basis)]
    table = np.zeros((len(fluxes), ORDER, len(basis) ** 2), dtype=complex)
    for row, (u, v) in enumerate((u, v) for u in basis for v in basis):
        h, coeffs = ribbon_terms(anyon, u, v)
        table[fluxes.index(h.index), :, row] = coeffs
    table.setflags(write=False)
    return tuple(fluxes), table


def anyon_ribbon_branches(state: LatticeState, ribbon: Ribbon, anyon: str) -> list:
    """F^{R,C;u,v}_rho (unnormalized images) for every (u, v), u outer and v
    inner in the anyon's basis order, from one triangle walk over the terms
    stacked once per flux h = c."""
    return _ribbon_sum(state, ribbon, *_branch_table(anyon))


@dataclass(frozen=True, eq=False)
class BranchLaw:
    """One measurement on one state: the labels whose unnormalized branches
    survive the PRUNE_TOL cut, the branches, their norms, and cdf, the
    `sampling.law` of their squared norms.  A draw returns the branch
    normalized and, if set, passed through finish(label, state); each such
    post-state is built once, the first time it is drawn.  Every array is
    read-only, as a law kept in the law table serves every later lookup."""

    labels: tuple
    branches: tuple
    norms: tuple
    cdf: np.ndarray
    finish: object = None
    _posts: dict = field(default_factory=dict, init=False, repr=False)

    def draw(self, rng) -> tuple:
        """(label, post-state) of one `sampling.draw` from cdf."""
        i = sampling.draw(self.cdf, rng)
        if i not in self._posts:
            b = self.branches[i]
            post = replace(b, amps=b.amps / self.norms[i])
            if self.finish is not None:
                post = self.finish(self.labels[i], post)
            post.digits.setflags(write=False)
            post.amps.setflags(write=False)
            self._posts[i] = post
        return self.labels[i], self._posts[i]


def _branch_law(outcomes, message: str, finish=None) -> BranchLaw:
    """BranchLaw of (label, branch) pairs; AnnihilationError(message) if none survives."""
    kept = [(label, b, n) for label, b in outcomes if (n := b.norm()) ** 2 > PRUNE_TOL]
    if not kept:
        raise AnnihilationError(message)
    labels, branches, norms = zip(*kept)
    for b in branches:
        b.digits.setflags(write=False)
        b.amps.setflags(write=False)
    return BranchLaw(labels, branches, norms, sampling.law([n ** 2 for n in norms]), finish)


# ---------------------------------------------------------------------------
# Law table

# Largest state whose laws the table keeps.  An entry holds its input's bytes
# in the key and branches of about as many terms again, 26 bytes a term each
# on the 3x1 strip.  The states that recur trial after trial (move-stats,
# ribbon-demo) hold at most tens of terms, while noisy microscopic QEC states
# (31,104 terms and more on the 3x1 strip at p = 0.1) would pin megabytes
# each and rarely recur.
TABLE_MAX_TERMS = 4096


@dataclass
class LawTable:
    """What the `tabled` builders built while one law_table() was open, keyed
    by the exact input, and three counts: lookups answered from the table
    (hits), values built into it (misses), and lookups on a state above
    TABLE_MAX_TERMS, built without being stored (skipped)."""

    values: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    skipped: int = 0


_TABLE = None  # the open LawTable, or None


@contextmanager
def law_table():
    """Open a fresh LawTable for the block, and restore the one open before
    it on the way out, exception or not.  The CLI opens one per command."""
    global _TABLE
    outer = _TABLE
    _TABLE = table = LawTable()
    try:
        yield table
    finally:
        _TABLE = outer


def tabled(build):
    """build(state, *args), kept in the open law table, if there is one.

    The key is exact: the builder, the lattice, the digit matrix's shape and
    bytes, the amplitude bytes, the uniform set and args.  Amplitudes are
    never rounded, so a hit returns what a build on that input returns, and
    seeded output does not depend on the table.  What build returns is
    shared by every later hit, so its arrays must be read-only.
    """

    @wraps(build)
    def lookup(state: LatticeState, *args):
        table = _TABLE
        if table is None:
            return build(state, *args)
        if state.n_terms > TABLE_MAX_TERMS:
            table.skipped += 1
            return build(state, *args)
        digits = state.digits
        key = (build, state.lattice, digits.shape, digits.tobytes(), state.amps.tobytes(),
               state.uniform, args)
        value = table.values.get(key)
        if value is None:
            value = table.values[key] = build(state, *args)
            table.misses += 1
        else:
            table.hits += 1
        return value

    return lookup


@tabled
def anyon_ribbon_law(state: LatticeState, ribbon: Ribbon, anyon: str) -> BranchLaw:
    """The law of the mixed application of the anyon's ribbon to `state`
    (trajectory unraveling of the maximally-mixed-internal-state channel),
    labelled by (u, v) and built from anyon_ribbon_branches' one walk."""
    basis = ANYON_TABLE[anyon].basis
    rows = [(u, v) for u in basis for v in basis]
    outcomes = zip(rows, anyon_ribbon_branches(state, ribbon, anyon))
    return _branch_law(outcomes, f"all (u, v) branches of {anyon} have zero norm")


def apply_anyon_ribbon(state: LatticeState, ribbon: Ribbon, anyon: str, rng) -> LatticeState:
    """Mixed anyon-pair ribbon: a Kraus branch (u, v) sampled with probability
    proportional to its squared norm, by one draw from anyon_ribbon_law (kept
    in the open law table, so a ribbon applied to the same state trial after
    trial is walked once); one explicit branch is
    anyon_ribbon_branch(...).normalized(), which draws nothing."""
    return anyon_ribbon_law(state, ribbon, anyon).draw(rng)[1]


# ---------------------------------------------------------------------------
# Charge measurement


def nontrivial(charges: dict) -> dict:
    """The sites of a {site: anyon letter} map whose letter is not the vacuum A."""
    return {s: a for s, a in charges.items() if a != "A"}


# (anyon, fluxes h with chi_a(h, e) != 0) for the anyon of each class whose
# charge is the flux class alone
_FLUX_CLASSES = tuple(
    (a, np.flatnonzero(CHARACTERS[ANYONS.index(a), :, E.index])) for a in "ADF"
)
# flux h -> index of its class in _FLUX_CLASSES
_CLASS_OF_FLUX = np.argmax([np.isin(np.arange(ORDER), f) for _, f in _FLUX_CLASSES], axis=0)


def _charge_table(fluxes):
    """(anyons, h, g, coeffs) of one flux class: its anyons in ANYONS order,
    the (h, g) pairs in (h, g) order at which any of them has chi_a(h, g) != 0,
    and coeffs[pair, anyon] = (d_a/|G|) conj chi_a(h, g)."""
    anyons = "".join(a for a, chars in zip(ANYONS, CHARACTERS) if chars[fluxes].any())
    chars = CHARACTERS[[ANYONS.index(a) for a in anyons]]
    h, g = np.nonzero(chars.any(axis=0))
    scale = np.array([QUANTUM_DIMS[a] for a in anyons]) / ORDER
    return anyons, h, g, scale * np.conj(chars[:, h, g]).T


_CHARGE_TABLES = tuple(_charge_table(fluxes) for _, fluxes in _FLUX_CLASSES)


def _charge_projections(state: LatticeState, site, flux, table) -> list:
    """[(a, K^a_s applied to state)] for the anyons a of a flux class's table,
    from one A^g_v orbit of the (term, g) pairs that their characters reach;
    flux is _flux(state, site) and the site vertex must not be uniform."""
    anyons, hs, gs, coeffs = table
    # (h, g, term) order: keys that collide are summed as a loop over h, then g would
    pair, term = np.nonzero(hs[:, None] == flux)
    digits = state.digits[term]
    _gauge_at_vertex(state.lattice, digits, site, gs[pair])
    digits = canonicalize_keys(state.lattice, digits, state.uniform)
    amps = coeffs[pair]
    # amplitudes stay the left operand: a * c and c * a can round differently
    np.multiply(state.amps[term, None], amps, out=amps)
    return list(zip(anyons, _states(state.lattice, digits, amps, state.uniform)))


def apply_K(state: LatticeState, site, anyon: str) -> LatticeState:
    """Charge projector K^a_s = (d_a/|G|) sum_{h,g} conj chi_a(h, g) A^g_v B^h_p,
    read off the projections of a's flux class."""
    if site in state.uniform:
        state = deuniformize(state, site)
    table = next(t for t in _CHARGE_TABLES if anyon in t[0])
    return dict(_charge_projections(state, site, _flux(state, site), table))[anyon]


def _uniformized_vacuum(site, letter, post) -> LatticeState:
    """The post-state of outcome `letter` at `site`, with the site's vertex
    uniformized after A: lossless, as the A-sector is A_v B_p-invariant (the
    tree-root vertex stays explicit; the projected state is invariant there
    regardless)."""
    if letter == "A" and site not in post.uniform and site != (0, 0):
        return uniformize(post, site)
    return post


@tabled
def charge_law(state: LatticeState, site) -> BranchLaw:
    """The law of M_K at one site over the anyons of the flux classes present
    there, in ANYONS order: at a uniform site (A_v-invariant sector) only the
    pure flux-class anyons occur and K is a flux-class mask, with no
    expansion; at an explicit site each class gives its _charge_projections.
    A draw's A post-state has the site's vertex uniformized."""
    flux = _flux(state, site)
    classes = _CLASS_OF_FLUX[flux]
    present = np.flatnonzero(np.bincount(classes))
    if site in state.uniform:
        masks = [(_FLUX_CLASSES[c][0], classes == c) for c in present]
        outcomes = [
            (a, replace(state, digits=state.digits[m], amps=state.amps[m])) for a, m in masks
        ]
    else:
        tables = [_CHARGE_TABLES[c] for c in present]
        outcomes = [o for t in tables for o in _charge_projections(state, site, flux, t)]
    finish = partial(_uniformized_vacuum, site)
    return _branch_law(outcomes, "charge measurement found no support", finish)


def measure_site(state: LatticeState, site, rng):
    """(letter, post-state) of one draw from the site's charge_law."""
    return charge_law(state, site).draw(rng)


def measure_MK(state: LatticeState, rng):
    """Full anyon-configuration measurement over all sites (they commute):
    ({site: anyon letter}, post-state)."""
    charges = {}
    for site in state.lattice.sites:
        letter, state = measure_site(state, site, rng)
        charges[site] = letter
    return charges, state


# ---------------------------------------------------------------------------
# Dense helpers (small-lattice oracle)


def dense_vector(state: LatticeState) -> np.ndarray:
    """Full state vector; requires <= 7 edges."""
    lat = state.lattice
    if lat.n_edges > 7:
        raise ResourceError("dense vector too large", ORDER ** lat.n_edges)
    full = expanded(state)
    vec = np.zeros(ORDER ** lat.n_edges, dtype=complex)
    vec[full.keys] = full.amps
    return vec


def from_dense(lattice: Lattice, vec: np.ndarray) -> LatticeState:
    keys = np.nonzero(np.abs(vec) > PRUNE_TOL)[0]
    digits = dg.unpack(keys, (ORDER,) * lattice.n_edges)
    return LatticeState(lattice, digits, vec[keys].astype(complex), frozenset())


def ground_space_rank(lattice: Lattice, rng):
    """Rank of the full ground-space projector P = prod_v A_v prod_p B^e_p,
    revealed by applying P to four random vectors and counting the singular
    values above 1e-8 times the largest.

    Requires <= 7 edges.  Returns (rank, singular_values).
    """
    if lattice.n_edges > 7:
        raise ResourceError("dense oracle too large", ORDER ** lattice.n_edges)
    dim = ORDER ** lattice.n_edges
    block = np.zeros((dim, 4), dtype=complex)
    for i in range(4):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        st = from_dense(lattice, vec)
        for p in lattice.sites:
            st = apply_plaquette(st, p, E)
        for v in lattice.vertices:
            st = vertex_projector(st, v)
        block[:, i] = dense_vector(st)
    s = np.linalg.svd(block, compute_uv=False)
    rank = int(np.sum(s > 1e-8 * max(s[0], 1e-300)))
    return rank, s


def ribbon_operator_matrices(lattice: Lattice, support, builder) -> np.ndarray:
    """Dense (6^k, 6^k) matrices, k = len(support), of the states that
    builder(state) returns, restricted to the given support edges.

    Matrix index i is the key of the support edges' digits, support[0]
    least significant.  All 6^k basis columns go through `builder` in one
    state: column i carries its digits in k tag columns after the lattice's
    edges, which no lattice operation touches.  builder must therefore be
    linear and act trivially outside the support; an output term with a
    non-identity element off the support, or output tags that are not the
    k columns, raises ValueError.  Edges and tags together must fit one key
    (ResourceError, raised before any state is built).
    """
    support = list(support)
    n, radices, dim = lattice.n_edges, (ORDER,) * len(support), ORDER ** len(support)
    dg.place_values((ORDER,) * n + radices, dim)
    columns = dg.basis_rows(radices)
    digits = np.zeros((dim, n + len(support)), dtype=np.int8)
    digits[:, support] = digits[:, n:] = columns
    outs = builder(LatticeState(lattice, digits, np.ones(dim, dtype=complex)))
    mats = np.zeros((len(outs), dim, dim), dtype=complex)
    for mat, out in zip(mats, outs):
        rest = out.digits[:, :n].copy()
        rest[:, support] = E.index
        if rest.any():
            raise ValueError("builder acts outside the support edges")
        if out.digits.shape[1] != digits.shape[1]:
            raise ValueError("builder changed a column tag")
        rows = dg.pack(out.digits[:, support], radices)
        mat[rows, dg.pack(out.digits[:, n:], radices)] = out.amps
    return mats


def ribbon_operator_matrix(lattice: Lattice, support, builder) -> np.ndarray:
    """ribbon_operator_matrices for a builder that returns one state."""
    return ribbon_operator_matrices(lattice, support, lambda st: [builder(st)])[0]


# ---------------------------------------------------------------------------
# Orthonormality of shortest ribbon operators


@dataclass(frozen=True)
class OrthonormalityReport:
    max_residual: float
    operators_per_ribbon: int
    pairs_checked: int

    def passes(self) -> bool:
        return self.max_residual < 1e-9 and self.operators_per_ribbon == ORDER ** 2


def _ribbon_matrices(lattice, ribbon, support):
    """(36, 6^2k) array: the flattened F^{R,C;u,v} matrices of every anyon in
    ANYONS order, each in anyon_ribbon_branches order."""
    mats = ribbon_operator_matrices(
        lattice, support, lambda st: [b for a in ANYONS for b in anyon_ribbon_branches(st, ribbon, a)]
    )
    return mats.reshape(len(mats), -1)


def _orthonormality_residual(lattice, r1, r2) -> tuple:
    """(max |Tr(F1^dagger F2) / Tr(1) - expected| over all label pairs of the
    ribbons r1 and r2, from one Gram product of the flattened operators; the
    operators built per ribbon).  A ribbon that does not yield |G|^2
    operators has no expected table and gives an infinite residual."""
    support = sorted({t.edge for t in r1.triangles} | {t.edge for t in r2.triangles})
    mats1 = _ribbon_matrices(lattice, r1, support)
    mats2 = mats1 if r1 is r2 else _ribbon_matrices(lattice, r2, support)
    built = len(mats1) if len(mats1) != ORDER ** 2 else len(mats2)
    if built != ORDER ** 2:
        return float("inf"), built
    gram = mats1.conj() @ mats2.T / ORDER ** len(support)
    if r1 is r2:
        # d_a/|G|^2 on the diagonal, for the d_a^2 branches of each anyon a
        dims = np.array([QUANTUM_DIMS[a] for a in ANYONS])
        expect = np.diag(np.repeat(dims, dims ** 2) / ORDER ** 2)
    else:
        # only the two A operators overlap: both are 1/|G| times the identity
        expect = np.zeros(gram.shape)
        expect[0, 0] = 1 / ORDER ** 2
    return float(np.max(np.abs(gram - expect))), built


def verify_orthonormality() -> OrthonormalityReport:
    """Check, on the 2x2 lattice, the trace orthogonality of shortest-ribbon
    operators:

        Tr(F1^dagger F2) / Tr(1) = delta_{rho1,rho2} delta_{labels}
                                   * |R| / (|Z(C)| |G|)

    over same-ribbon pairs and the two possible overlap patterns of a
    horizontal and a vertical shortest ribbon: pattern I shares the
    horizontal ribbon's direct edge with the vertical ribbon's dual edge;
    pattern II shares the horizontal ribbon's dual edge with the vertical
    ribbon's direct edge.
    """
    lattice = Lattice(2, 2)
    rh1 = shortest_h(lattice, (0, 1))
    rv1 = shortest_v(lattice, (0, 1))  # pattern I partner: shares h_edge(0, 1)
    rh2 = shortest_h(lattice, (0, 0))
    rv2 = shortest_v(lattice, (1, 1))  # pattern II partner: shares v_edge(1, 0)
    cases = [(rh1, rh1), (rv1, rv1), (rh1, rv1), (rh2, rv2)]
    results = [_orthonormality_residual(lattice, r1, r2) for r1, r2 in cases]
    # report a miscount if any ribbon has one
    built = max((n for _, n in results), key=lambda n: n != ORDER ** 2)
    worst = max(res for res, _ in results)
    checked = sum(n ** 2 for res, n in results if res < np.inf)
    return OrthonormalityReport(worst, built, checked)
