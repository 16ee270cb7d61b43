"""Exact sparse simulator of the S3 quantum double on a directed open square
lattice.

Geometry: vertices (x, y) with x in 0..W, y in 0..H (y grows downward);
horizontal edges point rightward, vertical edges point downward.  A plaquette
is labelled by its northwest vertex, and a site s = (v, p) pairs a plaquette
with its northwest vertex; sites are indexed (x, y) with 0 <= x < W,
0 <= y < H.

States are sparse maps from edge configurations (one group element per edge,
packed base-6 into an int64 key) to complex amplitudes.  In addition, a
state carries a set of "uniform" vertices: the physical state is the
normalized image of the stored terms under the product of vertex projectors
A_v over that set.  Stored terms are kept in a canonical gauge (the
spanning-tree edge into each uniform vertex is fixed to the identity), which
makes the orbit basis orthonormal and keeps protocol states tiny: the ground
state is a single term.  Operators that do not commute with A_v at some
uniform vertex require de-uniformizing that vertex first (term count x6 per
vertex).

Key format: only _identity_keys (makes keys), _digit (reads one edge's group
index) and _set_digit (writes it) know how a configuration is packed.  Three
other places rely on it.  In the dense oracle (dense_vector, from_dense) a
key is its own index into the 6^n_edges vector; circuits.group_to_pair_perm
reads those indices' digits through _digit.  ribbon_operator_matrices
tags each basis column in the base-6 digits above the last edge
(_tagged_identity_keys, _untagged); no lattice operation reads or writes
those digits, so tagged columns evolve independently through one call.  An
int64 key holds KEY_DIGITS base-6 digits in all.

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
with one triangle walk per flux h = c.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import groupby

import numpy as np

from .algebra import (
    ANYON_TABLE,
    ANYONS,
    CHARACTERS,
    E,
    ELEMENTS,
    GroupElement,
    INV_TABLE,
    MUL_TABLE,
    ORDER,
    QUANTUM_DIMS,
    ribbon_terms,
)

PRUNE_TOL = 1e-14
MAX_VERTICES = 10
KEY_DIGITS = 24  # base-6 digits of an int64 key: 6^24 < 2^63 < 6^25


class ResourceError(RuntimeError):
    """Lattice too large for exact simulation."""

    def __init__(self, message: str, estimated_terms: int):
        super().__init__(f"{message} (estimated term count {estimated_terms})")
        self.estimated_terms = estimated_terms


class AnnihilationError(RuntimeError):
    """Every Kraus branch of a mixed ribbon application has zero norm."""


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
    keys: np.ndarray  # int64, packed base-6 edge configuration
    amps: np.ndarray  # complex128
    uniform: frozenset = field(default_factory=frozenset)  # vertices

    def copy(self) -> "LatticeState":
        return LatticeState(self.lattice, self.keys.copy(), self.amps.copy(), self.uniform)

    @property
    def n_terms(self) -> int:
        return len(self.keys)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def normalized(self) -> "LatticeState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return replace(self, amps=self.amps / n)

    def dump(self) -> str:
        """Structured text snapshot (edge order, configurations, amplitudes)."""
        lat = self.lattice
        lines = [f"lattice {lat.W}x{lat.H} edges {lat.n_edges}"]
        lines.append("uniform " + " ".join(f"{x},{y}" for x, y in sorted(self.uniform)))
        digits = [_digit(self.keys, e) for e in range(lat.n_edges)]
        for i in np.argsort(self.keys):
            digs = "".join(str(d[i]) for d in digits)
            a = self.amps[i]
            lines.append(f"{digs} {a.real!r} {a.imag!r}")
        return "\n".join(lines)


def _identity_keys(n: int) -> np.ndarray:
    """n keys with the identity on every edge."""
    return np.zeros(n, dtype=np.int64)


def _tagged_identity_keys(n_edges, tags) -> np.ndarray:
    """Keys with the identity on every edge and `tags` written in the digits
    above the n_edges edge digits."""
    return _identity_keys(len(tags)) + np.asarray(tags, dtype=np.int64) * ORDER ** n_edges


def _untagged(keys, n_edges):
    """(tags, edge part) of tagged keys."""
    return np.divmod(keys, ORDER ** n_edges)


def _digit(keys, edge):
    """Group index on `edge` of each key."""
    return (keys // (6 ** edge)) % 6


def _set_digit(keys, edge, old, new):
    """Keys with the group index on `edge` changed from `old` to `new`."""
    return keys + (new - old) * (6 ** edge)


def _merged(lattice, pieces, uniform) -> LatticeState:
    """Sum of (keys, amps) pieces: equal keys are added and negligible
    amplitudes dropped.  No pieces give the zero state."""
    if not pieces:
        return LatticeState(lattice, _identity_keys(0), np.zeros(0, dtype=complex), uniform)
    if len(pieces) == 1:
        keys, amps = pieces[0]
    else:
        keys, amps = map(np.concatenate, zip(*pieces))
    uniq, inverse = np.unique(keys, return_inverse=True)
    out = np.zeros(len(uniq), dtype=complex)
    np.add.at(out, inverse, amps)
    keep = np.abs(out) > PRUNE_TOL
    return LatticeState(lattice, uniq[keep], out[keep], uniform)


def _left_mult(keys, edge, g_arr):
    """L^g_+ with a per-term group element array (or scalar index)."""
    old = _digit(keys, edge)
    return _set_digit(keys, edge, old, MUL_TABLE[g_arr, old])


def _right_mult_inv(keys, edge, g_arr):
    """L^g_- with a per-term group element array (or scalar index)."""
    old = _digit(keys, edge)
    return _set_digit(keys, edge, old, MUL_TABLE[old, INV_TABLE[g_arr]])


@lru_cache(maxsize=None)
def _star_cache(lattice):
    return {v: tuple(lattice.star(v)) for v in lattice.vertices}


@lru_cache(maxsize=None)
def _tree_cache(lattice):
    return tuple(
        (v, lattice.tree_parent_edge(v), tuple(lattice.star(v)))
        for v in lattice.tree_order()
    )


def _gauge_at_vertex(lattice, keys, v, g_arr, star=None):
    """A^g_v with per-term group indices g_arr."""
    for edge, starts in star if star is not None else _star_cache(lattice)[v]:
        if starts:
            keys = _left_mult(keys, edge, g_arr)
        else:
            keys = _right_mult_inv(keys, edge, g_arr)
    return keys


def canonicalize_keys(lattice, keys, uniform):
    """Gauge-fix each uniform vertex's tree edge to the identity."""
    keys = keys.copy()
    for v, t, star in _tree_cache(lattice):
        if v not in uniform:
            continue
        m = _digit(keys, t)  # tree edge ends at v; A^m_v sets it to e
        if m.any():
            keys = _gauge_at_vertex(lattice, keys, v, m, star)
    return keys


# ---------------------------------------------------------------------------
# Elementary operators


def apply_vertex(state: LatticeState, v, g: GroupElement) -> LatticeState:
    """A^g_v.  Requires v not uniform (it acts trivially there otherwise)."""
    if v in state.uniform:
        return state.copy()
    g_arr = np.full(state.n_terms, g.index, dtype=np.int64)
    keys = _gauge_at_vertex(state.lattice, state.keys, v, g_arr)
    keys = canonicalize_keys(state.lattice, keys, state.uniform)
    return _merged(state.lattice, [(keys, state.amps)], state.uniform)


def _flux(state: LatticeState, p) -> np.ndarray:
    """Counterclockwise flux of plaquette p in every stored term."""
    le, be, re, te = (_digit(state.keys, e) for e in state.lattice.plaquette_edges(p))
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
    return LatticeState(state.lattice, state.keys[mask], state.amps[mask], state.uniform)


def apply_edge_monomial(state: LatticeState, edge: int, elements, phases) -> LatticeState:
    """Single-edge monomial |g> -> phases[g] |elements[g]>, with g, elements[g]
    group indices and both tables indexed by g.  The edge's endpoints are
    made explicit first, since such an operator need not commute with A_v
    there."""
    state = _deuniformized(state, state.lattice.edge_endpoints(edge))
    old = _digit(state.keys, edge)
    keys = _set_digit(state.keys, edge, old, elements[old])
    keys = canonicalize_keys(state.lattice, keys, state.uniform)
    return _merged(state.lattice, [(keys, state.amps * phases[old])], state.uniform)


def uniformize(state: LatticeState, v) -> LatticeState:
    """Apply the projector A_v and absorb v into the uniform set.

    Norm is preserved only if the state is already A_v-invariant.
    """
    if v in state.uniform:
        return state.copy()
    if v == (0, 0):
        # the spanning-tree root carries no tree edge, so its gauge orbit
        # cannot be canonicalized; the orbit basis stays well-defined only
        # while the root is explicit
        raise ValueError("the tree root vertex cannot join the uniform set")
    uniform = state.uniform | {v}
    keys = canonicalize_keys(state.lattice, state.keys, uniform)
    return _merged(state.lattice, [(keys, state.amps / np.sqrt(ORDER))], uniform)


def _gauge_average(state: LatticeState, v, uniform, divisor) -> LatticeState:
    """sum_g A^g_v / divisor applied to the stored terms, canonicalized for
    the given uniform set."""
    orbit = [
        _gauge_at_vertex(
            state.lattice, state.keys, v, np.full(state.n_terms, g, dtype=np.int64)
        )
        for g in range(ORDER)
    ]
    keys = canonicalize_keys(state.lattice, np.concatenate(orbit), uniform)
    return _merged(state.lattice, [(keys, np.tile(state.amps / divisor, ORDER))], uniform)


def deuniformize(state: LatticeState, v) -> LatticeState:
    """Exactly rewrite the state with v removed from the uniform set."""
    if v not in state.uniform:
        return state.copy()
    return _gauge_average(state, v, state.uniform - {v}, np.sqrt(ORDER))


def _deuniformized(state: LatticeState, vertices) -> LatticeState:
    """The state rewritten with none of the given vertices uniform."""
    for v in vertices:
        if v in state.uniform:
            state = deuniformize(state, v)
    return state


def expanded(state: LatticeState) -> LatticeState:
    """Fully expand all uniform vertices (term count x 6 per vertex)."""
    out = state
    for v in sorted(state.uniform):
        out = deuniformize(out, v)
    return out


def inner(a: LatticeState, b: LatticeState) -> complex:
    """<a|b> for states sharing the same uniform set (orbit basis is
    orthonormal)."""
    if a.uniform != b.uniform:
        raise ValueError("states must share the same uniform set")
    common, ia, ib = np.intersect1d(a.keys, b.keys, return_indices=True)
    return complex(np.sum(np.conj(a.amps[ia]) * b.amps[ib]))


def vertex_projector(state: LatticeState, v) -> LatticeState:
    """A_v without uniform-set bookkeeping (image may be unnormalized)."""
    if v in state.uniform:
        return state.copy()
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
        raise ResourceError(
            f"{lattice.W}x{lattice.H} lattice exceeds the desk-scale bound",
            ORDER ** (lattice.n_vertices - 1),
        )
    state = LatticeState(lattice, _identity_keys(1), np.ones(1, dtype=complex), frozenset())
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
    vertices: tuple  # vertices at which F^{h,g} fails to commute with A_v

    def __add__(self, other: "Ribbon") -> "Ribbon":
        if self.s1 != other.s0:
            raise ValueError("ribbons do not share an intermediate site")
        return Ribbon(
            self.triangles + other.triangles,
            self.s0,
            other.s1,
            (self.vertices[0], other.vertices[1]),
        )


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
        ((x, y), (x + 1, y)),
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
        ((x, y), (x, y - 1)),
    )


def staircase_ribbon(lattice: Lattice, site, moves: str) -> Ribbon:
    """Concatenate shortest ribbons along a path of 'R' (right) / 'U' (up)."""
    rib = None
    cur = tuple(site)
    for m in moves:
        piece = shortest_h(lattice, cur) if m == "R" else shortest_v(lattice, cur)
        rib = piece if rib is None else rib + piece
        cur = piece.s1
    return rib


def _ribbon_sum(state: LatticeState, ribbon: Ribbon, h: GroupElement, rows) -> list:
    """[sum_g row[g] F^{h,g}_rho for row in rows] from one triangle walk: the
    walk moves keys by h alone, and the product of the elements read picks
    each term's g.  Keys are canonicalized once, before each row's mask."""
    state = _deuniformized(state, ribbon.vertices)
    keys = state.keys
    prefix = np.zeros(len(keys), dtype=np.int64)  # product of elements read
    for tri in ribbon.triangles:
        if tri.kind == "direct":
            d = _digit(keys, tri.edge)
            read = d if tri.positive else INV_TABLE[d]
            prefix = MUL_TABLE[prefix, read]
        else:
            conj = MUL_TABLE[MUL_TABLE[INV_TABLE[prefix], h.index], prefix]
            if tri.positive:
                keys = _left_mult(keys, tri.edge, conj)
            else:
                keys = _right_mult_inv(keys, tri.edge, conj)
    keys = canonicalize_keys(state.lattice, keys, state.uniform)
    coeffs = np.asarray(rows)[:, prefix]  # (row, term)
    return [
        _merged(state.lattice, [(keys[m], state.amps[m] * c[m])], state.uniform)
        for c, m in zip(coeffs, coeffs != 0)
    ]


def apply_ribbon(
    state: LatticeState, ribbon: Ribbon, h: GroupElement, g: GroupElement
) -> LatticeState:
    """F^{h,g}_rho: monomial action by triangle recursion."""
    return _ribbon_sum(state, ribbon, h, [np.eye(ORDER)[g.index]])[0]


def anyon_ribbon_branch(
    state: LatticeState, ribbon: Ribbon, anyon: str, u, v
) -> LatticeState:
    """F^{R,C;u,v}_rho (unnormalized image)."""
    h, coeffs = ribbon_terms(anyon, u, v)
    return _ribbon_sum(state, ribbon, h, [coeffs])[0]


def anyon_ribbon_branches(state: LatticeState, ribbon: Ribbon, anyon: str) -> list:
    """F^{R,C;u,v}_rho (unnormalized images) for every (u, v), u outer and v
    inner in the anyon's basis order, with one triangle walk per flux h = c."""
    basis = ANYON_TABLE[anyon].basis
    state = _deuniformized(state, ribbon.vertices)
    out = []
    for h, us in groupby(basis, key=lambda u: u[0]):
        rows = [ribbon_terms(anyon, u, v)[1] for u in us for v in basis]
        out += _ribbon_sum(state, ribbon, h, rows)
    return out


def apply_anyon_ribbon(
    state: LatticeState,
    ribbon: Ribbon,
    anyon: str,
    u=None,
    v=None,
    mixed: bool = False,
    rng=None,
) -> LatticeState:
    """Anyon-pair ribbon.  mixed=True samples a Kraus branch (u, v) with
    probability proportional to the branch's squared norm (trajectory
    unraveling of the maximally-mixed-internal-state channel); the branches
    come from anyon_ribbon_branches, one triangle walk per flux."""
    if not mixed:
        if u is None or v is None:
            raise ValueError("explicit (u, v) required when mixed=False")
        out = anyon_ribbon_branch(state, ribbon, anyon, u, v)
        if out.norm() == 0:
            raise AnnihilationError("selected (u, v) branch has zero norm")
        return out.normalized()
    if rng is None:
        raise ValueError("mixed application requires an rng")
    kept = [(b, b.norm()) for b in anyon_ribbon_branches(state, ribbon, anyon)]
    kept = [(b, n) for b, n in kept if n ** 2 > PRUNE_TOL]
    if not kept:
        raise AnnihilationError(f"all (u, v) branches of {anyon} have zero norm")
    weights = [n ** 2 for _, n in kept]
    b, n = kept[rng.choice(len(kept), p=np.array(weights) / sum(weights))]
    return replace(b, amps=b.amps / n)


# ---------------------------------------------------------------------------
# Charge measurement


@dataclass(frozen=True)
class AnyonConfiguration:
    charges: dict  # site -> anyon letter

    def nontrivial(self) -> dict:
        return {s: a for s, a in self.charges.items() if a != "A"}

    def __getitem__(self, site) -> str:
        return self.charges[site]


# (anyon, fluxes h with chi_a(h, e) != 0) for the anyon of each class whose
# charge is the flux class alone
_FLUX_CLASSES = tuple(
    (a, np.flatnonzero(CHARACTERS[ANYONS.index(a), :, E.index])) for a in "ADF"
)


def apply_K(state: LatticeState, site, anyon: str) -> LatticeState:
    """Charge projector K^a_s = (d_a/|G|) sum_{h,g} conj chi_a(h, g) A^g_v B^h_p
    (site vertex must not be uniform)."""
    chars = CHARACTERS[ANYONS.index(anyon)]
    scale = QUANTUM_DIMS[anyon] / ORDER
    v = site
    if v in state.uniform:
        state = deuniformize(state, v)
    pieces = []
    for h in np.flatnonzero(chars.any(axis=1)):
        flux_part = apply_plaquette(state, site, ELEMENTS[h])
        if flux_part.n_terms == 0:
            continue
        for g in np.flatnonzero(chars[h]):
            g_arr = np.full(flux_part.n_terms, g, dtype=np.int64)
            keys = _gauge_at_vertex(state.lattice, flux_part.keys, v, g_arr)
            pieces.append((keys, flux_part.amps * (scale * np.conj(chars[h, g]))))
    if not pieces:
        return _merged(state.lattice, [], state.uniform)
    # one canonicalize call for all pieces: per-call overhead dominates on
    # the few-term states of the protocols
    keys, amps = map(np.concatenate, zip(*pieces))
    keys = canonicalize_keys(state.lattice, keys, state.uniform)
    return _merged(state.lattice, [(keys, amps)], state.uniform)


def measure_site(state: LatticeState, site, rng):
    """Sample the anyon charge at one site; returns (letter, post-state)."""
    v = site
    if v in state.uniform:
        # A_v-invariant sector: only the pure flux-class outcomes, and K
        # reduces to a flux-class projector — no expansion needed
        f = _flux(state, site)
        masks = [np.isin(f, fluxes) for _, fluxes in _FLUX_CLASSES]
        probs = np.array([np.sum(np.abs(state.amps[m]) ** 2) for m in masks])
        pick = rng.choice(len(masks), p=probs / probs.sum())
        m = masks[pick]
        post = LatticeState(state.lattice, state.keys[m], state.amps[m], state.uniform)
        return _FLUX_CLASSES[pick][0], post.normalized()
    # K projectors resolve the identity on the normalized state, so outcomes
    # can be sampled with an early exit instead of projecting onto all eight
    u = rng.random() * state.norm() ** 2
    acc = 0.0
    letter, post = None, None
    for a in ANYONS:
        proj = apply_K(state, site, a)
        w = proj.norm() ** 2
        if w <= PRUNE_TOL:
            continue
        letter, post = a, proj
        acc += w
        if acc >= u:
            break
    if letter is None:
        raise ValueError("charge measurement found no support")
    post = post.normalized()
    if letter == "A" and site != (0, 0):
        # lossless: the A-sector is A_v B_p-invariant (the tree-root vertex
        # stays explicit; the projected state is invariant there regardless)
        post = uniformize(post, site)
    return letter, post


def measure_MK(state: LatticeState, rng):
    """Full anyon-configuration measurement over all sites (they commute)."""
    charges = {}
    for site in state.lattice.sites:
        letter, state = measure_site(state, site, rng)
        charges[site] = letter
    return AnyonConfiguration(charges), state


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
    keys = np.nonzero(np.abs(vec) > PRUNE_TOL)[0].astype(np.int64)
    return LatticeState(lattice, keys, vec[keys].astype(complex), frozenset())


def ground_space_rank(lattice: Lattice, rng, probes: int = 4, tol: float = 1e-8):
    """Rank of the full ground-space projector P = prod_v A_v prod_p B^e_p,
    revealed by applying P to a random block and counting singular values.

    Requires <= 7 edges.  Returns (rank, singular_values).
    """
    if lattice.n_edges > 7:
        raise ResourceError("dense oracle too large", ORDER ** lattice.n_edges)
    dim = ORDER ** lattice.n_edges
    block = np.zeros((dim, probes), dtype=complex)
    for i in range(probes):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        st = from_dense(lattice, vec)
        for p in lattice.sites:
            st = apply_plaquette(st, p, E)
        for v in lattice.vertices:
            st = vertex_projector(st, v)
        block[:, i] = dense_vector(st)
    s = np.linalg.svd(block, compute_uv=False)
    rank = int(np.sum(s > tol * max(s[0], 1e-300)))
    return rank, s


def ribbon_operator_matrices(lattice: Lattice, support, builder) -> np.ndarray:
    """Dense (6^k, 6^k) matrices, k = len(support), of the states that
    builder(state) returns, restricted to the given support edges.

    Matrix index i has the element on support[0] as its last base-6 digit.
    All 6^k basis columns go through `builder` in one state: column i
    carries i in the key digits above the lattice's edges, which no lattice
    operation touches.  builder must therefore be linear and act trivially
    outside the support; an output term with a non-identity element off the
    support, or a tag that is no column, raises ValueError.  The tags take k
    key digits, so n_edges + k may not exceed KEY_DIGITS (ResourceError).
    """
    support = list(support)
    if lattice.n_edges + len(support) > KEY_DIGITS:
        raise ResourceError(
            f"{lattice.n_edges} edges plus {len(support)} column-tag digits "
            f"exceed the {KEY_DIGITS} digits of an int64 key",
            ORDER ** len(support),
        )
    shape = (ORDER,) * len(support)
    dim = ORDER ** len(support)
    keys = _tagged_identity_keys(lattice.n_edges, np.arange(dim))
    for e, d in zip(support, np.unravel_index(np.arange(dim), shape)[::-1]):
        keys = _set_digit(keys, e, E.index, d)
    outs = builder(LatticeState(lattice, keys, np.ones(dim, dtype=complex)))
    mats = np.zeros((len(outs), dim, dim), dtype=complex)
    for mat, out in zip(mats, outs):
        cols, rest = _untagged(out.keys, lattice.n_edges)
        digits = [_digit(rest, e) for e in reversed(support)]
        for e, d in zip(reversed(support), digits):
            rest = _set_digit(rest, e, d, E.index)
        if rest.any():
            raise ValueError("builder acts outside the support edges")
        if np.any((cols < 0) | (cols >= dim)):
            raise ValueError("builder changed a column tag")
        mat[np.ravel_multi_index(digits, shape), cols] = out.amps
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

    def passes(self, tol: float = 1e-9) -> bool:
        return self.max_residual < tol and self.operators_per_ribbon == ORDER ** 2


def _ribbon_matrices(lattice, ribbon, support):
    """(36, 6^2k) array: the flattened F^{R,C;u,v} matrices of every anyon in
    ANYONS order, each in anyon_ribbon_branches order."""
    mats = ribbon_operator_matrices(
        lattice, support, lambda st: [b for a in ANYONS for b in anyon_ribbon_branches(st, ribbon, a)]
    )
    return mats.reshape(len(mats), -1)


def _orthonormality_residual(lattice, r1, r2) -> float:
    """max |Tr(F1^dagger F2) / Tr(1) - expected| over all label pairs of the
    ribbons r1 and r2, from one Gram product of the flattened operators."""
    support = sorted({t.edge for t in r1.triangles} | {t.edge for t in r2.triangles})
    mats1 = _ribbon_matrices(lattice, r1, support)
    mats2 = mats1 if r1 is r2 else _ribbon_matrices(lattice, r2, support)
    gram = mats1.conj() @ mats2.T / ORDER ** len(support)
    if r1 is r2:
        # d_a/|G|^2 on the diagonal, for the d_a^2 branches of each anyon a
        dims = np.array([QUANTUM_DIMS[a] for a in ANYONS])
        expect = np.diag(np.repeat(dims, dims ** 2) / ORDER ** 2)
    else:
        # only the two A operators overlap: both are 1/|G| times the identity
        expect = np.zeros(gram.shape)
        expect[0, 0] = 1 / ORDER ** 2
    return float(np.max(np.abs(gram - expect)))


def verify_orthonormality(lattice: Lattice = None) -> OrthonormalityReport:
    """Check the trace orthogonality of shortest-ribbon operators:

        Tr(F1^dagger F2) / Tr(1) = delta_{rho1,rho2} delta_{labels}
                                   * |R| / (|Z(C)| |G|)

    over same-ribbon pairs and the two possible overlap patterns of a
    horizontal and a vertical shortest ribbon: pattern I shares the
    horizontal ribbon's direct edge with the vertical ribbon's dual edge;
    pattern II shares the horizontal ribbon's dual edge with the vertical
    ribbon's direct edge.
    """
    if lattice is None:
        lattice = Lattice(2, 2)
    if lattice.W < 2 or lattice.H < 2:
        raise ValueError("orthonormality check needs at least a 2x2 lattice")
    rh1 = shortest_h(lattice, (0, 1))
    rv1 = shortest_v(lattice, (0, 1))  # pattern I partner: shares h_edge(0, 1)
    rh2 = shortest_h(lattice, (0, 0))
    rv2 = shortest_v(lattice, (1, 1))  # pattern II partner: shares v_edge(1, 0)
    cases = [(rh1, rh1), (rv1, rv1), (rh1, rv1), (rh2, rv2)]
    n_labels = sum(d ** 2 for d in QUANTUM_DIMS.values())
    worst = max(_orthonormality_residual(lattice, r1, r2) for r1, r2 in cases)
    return OrthonormalityReport(worst, n_labels, len(cases) * n_labels ** 2)
