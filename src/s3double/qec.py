"""Circuit-level Pauli noise in the anyon-configuration picture.

Single qubit/qutrit Pauli errors on an edge excite the neighbouring sites in
a fixed pattern, so a global charge measurement converts circuit noise into
anyon configurations.  A greedy nearest-neighbour decoder then pairs the
non-trivial sites and recovery fuses each pair away, either microscopically
(on a small lattice, with ribbon operators and charge measurements) or
phenomenologically (tracking only anyon letters on a site grid, with fusion
outcomes sampled from the quantum-dimension probability law).

Cost of a phenomenological round: one uniform draw per edge (the floor); a
bounds check per error edge; one `sampling.draw` per sampled letter from a
constant `sampling.law` (the Pauli alphabet's is built once per NoiseModel,
the lone-vertex mixtures' once per module, each fusion pair's once per
process); and one vectorised sort of the n(n-1)/2 pair distances of the
n non-trivial sites in the decoder, O(n^2 log n) at most.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import category
from . import lattice as lat
from . import protocols as pro
from . import sampling
from .algebra import ANYONS, ELEMENTS, MU, OMEGA, SIGMA


class QECError(RuntimeError):
    pass


PAULI_KINDS = ("X", "Z", "Y", "Xh", "Zh", "XhZh")

# Expected charge pattern (s1, s2, s3) of a single Pauli on an edge: s1 pairs
# the lone excited plaquette, s2 an excited vertex-plaquette pair, s3 the
# lone excited vertex.  The s3 entry for X and Y is the dominant outcome: the
# lone-vertex charge is drawn from the class decomposition {A:1/3, C:2/3}
# (X) or {B:1/3, C:2/3} (Y), so those rows are probabilistic at s3.
SYNDROME_H = {
    "X": ("D", "D", "C"),
    "Z": ("A", "B", "B"),
    "Y": ("D", "E", "C"),
    "Xh": ("F", "F", "A"),
    "Zh": ("A", "C", "C"),
    "XhZh": ("F", "G", "C"),
}
# a vertical edge flips the chirality of the mixed qutrit row
SYNDROME_V = dict(SYNDROME_H, XhZh=("F", "H", "C"))

# exact lone-vertex (s3) outcome distributions where non-deterministic
S3_MIX = {
    "X": (("A", 1 / 3), ("C", 2 / 3)),
    "Y": (("B", 1 / 3), ("C", 2 / 3)),
}


# kind -> (letters, cumulative law) of the S3_MIX rows
_S3_MIX_LAWS = {
    kind: (tuple(a for a, _ in row), sampling.law([w for _, w in row]))
    for kind, row in S3_MIX.items()
}


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-edge error rate with a weighted Pauli alphabet."""

    p: float
    weights: tuple = tuple((k, 1 / 6) for k in PAULI_KINDS)
    _law: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise QECError("error rate must lie in [0, 1]")
        kinds = [k for k, _ in self.weights]
        if sorted(kinds) != sorted(set(kinds)) or set(kinds) - set(PAULI_KINDS):
            raise QECError("invalid Pauli alphabet")
        probs = np.array([w for _, w in self.weights], dtype=float)
        if not np.all(np.isfinite(probs) & (probs >= 0)):
            raise QECError("alphabet weights must be finite and non-negative")
        if abs(sum(w for _, w in self.weights) - 1) > 1e-12:
            raise QECError("alphabet weights must sum to 1")
        object.__setattr__(self, "_law", (tuple(kinds), sampling.law(probs)))

    def sample_kind(self, rng) -> str:
        kinds, cdf = self._law
        return kinds[sampling.draw(cdf, rng)]


def _faults(n_edges: int, noise: NoiseModel, rng):
    """Yield (edge, kind) of each faulty edge in edge order: one
    rng.random() < p per edge (inline; sampling.draw costs more than twice as
    much per edge), then one noise.sample_kind per fault.  A consumer's own
    draws for a fault happen before the next edge's draw."""
    for edge in range(n_edges):
        if rng.random() < noise.p:
            yield edge, noise.sample_kind(rng)


# Pauli errors as monomials on the edge's group element g = mu^k sigma^l
# (qutrit k, qubit l): X = right multiplication by sigma, Xh = left
# multiplication by mu, Z = (-1)^l, Zh = omega^k.  Y = X Z and XhZh = Xh Zh
# take the phase of the original element, then move it.
_ELEMENTS_FIXED = np.array([g.index for g in ELEMENTS])
_ELEMENTS_X = np.array([(g * SIGMA).index for g in ELEMENTS])
_ELEMENTS_XH = np.array([(MU * g).index for g in ELEMENTS])
_PHASES_NONE = np.ones(len(ELEMENTS))
_PHASES_Z = (-1.0) ** np.array([g.l for g in ELEMENTS])
_PHASES_ZH = OMEGA ** np.array([g.k for g in ELEMENTS])
_MONOMIALS = {
    "X": (_ELEMENTS_X, _PHASES_NONE),
    "Z": (_ELEMENTS_FIXED, _PHASES_Z),
    "Y": (_ELEMENTS_X, _PHASES_Z),
    "Xh": (_ELEMENTS_XH, _PHASES_NONE),
    "Zh": (_ELEMENTS_FIXED, _PHASES_ZH),
    "XhZh": (_ELEMENTS_XH, _PHASES_ZH),
}


def inject_pauli(state: lat.LatticeState, edge: int, kind: str) -> lat.LatticeState:
    """Apply a single-edge Pauli error (X/Z/Y on the qubit factor, Xh/Zh and
    their product on the qutrit factor) to a lattice state."""
    if kind not in PAULI_KINDS:
        raise QECError(f"unknown Pauli kind {kind!r}")
    return lat.apply_edge_monomial(state, edge, *_MONOMIALS[kind])


def syndrome_sites(lattice: lat.Lattice, edge: int):
    """(s1, s2, s3) site coordinates excited by an error on the edge; sites
    falling outside the site grid are returned as None."""
    (x, y), _ = lattice.edge_endpoints(edge)
    if lattice.is_horizontal(edge):
        sites = ((x, y - 1), (x, y), (x + 1, y))
    else:
        sites = ((x - 1, y), (x, y), (x, y + 1))
    return tuple(
        s if 0 <= s[0] < lattice.W and 0 <= s[1] < lattice.H else None for s in sites
    )


# ---------------------------------------------------------------------------
# Decoder


def _path(a, b):
    """Site path from a to b stepping in x first, then in y."""
    path = [a]
    x, y = a
    while x != b[0]:
        x += 1 if b[0] > x else -1
        path.append((x, y))
    while y != b[1]:
        y += 1 if b[1] > y else -1
        path.append((x, y))
    return path


def decode_greedy(charges: dict):
    """Pair the non-trivial sites of a {site: letter} map by greedy
    nearest-neighbour matching (Manhattan distance, lexicographic
    tie-break); one site may stay unpaired.  Returns [(site_a, site_b, path
    from a to b), ...].

    Cost: one vectorised sort of the n(n-1)/2 pair distances, O(n^2 log n)
    at most (a radix sort, O(n^2), when every distance fits 16 bits), then a
    walk over the sorted pairs that stops once fewer than two sites are
    free."""
    sites = sorted(lat.nontrivial(charges))
    n = len(sites)
    if n < 2:
        return []
    x, y = np.array(sites).T
    i, j = np.triu_indices(n, 1)
    dist = np.abs(x[i] - x[j]) + np.abs(y[i] - y[j])
    if dist.max() < 2**16:
        dist = dist.astype(np.uint16)  # numpy sorts 16-bit keys by radix sort
    # the sites are sorted, so (i, j) order with i < j is the lexicographic
    # (a, b) order, and a stable sort on distance gives (distance, a, b) order
    order = np.argsort(dist, kind="stable")
    # the first pair in that order whose sites are both free is the closest
    # pair among the sites still free
    free = [True] * n
    pattern = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if free[a] and free[b]:
            free[a] = free[b] = False
            pattern.append((sites[a], sites[b], _path(sites[a], sites[b])))
            if n - 2 * len(pattern) < 2:
                break
    return pattern


# ---------------------------------------------------------------------------
# Microscopic cycle


# Round budget of each adaptive anyon move in a microscopic recovery.
MOVE_BUDGET = 16


def _recover_pair(state, a, b, path, letters, rng):
    """Move the anyon at a next to b and attempt one fusion; returns the new
    state and whether both sites read trivial afterwards."""
    alpha = letters[a]
    if len(path) > 2:
        res = pro.move_path(state, alpha, path[:-1], rng, max_rounds=MOVE_BUDGET)
        state = res.state
        if not res.success:
            return state, False
    adj = path[-2]
    rib = pro.connecting_ribbon(state.lattice, adj, b)
    state = lat.apply_anyon_ribbon(state, rib, alpha, rng=rng)
    out_a, state = lat.measure_site(state, adj, rng)
    out_b, state = lat.measure_site(state, b, rng)
    return state, out_a == "A" and out_b == "A"


def _fidelity_to_ground(state) -> float:
    """|<gs|psi>|^2 for the normalized state, computed in the orbit basis.

    The ground state is invariant under every vertex projector A_v and each
    A_v is Hermitian, so <gs|psi> = <gs| prod_v A_v |psi>.  uniformize applies
    A_v exactly, which brings psi to the ground state's uniform set (every
    vertex but the tree root) without expanding either state.
    """
    gs = lat.ground_state(state.lattice)
    psi = state.normalized()
    for v in sorted(gs.uniform - psi.uniform):
        psi = lat.uniformize(psi, v)
    return float(abs(lat.inner(gs, psi)) ** 2)


def _microscopic_cycle(state, noise, rounds, rng):
    reports = []
    for r in range(rounds):
        errors = 0
        for edge, kind in _faults(state.lattice.n_edges, noise, rng):
            state = inject_pauli(state, edge, kind)
            errors += 1
        state = state.normalized()
        letters, state = lat.measure_MK(state, rng)
        actions = []
        for a, b, path in decode_greedy(letters):
            state, resolved = _recover_pair(state, a, b, path, letters, rng)
            actions.append((a, b, resolved))
        check, state = lat.measure_MK(state, rng)
        residual = len(lat.nontrivial(check))
        rec = {
            "round": r,
            "errors": errors,
            "syndrome": sorted(lat.nontrivial(letters).items()),
            "actions": actions,
            "residual": residual,
            "fidelity": _fidelity_to_ground(state) if residual == 0 else 0.0,
        }
        reports.append(rec)
    return reports, state


# ---------------------------------------------------------------------------
# Phenomenological cycle


@cache
def _fusion_law(a: str, b: str):
    """(outcomes, cumulative law) of fusing a x b."""
    outs = category.default_category().outcomes(a, b)
    return outs, sampling.law([category.fusion_probability(a, b, c) for c in outs])


def sample_fusion(a: str, b: str, rng) -> str:
    """Fusion outcome of a x b sampled with probability d_c N_ab^c/(d_a d_b).
    The (outcomes, cumulative law) of each pair is built once per process."""
    outs, cdf = _fusion_law(a, b)
    return outs[sampling.draw(cdf, rng)]


def _sample_syndrome_letter(kind, slot, table, rng):
    if slot == 2 and kind in _S3_MIX_LAWS:
        letters, cdf = _S3_MIX_LAWS[kind]
        return letters[sampling.draw(cdf, rng)]
    return table[kind][slot]


def _phenomenological_cycle(shape, noise, rounds, rng):
    geometry = lat.Lattice(*shape)
    charges = {s: "A" for s in geometry.sites}
    reports = []
    for r in range(rounds):
        n_errors = 0
        for edge, kind in _faults(geometry.n_edges, noise, rng):
            n_errors += 1
            table = SYNDROME_H if geometry.is_horizontal(edge) else SYNDROME_V
            for slot, site in enumerate(syndrome_sites(geometry, edge)):
                if site is None:
                    continue
                letter = _sample_syndrome_letter(kind, slot, table, rng)
                if letter != "A":
                    charges[site] = sample_fusion(charges[site], letter, rng)
        # read before recovery rewrites the charges
        syndrome = sorted(lat.nontrivial(charges).items())
        actions = []
        for a, b, _ in decode_greedy(charges):
            # phenomenological recovery: transport is assumed perfect; the
            # pair fuses stochastically and any non-trivial outcome stays
            # enqueued at b for the next round
            out = sample_fusion(charges[a], charges[b], rng)
            charges[a] = "A"
            charges[b] = out
            actions.append((a, b, out == "A"))
        residual = sum(1 for v in charges.values() if v != "A")
        reports.append(
            {
                "round": r,
                "errors": n_errors,
                "syndrome": syndrome,
                "actions": actions,
                "residual": residual,
            }
        )
    return reports, charges


def qec_cycle(target, noise: NoiseModel, rounds: int, rng):
    """Active error-correction loop: inject noise, measure charges, decode,
    recover; repeated `rounds` times.

    `target` is either a LatticeState (microscopic mode, reports include
    ground-state fidelity when the residual is zero) or a (W, H) grid shape
    (phenomenological mode, letters only).  Returns (per-round reports,
    final state or final charge grid).
    """
    if isinstance(target, lat.LatticeState):
        return _microscopic_cycle(target, noise, rounds, rng)
    return _phenomenological_cycle(tuple(target), noise, rounds, rng)
