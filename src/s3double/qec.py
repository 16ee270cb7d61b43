"""Circuit-level Pauli noise in the anyon-configuration picture.

Single qubit/qutrit Pauli errors on an edge excite the neighbouring sites in
a fixed pattern, so a global charge measurement converts circuit noise into
anyon configurations.  A greedy nearest-neighbour decoder then pairs the
non-trivial sites and recovery fuses each pair away, either microscopically
(on a small lattice, with ribbon operators and charge measurements) or
phenomenologically (tracking only anyon letters on a site grid, with fusion
outcomes sampled from the quantum-dimension probability law).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import category
from . import lattice as lat
from . import protocols as pro
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


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-edge error rate with a weighted Pauli alphabet."""

    p: float
    weights: tuple = tuple((k, 1 / 6) for k in PAULI_KINDS)

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise QECError("error rate must lie in [0, 1]")
        kinds = [k for k, _ in self.weights]
        if sorted(kinds) != sorted(set(kinds)) or set(kinds) - set(PAULI_KINDS):
            raise QECError("invalid Pauli alphabet")
        if abs(sum(w for _, w in self.weights) - 1) > 1e-12:
            raise QECError("alphabet weights must sum to 1")

    def sample_kind(self, rng) -> str:
        kinds = [k for k, _ in self.weights]
        probs = np.array([w for _, w in self.weights])
        return kinds[int(rng.choice(len(kinds), p=probs / probs.sum()))]


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
    grid = set(lattice.sites)
    return tuple(s if s in grid else None for s in sites)


def pauli_to_anyons(lattice: lat.Lattice, edge: int, kind: str) -> dict:
    """Expected charge-measurement pattern {site: letter} of a single Pauli
    error (dominant outcome at the lone-vertex site, see S3_MIX)."""
    if kind not in PAULI_KINDS:
        raise QECError(f"unknown Pauli kind {kind!r}")
    table = SYNDROME_H if lattice.is_horizontal(edge) else SYNDROME_V
    pattern = {}
    for site, letter in zip(syndrome_sites(lattice, edge), table[kind]):
        if site is not None and letter != "A":
            pattern[site] = letter
    return pattern


# ---------------------------------------------------------------------------
# Decoder


def _manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


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


def decode_greedy(config: lat.AnyonConfiguration):
    """Pair non-trivial sites by greedy nearest-neighbour matching
    (Manhattan distance, lexicographic tie-break); one site may stay
    unpaired.  Returns [(site_a, site_b, path from a to b), ...]."""
    remaining = sorted(config.nontrivial())
    pattern = []
    while len(remaining) >= 2:
        best = min(
            (( _manhattan(a, b), a, b)
             for i, a in enumerate(remaining)
             for b in remaining[i + 1:]),
        )
        _, a, b = best
        remaining.remove(a)
        remaining.remove(b)
        pattern.append((a, b, _path(a, b)))
    return pattern


# ---------------------------------------------------------------------------
# Microscopic cycle


def _inject_noise(state, noise, rng):
    errors = []
    for edge in range(state.lattice.n_edges):
        if rng.random() < noise.p:
            kind = noise.sample_kind(rng)
            state = inject_pauli(state, edge, kind)
            errors.append((edge, kind))
    return state, errors


def _recover_pair(state, a, b, path, letters, rng, budget):
    """Move the anyon at a next to b and attempt one fusion; returns the new
    state and whether both sites read trivial afterwards."""
    alpha = letters[a]
    if len(path) > 2:
        res = pro.move_path(state, alpha, path[:-1], rng, max_rounds=budget)
        state = res.state
        if not res.success:
            return state, False
    adj = path[-2]
    rib = pro.connecting_ribbon(state.lattice, adj, b)
    state = lat.apply_anyon_ribbon(state, rib, alpha, mixed=True, rng=rng)
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


def _microscopic_cycle(state, noise, rounds, rng, budget):
    reports = []
    for r in range(rounds):
        state, errors = _inject_noise(state, noise, rng)
        state = state.normalized()
        config, state = lat.measure_MK(state, rng)
        actions = []
        letters = dict(config.charges)
        for a, b, path in decode_greedy(config):
            state, resolved = _recover_pair(state, a, b, path, letters, rng, budget)
            actions.append((a, b, resolved))
        check, state = lat.measure_MK(state, rng)
        residual = len(check.nontrivial())
        rec = {
            "round": r,
            "errors": len(errors),
            "syndrome": sorted(config.nontrivial().items()),
            "actions": actions,
            "residual": residual,
            "fidelity": _fidelity_to_ground(state) if residual == 0 else 0.0,
        }
        reports.append(rec)
    return reports, state


# ---------------------------------------------------------------------------
# Phenomenological cycle


def sample_fusion(a: str, b: str, rng, data=None) -> str:
    """Fusion outcome of a x b sampled with probability d_c N_ab^c/(d_a d_b)."""
    data = data or category.default_category()
    outs = data.outcomes(a, b)
    probs = np.array([category.fusion_probability(a, b, c, data) for c in outs])
    return outs[int(rng.choice(len(outs), p=probs / probs.sum()))]


def _sample_syndrome_letter(kind, slot, table, rng):
    if slot == 2 and kind in S3_MIX:
        letters, probs = zip(*S3_MIX[kind])
        return letters[int(rng.choice(len(letters), p=probs))]
    return table[kind][slot]


def _phenomenological_cycle(shape, noise, rounds, rng):
    geometry = lat.Lattice(*shape)
    charges = {s: "A" for s in geometry.sites}
    data = category.default_category()
    reports = []
    for r in range(rounds):
        n_errors = 0
        for edge in range(geometry.n_edges):
            if rng.random() >= noise.p:
                continue
            n_errors += 1
            kind = noise.sample_kind(rng)
            table = SYNDROME_H if geometry.is_horizontal(edge) else SYNDROME_V
            for slot, site in enumerate(syndrome_sites(geometry, edge)):
                if site is None:
                    continue
                letter = _sample_syndrome_letter(kind, slot, table, rng)
                if letter != "A":
                    charges[site] = sample_fusion(charges[site], letter, rng, data)
        config = lat.AnyonConfiguration(dict(charges))
        actions = []
        for a, b, _ in decode_greedy(config):
            # phenomenological recovery: transport is assumed perfect; the
            # pair fuses stochastically and any non-trivial outcome stays
            # enqueued at b for the next round
            out = sample_fusion(charges[a], charges[b], rng, data)
            charges[a] = "A"
            charges[b] = out
            actions.append((a, b, out == "A"))
        residual = sum(1 for v in charges.values() if v != "A")
        reports.append(
            {
                "round": r,
                "errors": n_errors,
                "syndrome": sorted(config.nontrivial().items()),
                "actions": actions,
                "residual": residual,
            }
        )
    return reports, charges


def qec_cycle(target, noise: NoiseModel, rounds: int, rng, budget: int = 16):
    """Active error-correction loop: inject noise, measure charges, decode,
    recover; repeated `rounds` times.

    `target` is either a LatticeState (microscopic mode, reports include
    ground-state fidelity when the residual is zero) or a (W, H) grid shape
    (phenomenological mode, letters only).  Returns (per-round reports,
    final state or final charge grid).
    """
    if isinstance(target, lat.LatticeState):
        return _microscopic_cycle(target, noise, rounds, rng, budget)
    return _phenomenological_cycle(tuple(target), noise, rounds, rng)
