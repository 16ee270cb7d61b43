"""Exact arithmetic for S3, its irreducible representations, and the
representation theory of its Drinfeld double.

Group convention: every element is mu^k sigma^l with k in Z3, l in Z2 and the
semidirect-product relation sigma mu sigma = mu^{-1}, i.e.

    (mu^k1 sigma^l1)(mu^k2 sigma^l2) = mu^{k1 + (-1)^l1 k2} sigma^{l1 + l2}.

Double-irrep convention: an irrep is labelled by a conjugacy class C (with a
fixed representative g_C, coset maps tau_c satisfying tau_c g_C tau_c^{-1} = c)
and an irrep R of the centralizer Z(C).  The basis of the module is
{|c, j> : c in C, 1 <= j <= dim R} and the algebra acts as

    delta_h |c, j> = [h == c] |c, j>
    g |c, j>       = sum_i Gamma^R_{ij}(tau_{gcg^{-1}}^{-1} g tau_c) |g c g^{-1}, i>.

The eight irreps are named A..H in order of (trivial class, classes of sigma
and mu) and centralizer irrep, with quantum dimensions (1,1,2,3,3,2,2,2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

OMEGA = np.exp(2j * np.pi / 3)

ANYONS = "ABCDEFGH"


@dataclass(frozen=True, order=True)
class GroupElement:
    """mu^k sigma^l with k in {0,1,2}, l in {0,1}."""

    k: int
    l: int

    def __post_init__(self):
        if self.k not in (0, 1, 2) or self.l not in (0, 1):
            raise ValueError(f"invalid exponents ({self.k}, {self.l})")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        sign = -1 if self.l else 1
        return GroupElement((self.k + sign * other.k) % 3, (self.l + other.l) % 2)

    def inverse(self) -> "GroupElement":
        sign = -1 if self.l else 1
        return GroupElement((-sign * self.k) % 3, self.l)

    @property
    def index(self) -> int:
        """Stable enumeration 0..5: e, mu, mu^2, sigma, mu sigma, mu^2 sigma."""
        return self.k + 3 * self.l

    def __repr__(self) -> str:
        names = ["e", "u", "u2", "s", "us", "u2s"]
        return names[self.index]


E = GroupElement(0, 0)
MU = GroupElement(1, 0)
MU2 = GroupElement(2, 0)
SIGMA = GroupElement(0, 1)
MUSIGMA = GroupElement(1, 1)
MU2SIGMA = GroupElement(2, 1)

ELEMENTS = (E, MU, MU2, SIGMA, MUSIGMA, MU2SIGMA)

ORDER = len(ELEMENTS)


# Integer multiplication / inverse tables for vectorized lattice code.
MUL_TABLE = np.array(
    [[(a * b).index for b in ELEMENTS] for a in ELEMENTS], dtype=np.int64
)
INV_TABLE = np.array([a.inverse().index for a in ELEMENTS], dtype=np.int64)


@dataclass(frozen=True)
class GroupIrrep:
    """A unitary irrep of a subgroup of S3, given as an explicit matrix map."""

    label: str
    dim: int
    domain: tuple
    _matrices: tuple  # index-aligned with domain

    def matrix(self, g: GroupElement) -> np.ndarray:
        try:
            i = self.domain.index(g)
        except ValueError:
            raise ValueError(f"{g!r} not in domain of irrep {self.label}")
        return self._matrices[i]

    def character(self, g: GroupElement) -> complex:
        return complex(np.trace(self.matrix(g)))


def _irrep(label, domain, matrices):
    mats = tuple(np.asarray(m, dtype=complex) for m in matrices)
    return GroupIrrep(label, mats[0].shape[0], tuple(domain), mats)


# Irreps of S3 itself: trivial [+], sign [-], and the 2-dimensional irrep.
_GAMMA2 = {
    E: np.eye(2),
    MU: np.diag([OMEGA, OMEGA.conjugate()]),
    MU2: np.diag([OMEGA.conjugate(), OMEGA]),
    SIGMA: np.array([[0, 1], [1, 0]]),
}
_GAMMA2[MUSIGMA] = _GAMMA2[MU] @ _GAMMA2[SIGMA]
_GAMMA2[MU2SIGMA] = _GAMMA2[MU2] @ _GAMMA2[SIGMA]

S3_TRIVIAL = _irrep("+", ELEMENTS, [np.eye(1)] * 6)
S3_SIGN = _irrep("-", ELEMENTS, [[[1]], [[1]], [[1]], [[-1]], [[-1]], [[-1]]])
S3_2DIM = _irrep("2", ELEMENTS, [_GAMMA2[g] for g in ELEMENTS])

# Irreps of Z2 = {e, sigma}.
Z2_TRIVIAL = _irrep("+", (E, SIGMA), [[[1]], [[1]]])
Z2_SIGN = _irrep("-", (E, SIGMA), [[[1]], [[-1]]])

# Irreps of Z3 = {e, mu, mu^2}.
Z3_ELEMS = (E, MU, MU2)
Z3_TRIVIAL = _irrep("1", Z3_ELEMS, [[[1]], [[1]], [[1]]])
Z3_OMEGA = _irrep("w", Z3_ELEMS, [[[1]], [[OMEGA]], [[OMEGA ** 2]]])
Z3_OMEGABAR = _irrep("wbar", Z3_ELEMS, [[[1]], [[OMEGA ** 2]], [[OMEGA]]])


@dataclass(frozen=True)
class ConjugacyData:
    """A conjugacy class with its representative, coset maps, and centralizer.

    tau maps each member c to tau_c with tau_c g_rep tau_c^{-1} = c and
    tau_{g_rep} = e.  The tau table is fixed (not an arbitrary choice) so that
    ribbon operators downstream match a single convention everywhere.
    """

    name: str
    members: tuple
    representative: GroupElement
    tau: dict
    centralizer: tuple

    def __post_init__(self):
        assert self.tau[self.representative] == E
        for c in self.members:
            t = self.tau[c]
            assert t * self.representative * t.inverse() == c
        assert len(self.members) * len(self.centralizer) == ORDER


C1 = ConjugacyData("C1", (E,), E, {E: E}, ELEMENTS)
C2 = ConjugacyData(
    "C2",
    (SIGMA, MUSIGMA, MU2SIGMA),
    SIGMA,
    {SIGMA: E, MUSIGMA: MU2, MU2SIGMA: MU},
    (E, SIGMA),
)
C3 = ConjugacyData("C3", (MU, MU2), MU, {MU: E, MU2: SIGMA}, (E, MU, MU2))

CLASSES = (C1, C2, C3)


@dataclass(frozen=True)
class DoubleIrrep:
    """An irrep (R, C) of the double, i.e. an anyon type."""

    letter: str
    R: GroupIrrep
    C: ConjugacyData

    @property
    def dim(self) -> int:
        return self.R.dim * len(self.C.members)

    @property
    def basis(self) -> tuple:
        return tuple((c, j) for c in self.C.members for j in range(self.R.dim))

    def __repr__(self) -> str:
        return f"DoubleIrrep({self.letter}: R=[{self.R.label}], C={self.C.name})"


ANYON_TABLE = {
    "A": DoubleIrrep("A", S3_TRIVIAL, C1),
    "B": DoubleIrrep("B", S3_SIGN, C1),
    "C": DoubleIrrep("C", S3_2DIM, C1),
    "D": DoubleIrrep("D", Z2_TRIVIAL, C2),
    "E": DoubleIrrep("E", Z2_SIGN, C2),
    "F": DoubleIrrep("F", Z3_TRIVIAL, C3),
    "G": DoubleIrrep("G", Z3_OMEGA, C3),
    "H": DoubleIrrep("H", Z3_OMEGABAR, C3),
}

QUANTUM_DIMS = {a: ANYON_TABLE[a].dim for a in ANYONS}


def double_action(
    h: GroupElement, g: GroupElement, irrep: DoubleIrrep, basis: tuple
) -> list:
    """Action of the algebra element delta_h g on |c, j>.

    Returns a list of ((c', j'), coefficient) pairs (the g action first, then
    the delta_h projection on the result).
    """
    c, j = basis
    if c not in irrep.C.members:
        raise ValueError(f"{c!r} not in class {irrep.C.name}")
    cp = g * c * g.inverse()
    if h != cp:
        return []
    n = irrep.C.tau[cp].inverse() * g * irrep.C.tau[c]
    gamma = irrep.R.matrix(n)
    return [((cp, i), gamma[i, j]) for i in range(irrep.R.dim)]


@lru_cache(maxsize=None)
def double_matrix(letter: str, h: GroupElement, g: GroupElement) -> np.ndarray:
    """Dense matrix of delta_h g on the module of anyon `letter`."""
    irrep = ANYON_TABLE[letter]
    basis = irrep.basis
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, b in enumerate(basis):
        for bp, coeff in double_action(h, g, irrep, b):
            m[basis.index(bp), col] = coeff
    return m


@lru_cache(maxsize=None)
def tensor_matrix(a: str, b: str, h: GroupElement, g: GroupElement) -> np.ndarray:
    """Matrix of delta_h g on V_a (x) V_b via the comultiplication
    Delta(delta_h g) = sum_{h2 h1 = h} delta_{h1} g (x) delta_{h2} g."""
    da, db = ANYON_TABLE[a].dim, ANYON_TABLE[b].dim
    m = np.zeros((da * db, da * db), dtype=complex)
    for h1 in ELEMENTS:
        h2 = h * h1.inverse()
        m += np.kron(double_matrix(a, h1, g), double_matrix(b, h2, g))
    return m


def _central_idempotent_trace(letter: str, trace_fn) -> complex:
    """sum over the central idempotent e_{(R,C)} of trace_fn(h, g)."""
    irrep = ANYON_TABLE[letter]
    total = 0.0 + 0.0j
    for c in irrep.C.members:
        tau_c = irrep.C.tau[c]
        for n in irrep.C.centralizer:
            chi = irrep.R.character(n).conjugate()
            total += chi * trace_fn(c, tau_c * n * tau_c.inverse())
    return total * irrep.R.dim / len(irrep.C.centralizer)


def fusion_multiplicity(a: str, b: str, c: str) -> int:
    """N^c_{ab}: multiplicity of V_c inside V_a (x) V_b."""

    def tr(h, g):
        return np.trace(tensor_matrix(a, b, h, g))

    val = _central_idempotent_trace(c, tr) / ANYON_TABLE[c].dim
    n = int(round(val.real))
    assert abs(val - n) < 1e-9, (a, b, c, val)
    return n


@lru_cache(maxsize=1)
def derive_fusion_rules() -> dict:
    """Full table {(a, b, c): N^c_{ab}} computed by character projection."""
    return {
        (a, b, c): fusion_multiplicity(a, b, c)
        for a in ANYONS
        for b in ANYONS
        for c in ANYONS
    }


def fusion_outcomes(a: str, b: str) -> list:
    table = derive_fusion_rules()
    return [c for c in ANYONS if table[a, b, c]]
