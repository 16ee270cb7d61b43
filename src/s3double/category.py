"""Modular category data for the S3 double.

Holds fusion multiplicities, quantum dimensions, R-symbols and F-symbols for
the eight anyons A..H, verifies their consistency (pentagon/hexagon/
unitarity over their admissible label tuples only: tuples joined from rows
of N, entries gathered from a dense F table built per call, never cached),
evaluates the interferometry amplitudes used by the remote measurement
protocols, and tabulates their constant per-round factors once per process
(:func:`qutrit_tables`).

Conventions
-----------
F-symbols follow the standard left-comb re-association

    (a b)_e c -> d   =   sum_f  [F^{abc}_d]_{ef}   a (b c)_f -> d

with all entries touching the vacuum A equal to 1.  R^{ab}_c is the phase
picked up when the (a, b -> c) splitting vertex is braided into (b, a -> c).
The pentagon identity reads

    [F^{fcd}_e]_{gl} [F^{abl}_e]_{fk}
        = sum_h [F^{abc}_g]_{fh} [F^{ahd}_e]_{gk} [F^{bcd}_k]_{hl}

and the two hexagon identities read (the second with R conjugated)

    R^{ca}_e [F^{acb}_d]_{eg} R^{cb}_g
        = sum_f [F^{cab}_d]_{ef} R^{cf}_d [F^{abc}_d]_{fg}.

The numerical table ships in ``data/fr_table.txt``.  Entries are certified
against an independent representation-theoretic construction: intertwiners of
the double's module tensor products give the same data up to a phase gauge,
so all gauge-invariant combinations (|F| magnitudes, monodromies, twists)
must agree — see :func:`derive_gauge_invariants`.  The construction holds the
module matrices as zero-padded arrays, finds the intertwiners of all label
triples with batched SVDs (:func:`splitting_tensors`), and gets every F and R
entry from one gathered contraction over its admissible label tuples
(:func:`raw_symbols`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import algebra
from .algebra import ANYONS, ELEMENTS, MU, SIGMA, E, QUANTUM_DIMS, double_matrix

# Internal-pair subspaces of the four-anyon logical qutrit (total charge G).
U_PAIRS = (("A", "G"), ("G", "G"), ("G", "A"))
U_PERP1_PAIRS = (("F", "C"), ("H", "F"), ("C", "H"))
U_PERP2_PAIRS = (("C", "F"), ("F", "H"), ("H", "C"))
# Fixed order of the logical qutrit's amplitude vector, and its members.
ALL_PAIRS = U_PAIRS + U_PERP1_PAIRS + U_PERP2_PAIRS
QUTRIT_PAIRS = frozenset(ALL_PAIRS)


class CategoryError(ValueError):
    pass


@dataclass(frozen=True)
class CategoryData:
    """Complete (N, d, R, F) data over a set of anyon labels."""

    anyons: tuple
    N: dict  # (a, b, c) -> 0/1
    dims: dict  # a -> int
    R: dict  # (a, b, c) -> complex phase
    F: dict  # (a, b, c, d, e, f) -> complex

    def outcomes(self, a: str, b: str) -> tuple:
        return tuple(c for c in self.anyons if self.N.get((a, b, c), 0))

    def f_entry(self, a, b, c, d, e, f) -> complex:
        return self.F.get((a, b, c, d, e, f), 0j)

    def f_matrix(self, a, b, c, d):
        """(matrix, row labels e, column labels f) for fixed outer labels."""
        es = tuple(e for e in self.outcomes(a, b) if self.N.get((e, c, d), 0))
        fs = tuple(f for f in self.outcomes(b, c) if self.N.get((a, f, d), 0))
        mat = np.array(
            [[self.f_entry(a, b, c, d, e, f) for f in fs] for e in es], dtype=complex
        )
        return mat, es, fs

    def r_symbol(self, a, b, c) -> complex:
        return self.R[a, b, c]


def _parse_records(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "F" and len(parts) == 9:
            labels, re_s, im_s = parts[1:7], parts[7], parts[8]
        elif kind == "R" and len(parts) == 6:
            labels, re_s, im_s = parts[1:4], parts[4], parts[5]
        else:
            raise CategoryError(f"malformed record at line {lineno}: {line!r}")
        yield kind, tuple(labels), complex(float(re_s), float(im_s))


def load_category(text: str) -> CategoryData:
    """Parse an F/R table and combine it with the derived fusion rules."""
    Ntab = algebra.derive_fusion_rules()
    if any(n > 1 for n in Ntab.values()):
        raise CategoryError("fusion multiplicities above 1 are not supported")
    R, F = {}, {}
    for kind, labels, value in _parse_records(text):
        if kind == "R":
            R[labels] = value
        else:
            F[labels] = value
    return CategoryData(tuple(ANYONS), dict(Ntab), dict(QUANTUM_DIMS), R, F)


@lru_cache(maxsize=1)
def default_category() -> CategoryData:
    text = resources.files("s3double").joinpath("data/fr_table.txt").read_text()
    return load_category(text)


def restrict(data: CategoryData, anyons) -> CategoryData:
    """Sub-table over a fusion-closed subset of labels (e.g. the vacuum)."""
    keep = tuple(anyons)
    sub = set(keep)
    return CategoryData(
        keep,
        {k: v for k, v in data.N.items() if sub.issuperset(k)},
        {a: data.dims[a] for a in keep},
        {k: v for k, v in data.R.items() if sub.issuperset(k)},
        {k: v for k, v in data.F.items() if sub.issuperset(k)},
    )


# ---------------------------------------------------------------------------
# Consistency verification


@dataclass(frozen=True)
class ConsistencyReport:
    pentagon: float
    hexagon: float
    unitarity: float
    vacuum: float
    # admissible label tuples evaluated: a count of 0 means nothing was checked
    pentagon_equations: int
    hexagon_equations: int
    blocks: int

    @property
    def max_residual(self) -> float:
        return max(self.pentagon, self.hexagon, self.unitarity, self.vacuum)

    def passes(self) -> bool:
        counts = (self.pentagon_equations, self.hexagon_equations, self.blocks)
        return self.max_residual < 1e-9 and min(counts) > 0


def _dense(table: dict, index: dict, rank: int):
    """(values, present) arrays of a label-keyed table, one axis per label."""
    values = np.zeros((len(index),) * rank, dtype=complex)
    present = np.zeros(values.shape, dtype=bool)
    keys = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(table)), int)
    pos = tuple(keys.reshape(-1, rank).T)
    values[pos] = np.fromiter(table.values(), complex, len(table))
    present[pos] = True
    return values, present


def _f_masks(N):
    """(row, col, adm) of boolean fusion rules N[a, b, c]: [F^{abc}_d]_{ef}
    exists when a b -> e, e c -> d (row[a, b, c, d, e]) and b c -> f,
    a f -> d (col[a, b, c, d, f]); adm[a, b, c, d, e, f] holds both."""
    row = np.einsum("abe,ecd->abcde", N, N)
    col = np.einsum("bcf,afd->abcdf", N, N)
    return row, col, row[..., :, None] & col[..., None, :]


def _labels_at(mask, labels) -> tuple:
    """Labels of the first true entry of a mask over label indices."""
    return tuple(labels[i] for i in np.argwhere(mask)[0])


def _entries(mask):
    """(row, column) of each true entry of a 2-D mask, in row-major order
    (``np.nonzero``, but faster on the narrow masks here)."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _join(labels, mask):
    """Label tuples (one array per label) extended by every label their mask
    row admits (``mask[i]`` belongs to tuple i), in ascending order."""
    i, new = _entries(mask)
    return (*(y[i] for y in labels), new)


def _sums(i, terms, size):
    """Sum of the terms of each tuple index i, added left to right."""
    total = np.empty(size, dtype=complex)
    total.real = np.bincount(i, terms.real, size)
    total.imag = np.bincount(i, terms.imag, size)
    return total


def verify_consistency(data: CategoryData) -> ConsistencyReport:
    """Max pentagon/hexagon/unitarity/vacuum residuals over all admissible
    label tuples.

    N, R and F are laid out as dense arrays indexed by position in
    ``data.anyons``; nothing outlives the call.  The hexagon and unitarity
    tuples come from the admissible F entries, and the pentagon's from joins
    of those entries with rows of N, one outer label at a time.  Each sum
    over a free label runs over the admissible values alone, in ascending
    order (a term it skips holds an F entry off the admissible set, an exact
    zero), so every residual equals the one of a sum over all labels.
    Raises ``CategoryError`` when an admissible R or F entry is missing or
    an F block is not square.
    """
    labels = data.anyons
    n = len(labels)
    index = {a: i for i, a in enumerate(labels)}
    N = _dense(data.N, index, 3)[0] != 0
    R, has_r = _dense(data.R, index, 3)
    F, has_f = _dense(data.F, index, 6)
    if (N & ~has_r).any():
        raise CategoryError(f"missing R entry {_labels_at(N & ~has_r, labels)}")
    row, col, adm = _f_masks(N)
    if (adm & ~has_f).any():
        raise CategoryError(f"missing F entry {_labels_at(adm & ~has_f, labels)}")
    F *= adm  # an F symbol vanishes off the admissible set
    rows, cols = row.sum(axis=-1), col.sum(axis=-1)
    if (rows != cols).any():
        raise CategoryError(f"non-square F block {_labels_at(rows != cols, labels)}")

    flat = F.reshape(-1)
    admissible = np.nonzero(adm)  # label tuples of the F entries, in index order

    # flat index of F[labels]; a summed label enters as 0, and its value
    # times its place value is added per term after the gather
    def at(*labels):
        index = 0
        for x in labels:
            index = index * n + x
        return index

    # N as rows over its last label, indexed by the other two (p * n + q):
    # by_xy[x, y] lists z, by_xz[x, z] lists y and by_yz[y, z] lists x
    by_xy, by_xz, by_yz = (np.moveaxis(N, j, -1).reshape(n * n, n) for j in (2, 1, 0))

    def admits(table, p, q):
        return np.take(table, p * n + q, axis=0)

    # unitarity: every entry (e, x) of F F^dagger - 1 in every non-empty block
    a, b, c, d, e, x = np.nonzero(row[..., :, None] & row[..., None, :])
    i, f = _entries(col[a, b, c, d])
    gram = flat[at(a, b, c, d, e, 0)[i] + f] * flat[at(a, b, c, d, x, 0)[i] + f].conj()
    unit = np.abs(_sums(i, gram, len(x)) - (e == x)).max(initial=0.0)
    is_vac = np.array([label == "A" for label in labels])
    touch = is_vac[:, None, None] | is_vac[None, :, None] | is_vac[None, None, :]
    vac = np.abs(F[adm & touch[..., None, None, None]] - 1).max(initial=0.0)

    # pentagon: each admissible [F^{fcd}_e]_{gl} (f c -> g, g d -> e, c d -> l,
    # f l -> e) joined with b (a b -> f), then k (b l -> k, a k -> e), one
    # outer label a at a time; the sum runs over h with b c -> h, a h -> g
    # and h d -> k
    pent, pentagon_equations = 0.0, 0
    for a in range(n):
        t = _join(admissible, admits(by_xz, a, admissible[0]))
        f, c, d, e, g, l, b = t
        f, c, d, e, g, l, b, k = _join(t, admits(by_xy, b, l) & admits(by_xz, a, e))
        lhs = flat[at(f, c, d, e, g, l)] * flat[at(a, b, l, e, f, k)]
        i, h = _entries(admits(by_xy, b, c) & admits(by_xz, a, g) & admits(by_yz, d, k))
        terms = (
            flat[at(a, b, c, g, f, 0)[i] + h]
            * flat[at(a, 0, d, e, g, k)[i] + h * n**4]
            * flat[at(b, c, d, k, 0, l)[i] + h * n]
        )
        pent = max(pent, np.abs(lhs - _sums(i, terms, len(k))).max(initial=0.0))
        pentagon_equations += len(k)

    # hexagon tuples are the admissible [F^{acb}_d]_{eg}; the sum runs over f
    # with a b -> f, c f -> d and f c -> d
    a, c, b, d, e, g = admissible
    mid = flat[at(a, c, b, d, e, g)]
    i, f = _entries(admits(by_xy, a, b) & admits(by_xz, c, d) & admits(by_yz, c, d))
    outer, inner = flat[at(c, a, b, d, e, 0)[i] + f], flat[at(a, b, c, d, 0, g)[i] + f * n]
    Rc = R.conj()
    rhs = _sums(i, outer * R[c[i], f, d[i]] * inner, len(g))
    # second hexagon: inverse braiding, R labels transposed
    rhs_inv = _sums(i, outer * Rc[f, c[i], d[i]] * inner, len(g))
    hexa = max(
        np.abs(R[c, a, e] * mid * R[c, b, g] - rhs).max(initial=0.0),
        np.abs(Rc[a, c, e] * mid * Rc[b, c, g] - rhs_inv).max(initial=0.0),
    )

    return ConsistencyReport(
        float(pent), float(hexa), float(unit), float(vac),
        pentagon_equations, len(g), int(np.count_nonzero(rows)),
    )


# ---------------------------------------------------------------------------
# Fusion and interferometry amplitudes


def fusion_probability(a: str, b: str, c: str) -> float:
    """Probability of outcome c when fusing a x b with mixed local state."""
    data = default_category()
    return data.N.get((a, b, c), 0) * data.dims[c] / (data.dims[a] * data.dims[b])


def interferometry_amplitude(x: str, z: str, w: str, data: CategoryData = None) -> complex:
    """Amplitude I_{x;z,w}: a z-pair created from vacuum, one braided around
    x, the pair fused to w."""
    data = data or default_category()
    total = 0j
    for wp in data.outcomes(z, x):
        # full z-loop around x: double R-move = monodromy phase in channel wp
        mono = data.r_symbol(z, x, wp) * data.r_symbol(x, z, wp)
        total += (
            np.sqrt(data.dims[wp] / (data.dims[z] * data.dims[x]))
            * mono
            * data.f_entry(z, x, x, z, wp, w)
        )
    return total


def u_measurement_amplitude(x: str, y: str, z: str, w: str) -> complex:
    """Amplitude for the intermediate computational-subspace measurement on an
    internal pair (x, y): the probe-pair outcome w is fused into the tree's
    total-charge line."""
    if (x, y) not in QUTRIT_PAIRS:
        raise CategoryError(f"({x},{y}) is not an internal pair of the qutrit space")
    return interferometry_amplitude(x, z, w) * default_category().f_entry(
        w, x, y, "G", x, "G"
    )


# ---------------------------------------------------------------------------
# Kraus tables of the logical-qutrit protocols

MU_OUTCOMES = ("A", "B")  # H-probe outcomes of one M_U round
MA_OUTCOMES = ("A", "G")  # D-probe outcomes of one M_A interferometry round
FUSE_OUTCOMES = ("D", "E")  # the w = G probe fused back with the leftmost D
ROOT_OUTCOMES = ("A", "B", "G")  # G x G root fusion of two merged qutrits


class MergeBranch(NamedTuple):
    """Merge subroutine 2 after an Abelian root-fusion outcome."""

    weights: tuple  # D-pair interferometer outcomes X in MA_OUTCOMES
    pair_phase: complex  # X = A: overlap of the residual with the F-column of G
    probe_phase: complex  # X = G: phase of the surviving amplitude


class QutritTables(NamedTuple):
    """Constant factors of the logical-qutrit protocols.

    Vectors and table rows run over the pairs in ``ALL_PAIRS`` order; row i
    of a two-row table is the diagonal Kraus factor of outcome i.  The arrays
    and the merge map are read-only because every caller shares them.
    """

    mu: np.ndarray  # MU_OUTCOMES x pairs: u_measurement_amplitude(x, y, "H", w)
    ma: np.ndarray  # MA_OUTCOMES x pairs: I_{x;D,w} where x = w, else 0
    fuse: tuple  # probabilities of FUSE_OUTCOMES
    e_correction: np.ndarray  # pairs: F^{BDD}_{G;E,G} F^{BGy}_{G;G,G}
    root_fusion: tuple  # probabilities of ROOT_OUTCOMES
    merge: MappingProxyType  # Abelian root outcome -> MergeBranch


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.flags.writeable = False
    return arr


@cache
def qutrit_tables() -> QutritTables:
    """The constant factors of the logical-qutrit protocols on the shipped
    category, built once per process."""
    data = default_category()
    mu = _read_only(
        [
            [u_measurement_amplitude(x, y, "H", w) for x, y in ALL_PAIRS]
            for w in MU_OUTCOMES
        ]
    )
    i_d = {
        (x, w): interferometry_amplitude(x, "D", w)
        for x, w in (("A", "A"), ("B", "A"), ("G", "G"))
    }
    # the probe projects x = w; measure_MA only sees x in {A, G}
    ma = _read_only(
        [[i_d[w, w] if x == w else 0 for x, _ in ALL_PAIRS] for w in MA_OUTCOMES]
    )
    fuse = tuple(abs(data.f_entry("G", "D", "D", "G", e, "G")) ** 2 for e in FUSE_OUTCOMES)
    sign = data.f_entry("B", "D", "D", "G", "E", "G")
    e_correction = _read_only(
        [sign * data.f_entry("B", "G", y, "G", "G", "G") for _, y in ALL_PAIRS]
    )
    root_fusion = tuple(fusion_probability("G", "G", c) for c in ROOT_OUTCOMES)
    # the residual G pair of the X = A branch fuses back to G deterministically
    # when it equals the F-column of G
    col = np.array([np.conj(data.f_entry("G", "G", "G", "G", e, "G")) for e in ("A", "B")])
    col = col / np.linalg.norm(col)
    merge = {}
    for outcome in ("A", "B"):
        coeff = {
            X: np.conj(data.f_entry("G", "G", "G", "G", X, outcome)) for X in ROOT_OUTCOMES
        }
        res = np.array([coeff["A"] * i_d["A", "A"], coeff["B"] * i_d["B", "A"]])
        probe = coeff["G"] * i_d["G", "G"]
        merge[outcome] = MergeBranch(
            (abs(res[0]) ** 2 + abs(res[1]) ** 2, abs(probe) ** 2),
            complex(np.vdot(col, res / np.linalg.norm(res))),
            complex(probe / abs(probe)),
        )
    return QutritTables(mu, ma, fuse, e_correction, root_fusion, MappingProxyType(merge))


# ---------------------------------------------------------------------------
# Representation-theoretic oracle: intertwiner construction of raw F/R data
#
# Module matrices are zero-padded to PAD x PAD, so one array holds every anyon
# and the padding drops out of every contraction.  Batched SVDs, one per shape
# (d_a, d_b, d_c), give the intertwiners of all 512 label triples as padded
# splitting tensors; every F or R entry is one gathered contraction of them.

DIMS = np.array([QUANTUM_DIMS[a] for a in ANYONS])
PAD = int(DIMS.max())
GENERATORS = (MU.index, SIGMA.index)  # group generators beside the six delta_h e


@lru_cache(maxsize=1)
def module_matrices():
    """Read-only (D, G): D[a, h, g] is delta_h g and G[a, g] is g on V_a,
    zero-padded, anyons in ``ANYONS`` order."""
    D = np.zeros((len(ANYONS), algebra.ORDER, algebra.ORDER, PAD, PAD), dtype=complex)
    for i, a in enumerate(ANYONS):
        for h, g in itertools.product(ELEMENTS, repeat=2):
            D[i, h.index, g.index, : DIMS[i], : DIMS[i]] = double_matrix(a, h, g)
    G = D.sum(axis=1)
    D.flags.writeable = G.flags.writeable = False
    return D, G


def pair_actions():
    """(delta, group): rho_ab(delta_h e) and rho_ab(g) on V_a (x) V_b for
    every (a, b, h or g), as [a, b, h, i, j, p, q] arrays with row (i, j) and
    column (p, q).  Delta(delta_h e) = sum_k delta_k e (x) delta_{h k^-1} e."""
    D, G = module_matrices()
    shifted = D[:, algebra.MUL_TABLE[:, algebra.INV_TABLE], E.index]  # [b, h, k]
    delta = np.einsum("akip,bhkjq->abhijpq", D[:, :, E.index], shifted)
    # an outer product by broadcasting rounds exactly as kron does
    return delta, G[:, None, :, :, None, :, None] * G[None, :, :, None, :, None, :]


@lru_cache(maxsize=1)
def splitting_tensors():
    """Read-only (S, counts): counts[a, b, c] independent intertwiners
    V_a (x) V_b -> V_c were found, and S[a, b, c] is the adjoint of the
    isometric one as an [i, j, k] tensor (zero where the channel is absent).

    An intertwiner T solves rho_c(x) T = T rho_ab(x) for the eight generators
    x; its phase makes the first entry with |T| > 0.3 real and positive.
    Raises ``CategoryError`` where a count differs from the multiplicity."""
    D, G = module_matrices()
    delta, group = pair_actions()
    rho_ab = np.concatenate([delta, group[:, :, GENERATORS]], axis=2)
    rho_c = np.concatenate([D[:, :, E.index], G[:, GENERATORS]], axis=1)
    counts = np.zeros((len(DIMS),) * 3, dtype=int)
    S = np.zeros(counts.shape + (PAD,) * 3, dtype=complex)
    triples = np.indices(counts.shape).reshape(3, -1)
    for da, db, dc in itertools.product(sorted(set(DIMS)), repeat=3):
        a, b, c = triples[:, (DIMS[triples].T == (da, db, dc)).all(axis=1)]
        k = da * db
        m_ab = rho_ab[a, b, :, :da, :db, :da, :db].reshape(len(a), -1, k, k)
        # rows (x, p, q) of rho_c(x) T - T rho_ab(x) on the unknowns T[p, q]
        eqs = np.einsum("txpr,qs->txpqrs", rho_c[c, :, :dc, :dc], np.eye(k))
        eqs -= np.einsum("pr,txsq->txpqrs", np.eye(dc), m_ab)
        _, s, vh = np.linalg.svd(eqs.reshape(len(a), -1, dc * k), full_matrices=False)
        counts[a, b, c] = np.sum(s < 1e-9, axis=1)
        T = vh[:, -1].conj()  # rows T[p, q] flattened
        T /= np.sqrt(np.sum(np.abs(T) ** 2, axis=1, keepdims=True) / dc)
        lead = T[np.arange(len(T)), np.argmax(np.abs(T) > 0.3, axis=1)]
        T *= (np.abs(lead) / lead)[:, None]
        S[a, b, c, :da, :db, :dc] = T.conj().reshape(-1, dc, da, db).transpose(0, 2, 3, 1)
    N = algebra.derive_fusion_rules()
    for key, count in zip(itertools.product(ANYONS, repeat=3), counts.flat):
        if count != N[key]:
            raise CategoryError(f"{count} intertwiners for {key}, multiplicity {N[key]}")
    S[counts == 0] = 0
    S.flags.writeable = counts.flags.writeable = False
    return S, counts


@lru_cache(maxsize=1)
def raw_symbols():
    """(F, R) tables computed directly from intertwiners: in the splitting
    tensors S_abc, [F^{abc}_d]_{ef} = <(1 (x) S_bcf) S_afd, (S_abe (x) 1) S_ecd>
    / d_d and R^{ab}_c = <S_bac, braid S_abc> / d_c.

    Same category as the embedded table but in the construction's own phase
    gauge; gauge-invariant combinations coincide."""
    S, counts = splitting_tensors()
    D, G = module_matrices()
    N = counts > 0
    labels = np.array(tuple(ANYONS))

    def table(idx, values):
        return dict(zip(zip(*(labels[i].tolist() for i in idx)), values.tolist()))

    idx = np.nonzero(_f_masks(N)[2])
    a, b, c, d, e, f = idx
    left = np.einsum("tijx,txkm->tijkm", S[a, b, e], S[e, c, d])
    # the right-hand tree (1 (x) S_bcf) S_afd is contracted into left unbuilt
    right = (S[b, c, f].conj(), S[a, f, d].conj())
    F = table(idx, np.einsum("tijkm,tjky,tiym->t", left, *right) / DIMS[d])
    # braid V_a (x) V_b -> V_b (x) V_a: sum_h h (x) delta_h e, legs swapped
    a, b, c = idx = np.nonzero(N)
    braid = np.einsum("thip,thjq->tjipq", G[a], D[b, :, E.index])
    values = np.einsum("tjim,tjipq,tpqm->t", S[b, a, c].conj(), braid, S[a, b, c])
    return F, table(idx, values / DIMS[c])


@dataclass(frozen=True)
class OracleReport:
    dim_residual: float
    magnitude_residual: float
    monodromy_residual: float
    twist_residual: float
    worst_entry: tuple
    # entries compared: a count of 0 means nothing was checked
    f_entries: int
    r_entries: int

    @property
    def max_residual(self) -> float:
        residuals = (self.dim_residual, self.magnitude_residual, self.monodromy_residual)
        return max(residuals + (self.twist_residual,))

    def passes(self) -> bool:
        return self.max_residual < 1e-9 and min(self.f_entries, self.r_entries) > 0


def derive_gauge_invariants(data: CategoryData = None) -> OracleReport:
    """Cross-check the embedded table against the intertwiner construction.

    Compares everything that is independent of the phase gauge: quantum
    dimensions (sum_c n_ab^c d_c = d_a d_b over the intertwiner counts n of
    all 64 pairs), |F| entry magnitudes, monodromies R^{ab}_c R^{ba}_c, and
    twists theta_a = sum_c (d_c/d_a) R^{aa}_c.
    """
    data = data or default_category()
    raw_F, raw_R = raw_symbols()
    counts = splitting_tensors()[1]
    dim_res = float(np.abs(counts @ DIMS - np.outer(DIMS, DIMS)).max())

    mag_res, worst = 0.0, None
    f_keys = list(raw_F) + sorted(data.F.keys() - raw_F.keys())
    for key in f_keys:
        diff = abs(abs(raw_F.get(key, 0j)) - abs(data.F.get(key, 0j)))
        if diff > mag_res:
            mag_res, worst = diff, key

    mono_res, twist = 0.0, dict.fromkeys(ANYONS, 0j)
    for (a, b, c), val in raw_R.items():
        mono = val * raw_R[b, a, c] - data.R[a, b, c] * data.R[b, a, c]
        mono_res = max(mono_res, abs(mono))
        if a == b:  # theta_a(raw) - theta_a(table)
            twist[a] += QUANTUM_DIMS[c] / QUANTUM_DIMS[a] * (val - data.R[a, a, c])
    twist_res = max(map(abs, twist.values()))
    return OracleReport(
        dim_res, mag_res, mono_res, twist_res, worst, len(f_keys), len(raw_R)
    )
