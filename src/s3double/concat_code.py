"""Qudit CSS codes and the fault-tolerant logical controlled charge
conjugation between a qubit Shor code and a qutrit CSS code.

A block-structured [[n^2, 1, n]] qubit Shor code controls a length-n qutrit
CSS code: each n-qubit block is uniformly 0 or 1 on every codeword, so a
transversal controlled-conjugation layer per block conjugates the qutrit
code zero or one times, and an odd number of blocks makes the net logical
action exactly one conjugation per logical qubit value (2^q mod 3 is 1 for
even q and 2 for odd q).  The block count n fixes the gadget
(`apply_schedule`): a loop over the n blocks, with qutrit error correction
between consecutive layers iff the length-n qutrit code has distance >= 3,
which keeps single physical faults from propagating.

Every qutrit register vector on the schedule is a codeword moved by
monomials (conjugation and single-qutrit Paulis), so its support is one
coset x + rowspan(H_X): 9 of the 3^9 basis states for the [[9, 1, 3]]
code.  Registers are held as that support (`SupportVector`, a `digits`
vector), and each operator and stabilizer expectation acts on its digit
rows.  The Shor side is rows too (`ConcatState`): one block-bit row per
branch, pointing into a pool of distinct registers, so a layer picks its
branches by a row mask and transforms each distinct register once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import digits as dg
from .algebra import OMEGA


class CodeError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Linear algebra over F_p


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_matrix(rows, n):
    m = np.array(rows, dtype=np.int64)
    if m.size == 0:
        return np.zeros((0, n), dtype=np.int64)
    return m.reshape(-1, n)


def rref(matrix, p):
    """Reduced row-echelon form over F_p; returns (rows, pivot columns)."""
    m = np.array(matrix, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        hits = [i for i in range(r, rows) if m[i, c] % p]
        if not hits:
            continue
        m[[r, hits[0]]] = m[[hits[0], r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rank(matrix, p) -> int:
    return rref(matrix, p)[0].shape[0]


def _span_rows(matrix, p) -> np.ndarray:
    """All p^rank vectors in the row span as distinct rows (small ranks only)."""
    basis, _ = rref(matrix, p)
    if p ** len(basis) > 4096:
        raise CodeError("row span too large to enumerate")
    return dg.basis_rows((p,) * len(basis)) @ basis % p


def _ascending(rows) -> np.ndarray:
    """The rows in ascending (lexicographic) order."""
    return rows[np.lexsort(rows.T[::-1])]


def kernel_basis(matrix, p):
    """Basis of {v : matrix v = 0 (mod p)}."""
    m = _as_matrix(matrix, matrix.shape[1] if matrix.ndim == 2 else 0)
    n = m.shape[1]
    red, pivots = rref(m, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), n)


# ---------------------------------------------------------------------------
# CSS codes


@dataclass(frozen=True, eq=False)
class QuditCSSCode:
    """CSS code over F_p from X- and Z-type parity-check matrices."""

    p: int
    n: int
    H_X: np.ndarray
    H_Z: np.ndarray

    def __post_init__(self):
        if self.p not in (2, 3):
            raise CodeError("only qubit (p=2) and qutrit (p=3) codes supported")
        # read-only, like the cached tables: default codes are shared per process
        object.__setattr__(self, "H_X", _read_only(_as_matrix(self.H_X, self.n) % self.p))
        object.__setattr__(self, "H_Z", _read_only(_as_matrix(self.H_Z, self.n) % self.p))
        if self.H_X.shape[1] != self.n or self.H_Z.shape[1] != self.n:
            raise CodeError("parity-check width does not match the length")
        if self.H_X.shape[0] and self.H_Z.shape[0]:
            if np.any((self.H_X @ self.H_Z.T) % self.p):
                raise CodeError("H_X and H_Z rows are not orthogonal")
        if self.k != 1:
            raise CodeError(f"code encodes {self.k} logical qudits, not one")

    @functools.cached_property
    def k(self) -> int:
        return self.n - rank(self.H_X, self.p) - rank(self.H_Z, self.p)

    def _logicals(self, checks, stabilizers) -> np.ndarray:
        """Rows of span(ker(checks)), in ascending order, that one lookup does
        not find among the rows of `stabilizers`."""
        span = _ascending(_span_rows(kernel_basis(checks, self.p), self.p))
        return span[dg.find(stabilizers, (self.p,) * self.n, span) < 0]

    @functools.cached_property
    def logical_x(self) -> np.ndarray:
        """Read-only row: the logical X, the first minimum-weight vector of
        ker(H_Z) outside rowspan(H_X) in ascending order (length <= 9 only)."""
        if self.n > 9:
            raise CodeError("logical representative enumerated for n <= 9 only")
        # k = 1, so ker(H_Z) holds a vector outside rowspan(H_X)
        outside = self._logicals(self.H_Z, self.x_span)
        return _read_only(outside[np.argmin(np.count_nonzero(outside, axis=1))])

    @functools.cached_property
    def x_span(self) -> np.ndarray:
        """Read-only rows: every vector of rowspan(H_X), in ascending order."""
        return _read_only(_ascending(_span_rows(self.H_X, self.p)))

    @functools.cached_property
    def z_span(self) -> np.ndarray:
        """Read-only rows: every vector of rowspan(H_Z)."""
        return _read_only(_span_rows(self.H_Z, self.p))

    @functools.cached_property
    def distance(self):
        """Minimum weight over both logical-operator cosets (n <= 9 only;
        None for longer codes): each kernel's span as rows, less those one
        lookup finds among the rows of the other checks' span."""
        if self.n > 9:
            return None
        weights = [self.n]
        for checks, stabilizers in ((self.H_Z, self.x_span), (self.H_X, self.z_span)):
            weights += np.count_nonzero(self._logicals(checks, stabilizers), axis=1).tolist()
        return min(weights)

    @functools.cached_property
    def correction_table(self):
        """Read-only map: syndrome tuple -> (site, a, b) of a weight<=1 error;
        defined when errors sharing a syndrome differ only by a stabilizer."""
        base = _codeword_support(self, 0)
        errors = [(0, 0, 0)] + [
            (site, a, b) for site in range(self.n) for a in range(3) for b in range(3) if a or b
        ]
        table = {}
        for error, syn in zip(errors, _syndromes(self, [_pauli(base, *e) for e in errors])):
            if syn not in table:
                table[syn] = error
            elif not _equivalent_errors(self, table[syn], error):
                raise CodeError("inequivalent errors share a syndrome")
        return MappingProxyType(table)


def shor_code(p: int, blocks: int, size: int) -> QuditCSSCode:
    """Shor-type CSS code over F_p on `blocks` blocks of `size` qudits: Z checks
    join adjacent qudits of each block as (1, p-1), X checks join adjacent
    blocks with rows of 2*size ones.  (2, n, n) is the [[n^2, 1, n]] qubit
    Shor code, (3, 1, 3) the [[3, 1, 1]] qutrit phase-repetition code and
    (3, 3, 3) the [[9, 1, 3]] qutrit Shor code."""
    n = blocks * size
    eye = np.eye(n, dtype=np.int64)
    hz = [eye[q] + (p - 1) * eye[q + 1] for q in range(n - 1) if (q + 1) % size]
    hx = [eye[i * size : (i + 2) * size].sum(axis=0) for i in range(blocks - 1)]
    return QuditCSSCode(p, n, hx, hz)


# ---------------------------------------------------------------------------
# Codeword supports


@dataclass(frozen=True, eq=False)
class SupportVector:
    """Register vector held on its support: one int8 row of p-ary digits per
    basis state (one column per qudit, rows distinct) and its amplitude.
    Lookups go through the `digits` module, so rows keep any order."""

    p: int
    digits: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "digits", np.asarray(self.digits, dtype=np.int8))

    @property
    def radices(self):
        return (self.p,) * self.digits.shape[1]

    def dense(self) -> np.ndarray:
        """The p^n vector, qudit 0 the most significant digit of its index."""
        vec = np.zeros(self.p ** self.digits.shape[1], dtype=complex)
        vec[dg.pack(self.digits[:, ::-1], self.radices)] = self.amps
        return vec


def _codeword_support(code: QuditCSSCode, logical: int) -> SupportVector:
    """Normalized equal superposition over the coset logical*x + rowspan(H_X)."""
    if not isinstance(logical, (int, np.integer)):
        raise CodeError(f"logical value must be one integer, got {logical!r}")
    x = int(logical) * code.logical_x % code.p
    amps = np.ones(len(code.x_span), dtype=complex)
    return SupportVector(code.p, (x + code.x_span) % code.p, amps / np.linalg.norm(amps))


def codewords(code: QuditCSSCode, logical) -> np.ndarray:
    """Normalized equal superposition over the coset logical*x + rowspan(H_X)
    as a dense p^n vector (qudit 0 is the most significant digit)."""
    if code.p**code.n > 3**12:
        raise CodeError("code too long for dense codewords")
    return _codeword_support(code, logical).dense()


def _conjugated(vec: SupportVector) -> SupportVector:
    """Charge conjugation of every qutrit: each digit d becomes -d."""
    return SupportVector(3, -vec.digits % 3, vec.amps)


def _monomial(vec: SupportVector, site, shift, exponents) -> SupportVector:
    """Multiply each basis state by OMEGA**exponents, then shift the digit
    of qutrit `site` by `shift`."""
    digits = vec.digits.copy()
    digits[:, site] = (digits[:, site] + shift) % 3
    return SupportVector(3, digits, vec.amps * OMEGA**exponents)


def _pauli(vec: SupportVector, site, a, b) -> SupportVector:
    """Xh^a Zh^b on qutrit `site`: the phase reads the pre-shift digit."""
    return _monomial(vec, site, a, b * vec.digits[:, site])


def stabilizer_expectations(code: QuditCSSCode, vecs) -> np.ndarray:
    """<psi|S|psi> of each vector (one row per vector, all of one support
    size) for every Z-type then X-type stabilizer.  A Z entry is a phase per
    basis state weighted by |amplitude|^2; an X entry pairs each basis state
    with its shift in the same vector (one lookup over the stacked rows,
    tagged by vector index), and a shift off the support adds zero."""
    digits = np.stack([vec.digits for vec in vecs])  # (vector, row, qudit)
    amps = np.stack([vec.amps for vec in vecs])
    omega = np.exp(2j * np.pi / code.p)
    z = np.einsum("vr,vrs->vs", np.abs(amps) ** 2, omega ** (digits @ code.H_Z.T % code.p))
    radices = (code.p,) * code.n + (len(vecs),)
    tag = np.broadcast_to(np.arange(len(vecs))[:, None, None], amps.shape + (1,))
    rows = np.concatenate([digits, tag], axis=2)
    shifts = np.zeros((len(code.H_X), 1, 1, len(radices)), dtype=np.int64)
    shifts[..., :-1] = code.H_X[:, None, None, :]  # the tag column stays
    pos = dg.find(rows.reshape(-1, len(radices)), radices, (rows + shifts) % radices)
    flat = amps.reshape(-1)
    x = np.where(pos >= 0, np.conj(flat[pos]) * amps, 0).sum(axis=2)
    return np.concatenate([z, x.T], axis=1)


def _syndromes(code, vecs):
    """Definite stabilizer syndrome of each state hit by a Pauli error."""
    vals = stabilizer_expectations(code, vecs)
    if np.any(np.abs(np.abs(vals) - 1) > 1e-9):
        raise CodeError("state has no definite syndrome")
    steps = np.round(np.angle(vals) / (2 * np.pi / code.p)).astype(np.int64) % code.p
    return list(map(tuple, steps.tolist()))


def _equivalent_errors(code, e1, e2):
    """Weight<=1 errors are interchangeable when their difference is a
    stabilizer: X parts differ by a row of `x_span`, Z parts by one of
    `z_span` (one lookup in each)."""
    diff = np.zeros((2, code.n), dtype=np.int64)  # X part, Z part
    (s1, a1, b1), (s2, a2, b2) = e1, e2
    diff[:, s1] += (a1, b1)
    diff[:, s2] -= (a2, b2)
    radices = (code.p,) * code.n
    spans = (code.x_span, code.z_span)
    return all(dg.find(span, radices, d % code.p) >= 0 for span, d in zip(spans, diff))


def correction_table(code: QuditCSSCode):
    """The code's correction table, built once per code object."""
    return code.correction_table


# ---------------------------------------------------------------------------
# Block-basis concatenated states


@dataclass
class ConcatState:
    """Joint state of an [[n^2,1,n]] Shor qubit code, compressed to one bit
    per uniform n-block, and an n-qutrit register of `default_qutrit_code(n)`
    held on its codeword support.  Branch i is the block pattern `bits[i]`
    (read-only int8, one column per block) with amplitude `amps[i]` and
    register `pool[vids[i]]`."""

    bits: np.ndarray
    amps: np.ndarray
    vids: np.ndarray  # pool index per branch
    pool: list = field(default_factory=list)  # unit-norm SupportVectors
    memo: dict = field(default_factory=dict)  # (pool index, op key) -> pool index
    syndromes: dict = field(default_factory=dict)  # pool index -> syndrome tuple

    def __post_init__(self):
        _read_only(self.bits)
        _read_only(self.amps)

    def copy(self):
        fresh = (self.vids.copy(), list(self.pool), dict(self.memo), dict(self.syndromes))
        return ConcatState(self.bits, self.amps, *fresh)


def concat_state(n: int, alpha: int, beta: int) -> ConcatState:
    """|alpha>_L |beta>_L in the block basis: the Shor codewords are exactly
    the uniform-block strings whose block pattern has parity alpha, in
    itertools.product order (concat_inner sums in this order)."""
    rows = dg.basis_rows((2,) * n)[:, ::-1]
    bits = rows[rows.sum(axis=1) % 2 == alpha % 2]
    vec = _codeword_support(default_qutrit_code(n), beta % 3)
    amps = np.full(len(bits), 1.0 / np.sqrt(2 ** (n - 1)))
    return ConcatState(bits, amps, np.zeros(len(bits), dtype=np.intp), [vec])


def combine(s1: ConcatState, s2: ConcatState, c1, c2) -> ConcatState:
    """c1*s1 + c2*s2 for states with disjoint block patterns."""
    if np.any(dg.find(s1.bits, (2,) * s1.bits.shape[1], s2.bits) >= 0):
        raise CodeError("block patterns overlap")
    return ConcatState(
        np.vstack([s1.bits, s2.bits]),
        np.concatenate([c1 * s1.amps, c2 * s2.amps]),
        np.concatenate([s1.vids, s2.vids + len(s1.pool)]),
        s1.pool + s2.pool,
    )


def concat_inner(s1: ConcatState, s2: ConcatState) -> complex:
    total = 0.0
    overlaps = {}  # (pool index, pool index) -> register overlap
    match = dg.find(s2.bits, (2,) * s2.bits.shape[1], s1.bits)
    for a1, i1, j in zip(s1.amps, s1.vids.tolist(), match.tolist()):
        if j < 0:
            continue
        i2 = int(s2.vids[j])
        if (i1, i2) not in overlaps:
            v1, v2 = s1.pool[i1], s2.pool[i2]
            overlaps[(i1, i2)] = dg.overlap(v1.digits, v1.amps, v2.digits, v2.amps, v1.radices)
        # a running sum in s1's row order: printed deviations read its last bits
        total += np.conj(a1) * s2.amps[j] * overlaps[(i1, i2)]
    return complex(total)


def _transform_pool(state, rows, key, op):
    """Apply `op` (vector -> vector) to the branches of the boolean mask
    `rows`, sharing transformed vectors across branches and across layers;
    new vectors join the pool in first-seen branch order."""
    distinct, first, inverse = np.unique(state.vids[rows], return_index=True, return_inverse=True)
    for vid in distinct[np.argsort(first)].tolist():
        if (vid, key) not in state.memo:
            state.pool.append(op(state.pool[vid]))
            state.memo[(vid, key)] = len(state.pool) - 1
    state.vids[rows] = np.array([state.memo[(vid, key)] for vid in distinct.tolist()])[inverse]


def apply_qutrit_pauli(state: ConcatState, site: int, a: int, b: int):
    """Physical Xh^a Zh^b error on one qutrit (acts on every branch)."""
    everywhere = np.ones(len(state.vids), dtype=bool)
    _transform_pool(state, everywhere, ("pauli", site, a, b), lambda v: _pauli(v, site, a, b))


def error_correct(state: ConcatState):
    """Qutrit recovery: read the stabilizer syndrome of each distinct
    register vector, once per pool vector, batched (the vectors that no
    earlier recovery of this state read, in one call), and undo the unique
    weight<=1 error it identifies."""
    code = default_qutrit_code(state.bits.shape[1])
    table = correction_table(code)
    vids = sorted(set(state.vids.tolist()))
    new = [vid for vid in vids if vid not in state.syndromes]
    if new:
        state.syndromes.update(zip(new, _syndromes(code, [state.pool[vid] for vid in new])))
    report = []
    corrections = {}
    for vid in vids:
        syn = state.syndromes[vid]
        if syn not in table:
            report.append({"syndrome": syn, "correction": None})
            continue
        site, a, b = table[syn]
        report.append({"syndrome": syn, "correction": (site, a, b)})
        if (a, b) != (0, 0):
            corrections[vid] = (site, a, b)
    for vid, (site, a, b) in corrections.items():
        # inverse of Xh^a Zh^b up to the global phase OMEGA**(-a*b): unwind
        # the phase on the digit before the shift back
        _transform_pool(
            state,
            state.vids == vid,
            ("fix", site, a, b),
            lambda vec: _monomial(vec, site, -a, -b * vec.digits[:, site] % 3),
        )
    return report


# ---------------------------------------------------------------------------
# Logical controlled conjugation


# length -> (blocks, size) of the reference qutrit Shor-type code of that length
QUTRIT_CODES = MappingProxyType({3: (1, 3), 9: (3, 3)})


@functools.cache
def default_qutrit_code(n: int) -> QuditCSSCode:
    """The reference qutrit code of length n, one object per length, so its
    cached tables are built once per process."""
    if n not in QUTRIT_CODES:
        raise CodeError(f"no reference qutrit code of length {n}")
    return shor_code(3, *QUTRIT_CODES[n])


def _check_errors(n, errors):
    """Reject a fault the schedule would never inject or that is the identity."""
    for fault in errors:
        after, site, a, b = fault
        if not all(isinstance(v, (int, np.integer)) for v in fault):
            raise CodeError(f"fault {fault} must be four integers")
        if not (0 <= after < n and 0 <= site < n):
            raise CodeError(
                f"fault {fault} needs 0 <= after_block < {n} and 0 <= site < {n}"
            )
        if (a % 3, b % 3) == (0, 0):
            raise CodeError(f"fault {fault} is the identity: (a, b) = (0, 0) mod 3")


def apply_schedule(n: int, state: ConcatState, errors=()):
    """Logical controlled conjugation over n qubit blocks, held as one bit
    per uniform Shor block (no qubit code is built).  Layer `block`
    conjugates every branch whose block bit is 1; `errors` lists
    (after_block, site, a, b) qutrit faults injected right after a layer."""
    if n % 2 == 0:
        raise CodeError(
            "even block count is rejected: 2^q mod 3 alternates with the "
            "parity of q, so only an odd number of blocks reproduces the "
            "logical conjugation"
        )
    _check_errors(n, errors)
    recover = default_qutrit_code(n).distance >= 3
    state = state.copy()
    report = {"recoveries": [], "uncorrectable": 0}
    for block in range(n):
        if block and recover:
            rec = error_correct(state)
            report["recoveries"].append(rec)
            report["uncorrectable"] += sum(1 for r in rec if r["correction"] is None)
        _transform_pool(state, state.bits[:, block] == 1, ("conj",), _conjugated)
        for after, site, a, b in errors:
            if after == block:
                apply_qutrit_pauli(state, site, a, b)
    return state, report


def verify_logical_action(n: int, errors=()):
    """Largest deviation of |<expected|achieved>| from 1 over all logical
    basis pairs plus one two-branch superposition (phase coherence), and the
    report of all seven runs: their recoveries in run order and their summed
    uncorrectable count."""
    c = 1 / np.sqrt(2)
    runs = [
        (concat_state(n, alpha, beta), concat_state(n, alpha, (1 + alpha) * beta % 3))
        for alpha in (0, 1)
        for beta in (0, 1, 2)
    ]
    runs.append(
        (
            combine(concat_state(n, 0, 1), concat_state(n, 1, 1), c, c),
            combine(concat_state(n, 0, 1), concat_state(n, 1, 2), c, c),
        )
    )
    worst = 0.0
    report = {"recoveries": [], "uncorrectable": 0}
    for inp, want in runs:
        out, run = apply_schedule(n, inp, errors)
        report["recoveries"] += run["recoveries"]
        report["uncorrectable"] += run["uncorrectable"]
        worst = max(worst, abs(1 - abs(concat_inner(want, out))))
    return worst, report


# (a, b) of each named single-qutrit fault Xh^a Zh^b (_pauli)
ERROR_KINDS = MappingProxyType({"Xh": (1, 0), "Zh": (0, 1), "XhZh": (1, 1)})


def fault_tolerance_demo(n: int, error_site, error_kind, after_block: int = 1):
    """Inject one physical qutrit Pauli, named in ERROR_KINDS, between two
    transversal layers and report whether recovery restores the exact
    logical action."""
    d = default_qutrit_code(n).distance
    if d < 3:
        raise CodeError(
            f"qutrit code distance {d} < 3: a single physical error is not "
            "guaranteed correctable, so the demonstration is rejected"
        )
    if error_kind not in ERROR_KINDS:
        raise CodeError(
            f"unknown error kind {error_kind!r}; expected one of {sorted(ERROR_KINDS)}"
        )
    errors = ((after_block, int(error_site)) + ERROR_KINDS[error_kind],)
    deviation, report = verify_logical_action(n, errors)
    return {
        "n": n,
        "errors": errors,
        "deviation": deviation,
        "uncorrectable": report["uncorrectable"],
        "ok": deviation < 1e-9 and report["uncorrectable"] == 0,
    }


# ---------------------------------------------------------------------------
# Obstruction to the naive transversal construction


def schur_obstruction_check(code: QuditCSSCode, a=None):
    """Test whether component-wise multiplication by `a` preserves the
    codeword-support space ker(H_Z); with a=None, scan all vectors and
    report whether only scalar multiples of the identity survive."""
    if code.n > 9:
        raise CodeError("obstruction scan enumerated for n <= 9 only")
    basis = kernel_basis(code.H_Z, code.p)

    def witness(vec):
        # the support space is exactly ker(H_Z); None when `vec` preserves it
        for h in basis:
            w = tuple(np.array(vec) * h % code.p)
            if np.any(code.H_Z @ np.array(w) % code.p):
                return {"a": tuple(int(d) for d in vec), "h": tuple(int(d) for d in h), "wedge": w}
        return None

    if a is not None:
        a = tuple(int(d) % code.p for d in a)
        found = witness(a)
        return {"a": a, "preserved": found is None, "witness": found}
    witnesses = {vec: witness(vec) for vec in itertools.product(range(code.p), repeat=code.n)}
    preserving = [vec for vec, w in witnesses.items() if w is None]
    first_witness = next((w for w in witnesses.values() if w is not None), None)
    scalars = {tuple([c] * code.n) for c in range(code.p)}
    return {
        "preserving": tuple(preserving),
        "only_scalar_multiples": set(preserving) <= scalars,
        "witness": first_witness,
    }


def naive_transversal_check(qubit_code: QuditCSSCode, qutrit_code: QuditCSSCode):
    """Apply plain transversal controlled conjugation between two equal
    length codes and measure the leakage out of the joint code space."""
    if qubit_code.n != qutrit_code.n:
        raise CodeError("codes must share the same length")
    n = qubit_code.n
    if 2**n * 3**n > 2**8 * 3**8:
        raise CodeError("joint space too large")
    logical = [
        np.kron(codewords(qubit_code, al), codewords(qutrit_code, be))
        for al in range(2)
        for be in range(3)
    ]
    # column c of both tables is qudit n-1-c, so a row's key is its index in
    # the dense codewords (qudit 0 most significant)
    bits = dg.basis_rows((2,) * n)
    digits = dg.basis_rows((3,) * n)
    dim3 = 3**n
    worst = 0.0
    for vec in logical:
        out = np.zeros_like(vec)
        for s in range(2**n):
            block = vec[s * dim3 : (s + 1) * dim3]
            if not block.any():
                continue
            signs = np.where(bits[s] == 1, -1, 1)
            out[s * dim3 + dg.pack((digits * signs) % 3, (3,) * n)] = block
        proj = sum(v * np.vdot(v, out) for v in logical)
        worst = max(worst, float(np.linalg.norm(out - proj)))
    return {"leakage": worst}
