"""Gate-level qutrit-qubit circuits for the group-algebra lattice model.

Each lattice edge carries one qutrit (the mu exponent) and one qubit (the
sigma exponent), so every edge operator becomes a small circuit over dimension
2 and 3 wires.  The module provides

* one interpreter for adaptive circuits (classically controlled gates,
  mid-circuit measurement, ancilla allocation and trace-out) on a sparse
  register, a `digits` vector (one int8 row per stored basis state, one
  column per wire, and its amplitude): `_step` returns every branch of one op,
  `simulate` follows one sampled trajectory through it and `channel_kraus`
  enumerates every branch,
* builders for the single-edge group multiplication / projection circuits,
  for the two-edge anyon-pair ribbon circuits of every anyon type, and for
  the adaptive charge-measurement circuit at a lattice site,
* channel extraction by branch enumeration and Choi-matrix equivalence
  checking against operator-level oracles,
* exact conversion between a lattice state's stored terms and the register
  (edge e's group index g = k + 3l splits into qutrit wire 2e = k and qubit
  wire 2e+1 = l), so the charge-measurement circuit runs on the sparse state.

Every gate kind is a monomial, so a gate is a lookup on the digits of its
wires plus a phase.  The charge-conjugation gate CC (qubit-controlled qutrit
inversion) is the only non-Clifford gate kind; every other kind is a
qubit/qutrit Pauli or a controlled Pauli.  Maximally mixed ancillas are
realized as uniformly sampled computational basis states (trajectory
unraveling of the trace-out channel); outcomes are drawn with `sampling`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import digits as dg
from . import lattice as lat
from . import sampling
from .algebra import (
    ELEMENTS,
    GroupElement,
    OMEGA,
    ORDER,
)

PRUNE = 1e-13


class CircuitError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Gate inventory


def _c_order(digits, dims) -> np.ndarray:
    """Index of each row in the C-order basis of `dims` (wire 0 slowest) that
    gate unitaries and Kraus operators use: the key of the reversed row."""
    return dg.pack(digits[:, ::-1], tuple(dims)[::-1])


def _monomial_powers(dims, period, action):
    """Powers U^0 .. U^(period-1) of the monomial gate on wires of `dims`
    with U^p |x> = phase |y> for (y, phase) = action(p, *x).  Each power is a
    read-only (target, phase) pair over the local basis in key order: x the
    i-th row of basis_rows(dims) goes to phase[i] |target[i]>."""
    powers = []
    for p in range(period):
        target, phase = zip(*(action(p, *x) for x in dg.basis_rows(dims).tolist()))
        target, phase = np.array(target, dtype=np.int8), np.array(phase, dtype=complex)
        target.setflags(write=False)
        phase.setflags(write=False)
        powers.append((target, phase))
    return tuple(dims), tuple(powers)


# kind -> (wire dims, powers); multi-wire kinds list the control wire first
_GATES = {
    "X": _monomial_powers((2,), 2, lambda p, t: (((t + p) % 2,), 1)),
    "Z": _monomial_powers((2,), 2, lambda p, t: ((t,), (-1) ** (p * t))),
    "Xh": _monomial_powers((3,), 3, lambda p, k: (((k + p) % 3,), 1)),
    "Zh": _monomial_powers((3,), 3, lambda p, k: ((k,), OMEGA ** (p * k))),
    "Ch": _monomial_powers((3,), 2, lambda p, k: (((-1) ** p * k % 3,), 1)),
    "CX": _monomial_powers((2, 2), 2, lambda p, c, t: ((c, (t + p * c) % 2), 1)),
    "CXh": _monomial_powers((3, 3), 3, lambda p, a, b: ((a, (b + p * a) % 3), 1)),
    # |l, k> -> |l, (-1)^l k>
    "CC": _monomial_powers((2, 3), 2, lambda p, l, k: ((l, (-1) ** (p * l) * k % 3), 1)),
}

GATE_WIRE_DIMS = {kind: dims for kind, (dims, _) in _GATES.items()}

GATE_PERIOD = {kind: len(powers) for kind, (_, powers) in _GATES.items()}

NON_CLIFFORD_KINDS = frozenset({"CC"})


def _gate_entry(kind):
    if kind not in _GATES:
        raise CircuitError(f"unknown gate kind {kind!r}")
    return _GATES[kind]


def gate_unitary(kind: str, power: int = 1) -> np.ndarray:
    """U^power of a gate kind as a read-only dense matrix, built from its
    (target, phase) table entry."""
    dims, powers = _gate_entry(kind)
    target, phase = powers[power % len(powers)]
    u = np.zeros((len(target), len(target)), dtype=complex)
    u[_c_order(target, dims), _c_order(dg.basis_rows(dims), dims)] = phase
    u.setflags(write=False)
    return u


def _projector_table():
    plus2 = np.full((2, 1), 1 / np.sqrt(2), dtype=complex)
    minus2 = np.array([[1], [-1]], dtype=complex) / np.sqrt(2)
    fourier3 = [
        np.array([[OMEGA ** (j * k)] for k in range(3)], dtype=complex) / np.sqrt(3)
        for j in range(3)
    ]
    plus3 = np.full((3, 1), 1 / np.sqrt(3), dtype=complex)
    p0 = plus3 @ plus3.conj().T
    table = {("comp", d): [np.diag(row).astype(complex) for row in np.eye(d)] for d in (2, 3)}
    table["x2", 2] = [v @ v.conj().T for v in (plus2, minus2)]
    table["x3", 3] = [v @ v.conj().T for v in fourier3]
    table["ma1", 3] = [p0, np.eye(3, dtype=complex) - p0]
    for projs in table.values():
        for pr in projs:
            pr.setflags(write=False)
    return table


# (basis, wire dim) -> outcome projectors
_PROJECTORS = _projector_table()


# ---------------------------------------------------------------------------
# Classical expressions and operations


@dataclass(frozen=True)
class Expr:
    """const + scale * (sum of coeff * outcome, optionally reduced mod m)."""

    const: int = 0
    terms: tuple = ()  # ((label, coeff), ...)
    inner_mod: int = 0
    scale: int = 1

    def __call__(self, record) -> int:
        s = 0
        for label, coeff in self.terms:
            if label not in record:
                raise CircuitError(f"undefined outcome label {label!r}")
            s += coeff * record[label]
        if self.inner_mod:
            s %= self.inner_mod
        return self.const + self.scale * s


E1 = Expr(1)


@dataclass(frozen=True)
class Op:
    kind: str  # "gate" | "measure" | "alloc" | "free"
    gate: str = ""
    wires: tuple = ()  # ints (system) or strs (ancilla names)
    power: Expr = E1
    cond: tuple = ()  # ((label, value), ...): all must match
    basis: str = ""
    label: str = ""
    dim: int = 0
    init: str = ""


@dataclass(frozen=True)
class AdaptiveCircuit:
    """Immutable adaptive circuit over a fixed list of system wires.

    `accept`, when non-empty, marks the post-selected branch (outcome label,
    required value) used by projector-type circuits.
    """

    system_dims: tuple
    ops: tuple
    accept: tuple = ()

    def gate_kinds(self):
        return sorted({op.gate for op in self.ops if op.kind == "gate"})

    def non_clifford_kinds(self):
        return sorted(set(self.gate_kinds()) & NON_CLIFFORD_KINDS)


# ---------------------------------------------------------------------------
# Register and the op interpreter


class QuditRegister:
    """Ordered wires of dimension 2 or 3 with a sparse state: row i of the
    int8 `digits` (terms x wires) is a basis state and `amps[i]` its
    amplitude, merged by `digits.merged` (exact zeros dropped).  Without
    digits the register holds |0...0>."""

    def __init__(self, dims, digits=None, amps=None):
        self.dims = list(dims)
        if any(d not in (2, 3) for d in self.dims):
            raise CircuitError("wire dimensions must be 2 or 3")
        if digits is None:
            digits, amps = np.zeros((1, len(self.dims)), dtype=np.int8), [1.0]
        digits, amps = np.asarray(digits), np.asarray(amps, dtype=complex)
        if digits.ndim != 2 or digits.shape[1] != len(self.dims) or amps.shape != (len(digits),):
            raise CircuitError("a register needs one digit column per wire, one amplitude per row")
        if digits.dtype.kind not in "iu" or ((digits < 0) | (digits >= self.dims)).any():
            raise CircuitError("register digits must be integers below their wire dimension")
        ((self.digits, self.amps),) = dg.merged(digits.astype(np.int8), self.dims, amps[:, None], 0)
        self.record = {}

    @classmethod
    def _canonical(cls, dims, digits, amps, record):
        """Register over rows that are already distinct and nonzero, as
        `_step` leaves them: no checks and no merge."""
        reg = cls.__new__(cls)
        reg.dims, reg.digits, reg.amps, reg.record = list(dims), digits, amps, record
        return reg

    def norm(self):
        return float(np.linalg.norm(self.amps))


def _step(op, dims, names, digits, amps, record, tail=()):
    """Every branch of one op as a list of (weight, dims, names, digits, amps,
    record).  Row i of the int8 `digits` (one column per wire of `dims`, then
    one per radix of `tail`, which no op reads) is a basis state and
    `amps[i]` its amplitude; `names` maps ancilla names to wires.  No input
    is modified.

    A failed condition or a gate power of 0 returns the input; a gate looks
    up the key of its wires' digits in its (target, phase) table.  An alloc
    adds a column: `plus` tiles the rows over its values with
    amplitude/sqrt(dim), `mixed` gives one branch per value, of weight 1/dim,
    recorded under the ancilla's name.  A measurement gives one unnormalised
    branch per outcome (zero-norm ones included): each row goes through the
    nonzero entries of the projector's column, then equal rows merge
    (`digits.merged`: exact zeros dropped, ResourceError once a row no longer
    fits one key).  A free gives one branch per value: the rows with that
    value, the column dropped."""
    if any(record.get(l) != v for l, v in op.cond):
        return [(1.0, dims, names, digits, amps, record)]

    def axis(w):
        if isinstance(w, str):
            if w not in names:
                raise CircuitError(f"unknown ancilla {w!r}")
            return names[w]
        if not 0 <= w < len(dims):
            raise CircuitError(f"wire {w} out of range")
        return w

    if op.kind == "gate":
        want, powers = _gate_entry(op.gate)
        axes = [axis(w) for w in op.wires]
        if tuple(dims[a] for a in axes) != want:
            raise CircuitError(f"gate {op.gate} wire dimension mismatch")
        p = op.power(record) % len(powers)
        if not p:
            return [(1.0, dims, names, digits, amps, record)]
        target, phase = powers[p]
        local = dg.pack(digits[:, axes], want)
        out = digits.copy()
        out[:, axes] = target[local]
        return [(1.0, dims, names, out, amps * phase[local], record)]
    if op.kind == "alloc":
        if op.label in names:
            raise CircuitError(f"ancilla {op.label!r} already allocated")
        if op.dim not in (2, 3):
            raise CircuitError("wire dimensions must be 2 or 3")
        a = len(dims)
        grown = dims + [op.dim]
        named = {**names, op.label: a}
        if op.init == "mixed":
            return [
                (1.0 / op.dim, grown, named, np.insert(digits, a, o, axis=1), amps,
                 {**record, op.label: o})
                for o in range(op.dim)
            ]
        if op.init == "zero":
            return [(1.0, grown, named, np.insert(digits, a, 0, axis=1), amps, record)]
        if op.init == "plus":
            values = np.tile(np.arange(op.dim), len(digits))
            tiled = np.insert(np.repeat(digits, op.dim, axis=0), a, values, axis=1)
            return [(1.0, grown, named, tiled, np.repeat(amps * (1 / np.sqrt(op.dim)), op.dim),
                     record)]
        raise CircuitError(f"unknown ancilla init {op.init!r}")
    if op.kind == "measure":
        if len(op.wires) != 1:
            raise CircuitError("a measurement reads exactly one wire")
        a = axis(op.wires[0])
        projs = _PROJECTORS.get((op.basis, dims[a]))
        if projs is None:
            raise CircuitError(f"no {op.basis!r} measurement on a dimension-{dims[a]} wire")
        out = []
        for o, pr in enumerate(projs):
            coef = pr[:, digits[:, a]]
            y, t = np.nonzero(coef)
            projected = digits[t]
            projected[:, a] = y
            part = (projected, amps[t] * coef[y, t])
            if op.basis != "comp":
                (part,) = dg.merged(projected, dims + list(tail), part[1][:, None], 0)
            out.append((1.0, dims, names, *part, {**record, op.label: o}))
        return out
    if op.kind == "free":
        if op.label not in names:
            raise CircuitError(f"ancilla {op.label!r} not allocated")
        a = names[op.label]
        kept = dims[:a] + dims[a + 1 :]
        renamed = {n: (x - 1 if x > a else x) for n, x in names.items() if n != op.label}
        out = []
        for o in range(dims[a]):
            m = digits[:, a] == o
            out.append((1.0, kept, renamed, np.delete(digits[m], a, axis=1), amps[m], record))
        return out
    raise CircuitError(f"unknown op kind {op.kind!r}")


def simulate(circuit: AdaptiveCircuit, register: QuditRegister, rng):
    """Run one trajectory, one `_step` per op on the register's digits and
    amplitudes; returns (final register, outcome transcript).

    Every split (a mixed ancilla, a measurement, a free) draws its branch by
    the Born rule, one `sampling.draw` from the law of each branch's weight
    times its squared norm (the weights `channel_kraus` reads: 1/dim for a
    mixed ancilla's values, 1 for an outcome), and renormalises.  As in
    `channel_kraus`, ancillas must be freed before the end of the circuit; a
    trajectory that misses a non-empty `accept` raises `CircuitError`
    naming the label."""
    if tuple(register.dims[: len(circuit.system_dims)]) != tuple(circuit.system_dims):
        raise CircuitError("register does not match circuit system wires")
    dims, names, record = list(register.dims), {}, dict(register.record)
    digits, amps = register.digits, register.amps
    for op in circuit.ops:
        branches = _step(op, dims, names, digits, amps, record)
        if len(branches) == 1:
            _, dims, names, digits, amps, record = branches[0]
        else:
            norms = [float(np.vdot(b[4], b[4]).real) for b in branches]
            o = sampling.draw(sampling.law([b[0] * n for b, n in zip(branches, norms)]), rng)
            _, dims, names, digits, amps, record = branches[o]
            amps = amps / np.sqrt(norms[o])
    if names:
        raise CircuitError(f"ancillas never freed: {sorted(names)}")
    for label, want in circuit.accept:
        if record.get(label) != want:
            raise CircuitError(
                f"trajectory rejected: {label}={record.get(label)}, accept needs {label}={want}"
            )
    # _step keeps the rows of a register distinct and nonzero
    return QuditRegister._canonical(dims, digits, amps, record), dict(record)


# ---------------------------------------------------------------------------
# Channel extraction and equivalence


def channel_kraus(circuit: AdaptiveCircuit):
    """All (weight, Kraus) branches of the circuit channel on its system
    wires, depth first; a split drops its branches of norm below PRUNE.
    Ancillas must be freed before the end of the circuit.  The walk starts
    from the sys_dim basis states in C order, each term's input state
    repeated in tail columns, and scatters each leaf into a sys_dim x
    sys_dim matrix."""
    sys_dims = list(circuit.system_dims)
    sys_dim = math.prod(sys_dims)
    basis = dg.basis_rows(sys_dims[::-1])[:, ::-1]
    digits = np.hstack([basis, basis])
    out = []
    stack = [(1.0, sys_dims, {}, digits, np.ones(sys_dim, dtype=complex), {}, 0)]
    while stack:
        weight, dims, names, digits, amps, record, i = stack.pop()
        if i == len(circuit.ops):
            if names:
                raise CircuitError(f"ancillas never freed: {sorted(names)}")
            if all(record.get(l) == v for l, v in circuit.accept):
                kraus = np.zeros((sys_dim, sys_dim), dtype=complex)
                rows, cols = digits[:, : len(sys_dims)], digits[:, -len(sys_dims) :]
                kraus[_c_order(rows, sys_dims), _c_order(cols, sys_dims)] = amps
                out.append((weight, kraus))
            continue
        branches = _step(circuit.ops[i], dims, names, digits, amps, record, sys_dims)
        for w, new_dims, new_names, new_digits, new_amps, rec in branches:
            if len(branches) == 1 or np.linalg.norm(new_amps) >= PRUNE:
                stack.append((weight * w, new_dims, new_names, new_digits, new_amps, rec, i + 1))
    return out


def _choi_rows(weighted_kraus):
    """(w, V) with the trace-normalized Choi matrix of
    sum_i w_i K_i rho K_i^dag equal to (V^T * w) @ conj(V).

    The vectorised Kraus operators are stacked as the rows of V (n x d^2).
    The trace w . sum_j |V_ij|^2 is folded into the returned weights.
    """
    branches = list(weighted_kraus)
    w = np.array([wi for wi, _ in branches])
    v = np.array([np.asarray(k, dtype=complex).reshape(-1) for _, k in branches])
    tr = w @ np.sum(np.abs(v) ** 2, axis=1) if branches else 0.0
    if abs(tr) < PRUNE:
        raise CircuitError("channel is identically zero")
    return w / tr, v


def choi_matrix(weighted_kraus) -> np.ndarray:
    """Trace-normalized Choi matrix of sum_i w_i K_i rho K_i^dag, as one
    product of the stacked Kraus rows (see _choi_rows)."""
    w, v = _choi_rows(weighted_kraus)
    return (v.T * w) @ v.conj()


def check_equivalence(circuit: AdaptiveCircuit, operator_kraus) -> float:
    """Frobenius norm of the difference of the trace-normalized Choi matrices
    of the circuit channel (ancillas traced out) and the operator channel
    sum_i K_i rho K_i^dag; it bounds each entry's difference from above.

    The difference is V^T W conj(V), V both channels' stacked Kraus rows and
    W their weights, the operator side's negated.  Q of the reduced QR
    V^T = Q R has orthonormal columns, so the norm is that of the small
    R W R^H and the d^2 x d^2 difference is never formed.  The three-edge
    limit keeps one Kraus row at 216^2 = 46,656 entries (0.7 MiB)."""
    sys_dim = int(np.prod(circuit.system_dims))
    if sys_dim > 216:
        raise CircuitError(
            f"equivalence support exceeds three edges (system dimension {sys_dim}, limit 216)"
        )
    w_circ, v_circ = _choi_rows(channel_kraus(circuit))
    w_op, v_op = _choi_rows([(1.0, k) for k in operator_kraus])
    w = np.concatenate([w_circ, -w_op])
    r = np.linalg.qr(np.concatenate([v_circ, v_op]).T, mode="r")
    return float(np.linalg.norm((r * w) @ r.conj().T))


# ---------------------------------------------------------------------------
# Basis conversion between group digits and qutrit/qubit pairs


def _wire_digits(g):
    """Wire digits (terms x 2 edges) of group digits (terms x edges): edge e's
    g = k + 3l goes to its qutrit wire 2e as k, its qubit wire 2e+1 as l."""
    return np.stack([g % 3, g // 3], axis=2).reshape(len(g), -1)


def group_to_pair_perm(n_edges: int) -> np.ndarray:
    """perm[group_index] = circuit_index for n_edges edges: a group index is a
    lattice key, a circuit index packs the wires in C order (wire 0 slowest)."""
    return _c_order(_wire_digits(dg.basis_rows((ORDER,) * n_edges)), (3, 2) * n_edges)


def group_matrix_to_circuit(mat: np.ndarray, n_edges: int) -> np.ndarray:
    perm = group_to_pair_perm(n_edges)
    out = np.zeros_like(mat)
    out[np.ix_(perm, perm)] = mat
    return out


# ---------------------------------------------------------------------------
# Single-edge group multiplication / projection circuits


def _edge_wires(edge_slot):
    return 2 * edge_slot, 2 * edge_slot + 1


def _l_plus_ops(g: GroupElement, qt, qb):
    ops = []
    for _ in range(g.l):
        ops.append(Op("gate", gate="Ch", wires=(qt,)))
        ops.append(Op("gate", gate="X", wires=(qb,)))
    if g.k:
        ops.append(Op("gate", gate="Xh", wires=(qt,), power=Expr(g.k)))
    return ops


def _l_minus_ops(g: GroupElement, qt, qb):
    ops = []
    for _ in range(g.l):
        ops.append(Op("gate", gate="X", wires=(qb,)))
    if g.k:
        # Xh^{-kZ} = CC Xh^{-k} CC
        ops.append(Op("gate", gate="CC", wires=(qb, qt)))
        ops.append(Op("gate", gate="Xh", wires=(qt,), power=Expr(-g.k)))
        ops.append(Op("gate", gate="CC", wires=(qb, qt)))
    return ops


def build_LT_circuit(kind: str, g: GroupElement, sign: str) -> AdaptiveCircuit:
    """Single-edge circuit: kind "L" (group multiplication, unitary) or "T"
    (group-element projector via basis-change + computational measurement),
    each with orientation sign "+" or "-"."""
    qt, qb = _edge_wires(0)
    if kind == "L":
        ops = _l_plus_ops(g, qt, qb) if sign == "+" else _l_minus_ops(g, qt, qb)
        return AdaptiveCircuit((3, 2), tuple(ops))
    if kind != "T" or sign not in "+-":
        raise CircuitError(f"unknown circuit {kind}{sign}")
    ops = []
    want_k, want_l = g.k, g.l
    if sign == "-":
        # reading against orientation: measure after (Ch x I) CC, then the
        # computational outcome equals (k_g, l_g) exactly on the g-inverse slot
        ops.append(Op("gate", gate="CC", wires=(qb, qt)))
        ops.append(Op("gate", gate="Ch", wires=(qt,)))
    ops.append(Op("measure", wires=(qt,), basis="comp", label="k"))
    ops.append(Op("measure", wires=(qb,), basis="comp", label="l"))
    if sign == "-":
        ops.append(Op("gate", gate="Ch", wires=(qt,)))
        ops.append(Op("gate", gate="CC", wires=(qb, qt)))
    return AdaptiveCircuit((3, 2), tuple(ops), accept=(("k", want_k), ("l", want_l)))


def lt_operator(kind: str, g: GroupElement, sign: str) -> np.ndarray:
    """Operator oracle in the circuit basis of one edge."""
    mat = np.zeros((ORDER, ORDER), dtype=complex)
    for m in ELEMENTS:
        if kind == "L":
            tgt = (g * m) if sign == "+" else (m * g.inverse())
            mat[tgt.index, m.index] = 1.0
        else:
            keep = g if sign == "+" else g.inverse()
            mat[m.index, m.index] = 1.0 if m == keep else 0.0
    return group_matrix_to_circuit(mat, 1)


# ---------------------------------------------------------------------------
# Anyon-pair ribbon circuits (two edges)

# Zh exponent of the three-fold-flux pair circuits by anyon letter.
_TWIST_PHASE = {"F": 0, "G": 1, "H": -1}


def _c_anyon_ops(t_qt, t_qb, zh_sign):
    """Shared layout of the two-dimensional-irrep trivial-flux circuit: a
    mixed qubit ancilla fixes one matrix index, the flux-edge qubit
    measurement the other, and a qutrit phase Zh^{sign*(u+1)} completes it."""
    u_terms = (("m", 1), ("mv", -1))
    return [
        Op("alloc", label="mv", dim=2, init="mixed"),
        Op("measure", wires=(t_qb,), basis="comp", label="m"),
        Op("gate", gate="Zh", wires=(t_qt,), power=Expr(zh_sign, u_terms, 2, zh_sign)),
        Op("free", label="mv"),
    ]


def _de_anyon_ops(anyon, meas_qt, meas_qb, mult_qt, mult_qb, measure_sign):
    """Two-dimensional-flux pair circuit: a mixed qutrit ancilla picks the
    free class index, the flux edge gets the group multiplication, and the
    other edge is projected in the paired-charge frame.

    The exact channel keeps the charge-sign coherence on the projected edge,
    so only the qutrit is measured there (plus a frame qubit-flip for the
    negative charge).  With measure_sign=True the qubit is additionally
    measured in the X basis with an adaptive Pauli-Z on one outcome; that
    variant dephases the charge sign, so it heralds which of the two charges
    in the class was created (the fix-up branch lands on the partner charge
    at the far site) instead of reproducing the exact channel."""
    v = Expr(0, (("mu", 1),))
    frame = [
        Op("gate", gate="CC", wires=(meas_qb, meas_qt)),
        Op("gate", gate="Xh", wires=(meas_qt,), power=Expr(0, (("mu", -1),))),
        Op("gate", gate="CC", wires=(meas_qb, meas_qt)),
        Op("gate", gate="Ch", wires=(meas_qt,)),
    ]
    unframe = [
        Op("gate", gate="Ch", wires=(meas_qt,)),
        Op("gate", gate="CC", wires=(meas_qb, meas_qt)),
        Op("gate", gate="Xh", wires=(meas_qt,), power=v),
        Op("gate", gate="CC", wires=(meas_qb, meas_qt)),
    ]
    ops = [
        Op("alloc", label="mu", dim=3, init="mixed"),
        # multiplication edge: (Xh^v Ch) x X
        Op("gate", gate="Ch", wires=(mult_qt,)),
        Op("gate", gate="Xh", wires=(mult_qt,), power=v),
        Op("gate", gate="X", wires=(mult_qb,)),
    ]
    ops += frame
    ops.append(Op("measure", wires=(meas_qt,), basis="comp", label="u"))
    if measure_sign:
        ops.append(Op("measure", wires=(meas_qb,), basis="x2", label="x"))
        # wrong-sign outcome: the adaptive Pauli-Z heralds the partner charge
        power = Expr(0, (("x", 1),)) if anyon == "D" else Expr(1, (("x", -1),))
        ops.append(Op("gate", gate="Z", wires=(meas_qb,), power=power))
    elif anyon == "E":
        # negative charge: swap the paired charge states (Z flips |+> <-> |->)
        ops.append(Op("gate", gate="Z", wires=(meas_qb,)))
    ops += unframe
    ops.append(Op("free", label="mu"))
    return ops


def _fgh_anyon_ops(anyon, t_qt, t_qb, l_qt, zh_sign):
    """Three-fold-flux pair circuit: mixed qubit ancilla plus flux-edge qubit
    measurement fix the centralizer character phase on the flux edge while the
    other edge gets the qutrit shift."""
    r = _TWIST_PHASE[anyon]
    ops = [
        Op("alloc", label="mv", dim=2, init="mixed"),
        Op("gate", gate="Xh", wires=(l_qt,), power=Expr(1, (("mv", 1),))),
        Op("measure", wires=(t_qb,), basis="comp", label="z"),
    ]
    if r:
        power = Expr(zh_sign * r, (("z", 1), ("mv", -1)), 2, zh_sign * r)
        ops.append(Op("gate", gate="Zh", wires=(t_qt,), power=power))
    ops.append(Op("free", label="mv"))
    return ops


def build_ribbon_circuit(
    anyon: str, orientation: str, measure_sign: bool = False
) -> AdaptiveCircuit:
    """Anyon-pair circuit on the two edges of a shortest ribbon.

    System wires: (edge-a qutrit, edge-a qubit, edge-b qutrit, edge-b qubit)
    where edge a is the horizontal edge and edge b the vertical edge of the
    ribbon, matching `ribbon_support` ordering.
    """
    if orientation not in ("h", "v"):
        raise CircuitError("orientation must be 'h' or 'v'")
    # horizontal ribbon: edge a read (flux), edge b multiplied
    # vertical ribbon:   edge a multiplied, edge b read against orientation
    a_qt, a_qb = _edge_wires(0)
    b_qt, b_qb = _edge_wires(1)
    if orientation == "h":
        t_qt, t_qb, l_qt, l_qb, zh_sign = a_qt, a_qb, b_qt, b_qb, 1
    else:
        t_qt, t_qb, l_qt, l_qb, zh_sign = b_qt, b_qb, a_qt, a_qb, -1
    if anyon == "A":
        ops = []
    elif anyon == "B":
        ops = [Op("gate", gate="Z", wires=(t_qb,))]
    elif anyon == "C":
        ops = _c_anyon_ops(t_qt, t_qb, zh_sign)
    elif anyon in ("D", "E"):
        ops = _de_anyon_ops(anyon, t_qt, t_qb, l_qt, l_qb, measure_sign)
    elif anyon in ("F", "G", "H"):
        ops = _fgh_anyon_ops(anyon, t_qt, t_qb, l_qt, zh_sign)
    else:
        raise CircuitError(f"unknown anyon {anyon!r}")
    return AdaptiveCircuit((3, 2, 3, 2), tuple(ops))


def ribbon_support(ribbon):
    """(horizontal edge, vertical edge) lattice indices of a shortest ribbon,
    in the wire order used by build_ribbon_circuit."""
    return tuple(t.edge for t in ribbon.triangles)


def embed_ribbon_circuit(circuit: AdaptiveCircuit, lattice, ribbon) -> AdaptiveCircuit:
    """Remap a two-edge ribbon circuit onto the full lattice register."""
    ea, eb = ribbon_support(ribbon)
    wire_map = {0: 2 * ea, 1: 2 * ea + 1, 2: 2 * eb, 3: 2 * eb + 1}
    ops = tuple(
        replace(op, wires=tuple(wire_map.get(w, w) for w in op.wires))
        for op in circuit.ops
    )
    return AdaptiveCircuit((3, 2) * lattice.n_edges, ops, circuit.accept)


def ribbon_operator_kraus(lattice, ribbon, anyon: str):
    """Operator-level Kraus branches of the internally mixed pair channel, in
    the circuit basis of the two support edges."""
    mats = lat.ribbon_operator_matrices(
        lattice, ribbon_support(ribbon), lambda st: lat.anyon_ribbon_branches(st, ribbon, anyon)
    )
    return [group_matrix_to_circuit(mat, 2) for mat in mats if np.linalg.norm(mat) > PRUNE]


# ---------------------------------------------------------------------------
# Site charge-measurement circuit (adaptive, four stages)


def _flux_parity_ops(lattice, site):
    """Qubit ancilla accumulates the sigma-parity of the plaquette flux."""
    ops = [Op("alloc", label="fp", dim=2, init="zero")]
    for e in lattice.plaquette_edges(site):
        ops.append(Op("gate", gate="CX", wires=(2 * e + 1, "fp")))
    ops.append(Op("measure", wires=("fp",), basis="comp", label="l"))
    ops.append(Op("free", label="fp"))
    return ops


def _flux_exponent_ops(lattice, site):
    """Qutrit ancilla accumulates the mu-exponent of the plaquette flux, with
    the signs of the right/top edges conditioned on the measured parity l."""
    le, be, re, te = lattice.plaquette_edges(site)
    sign_lt = Expr(-1, (("l", 2),))  # -1 on even parity, +1 on odd
    ops = [Op("alloc", label="fk", dim=3, init="zero")]
    ops.append(Op("gate", gate="CXh", wires=(2 * le, "fk")))
    ops.append(Op("gate", gate="CC", wires=(2 * le + 1, 2 * be)))
    ops.append(Op("gate", gate="CXh", wires=(2 * be, "fk")))
    ops.append(Op("gate", gate="CC", wires=(2 * le + 1, 2 * be)))
    ops.append(Op("gate", gate="CC", wires=(2 * te + 1, 2 * re)))
    ops.append(Op("gate", gate="CXh", wires=(2 * re, "fk"), power=sign_lt))
    ops.append(Op("gate", gate="CC", wires=(2 * te + 1, 2 * re)))
    ops.append(Op("gate", gate="CXh", wires=(2 * te, "fk"), power=sign_lt))
    ops.append(Op("measure", wires=("fk",), basis="comp", label="k"))
    ops.append(Op("free", label="fk"))
    return ops


def _controlled_mu_ops(lattice, site, anc, power, cond):
    """Gates entangling ancilla `anc` with the gauge rotation by mu^power
    (power may be an Expr for a qutrit ancilla, or an int scaled through the
    qubit-control decomposition)."""
    ops = []
    for e, starts in lattice.star(site):
        p = power if starts else _neg(power)
        if not starts:
            ops.append(Op("gate", gate="CC", wires=(2 * e + 1, 2 * e), cond=cond))
        ops.append(Op("gate", gate="CXh", wires=(anc, 2 * e), power=p, cond=cond))
        if not starts:
            ops.append(Op("gate", gate="CC", wires=(2 * e + 1, 2 * e), cond=cond))
    return ops


def _neg(expr: Expr) -> Expr:
    return Expr(-expr.const, tuple((l, -c) for l, c in expr.terms), expr.inner_mod, -expr.scale)


def _qubit_controlled_mu_ops(lattice, site, anc, k, cond):
    """Qubit-controlled gauge rotation by mu^k: C_a Xh^p = Xh^{2p} CC Xh^p CC
    per edge, charge-conjugation-sandwiched on edges ending at the vertex."""
    ops = []
    for e, starts in lattice.star(site):
        p = k if starts else -k
        seq = [
            Op("gate", gate="CC", wires=(anc, 2 * e), cond=cond),
            Op("gate", gate="Xh", wires=(2 * e,), power=Expr(p), cond=cond),
            Op("gate", gate="CC", wires=(anc, 2 * e), cond=cond),
            Op("gate", gate="Xh", wires=(2 * e,), power=Expr(2 * p), cond=cond),
        ]
        if not starts:
            cc = Op("gate", gate="CC", wires=(2 * e + 1, 2 * e), cond=cond)
            seq = [cc] + seq + [cc]
        ops.extend(seq)
    return ops


def _controlled_sigma_ops(lattice, site, anc, cond):
    """Qubit-controlled gauge rotation by sigma."""
    ops = []
    for e, starts in lattice.star(site):
        if starts:
            ops.append(Op("gate", gate="CC", wires=(anc, 2 * e), cond=cond))
        ops.append(Op("gate", gate="CX", wires=(anc, 2 * e + 1), cond=cond))
    return ops


def build_K_circuit(lattice, site) -> AdaptiveCircuit:
    """Adaptive charge measurement at a lattice site over the full lattice
    register (wires 2e, 2e+1 for edge e).

    Stage 1 measures the flux parity l, stage 2 the flux exponent k, and the
    final stage measures the appropriate gauge rotation: the trivial-flux
    branch distinguishes A/B/C, the two-fold-flux branch D/E, and the
    three-fold-flux branch F/G/H.  `classify_K_transcript` maps the
    transcript to the anyon letter.
    """
    ops = []
    ops += _flux_parity_ops(lattice, site)
    ops += _flux_exponent_ops(lattice, site)

    # trivial flux: coarse mu-rotation measurement, then sigma on the flat branch
    cond_e = (("l", 0), ("k", 0))
    ops.append(Op("alloc", label="am", dim=3, init="plus", cond=cond_e))
    ops += _controlled_mu_ops(lattice, site, "am", Expr(1), cond_e)
    ops.append(Op("measure", wires=("am",), basis="ma1", label="a1", cond=cond_e))
    ops.append(Op("free", label="am", cond=cond_e))
    cond_ab = cond_e + (("a1", 0),)
    ops.append(Op("alloc", label="as", dim=2, init="plus", cond=cond_ab))
    ops += _controlled_sigma_ops(lattice, site, "as", cond_ab)
    ops.append(Op("measure", wires=("as",), basis="x2", label="s", cond=cond_ab))
    ops.append(Op("free", label="as", cond=cond_ab))

    # two-fold flux mu^k sigma: measure the matching gauge rotation sign
    for k in range(3):
        cond = (("l", 1), ("k", k))
        ops.append(Op("alloc", label="ac", dim=2, init="plus", cond=cond))
        ops += _controlled_sigma_ops(lattice, site, "ac", cond)
        if k:
            ops += _qubit_controlled_mu_ops(lattice, site, "ac", k, cond)
        ops.append(Op("measure", wires=("ac",), basis="x2", label="s", cond=cond))
        ops.append(Op("free", label="ac", cond=cond))

    # three-fold flux mu^k: measure the matching mu-rotation phase
    for k in (1, 2):
        cond = (("l", 0), ("k", k))
        ops.append(Op("alloc", label="aw", dim=3, init="plus", cond=cond))
        ops += _controlled_mu_ops(lattice, site, "aw", Expr(k), cond)
        ops.append(Op("measure", wires=("aw",), basis="x3", label="a2", cond=cond))
        ops.append(Op("free", label="aw", cond=cond))

    return AdaptiveCircuit((3, 2) * lattice.n_edges, tuple(ops))


def classify_K_transcript(record) -> str:
    l, k = record["l"], record["k"]
    if l == 0 and k == 0:
        if record["a1"] == 1:
            return "C"
        return "A" if record["s"] == 0 else "B"
    if l == 1:
        return "D" if record["s"] == 0 else "E"
    return "FGH"[record["a2"]]


# ---------------------------------------------------------------------------
# Lattice-state interop


def register_from_lattice(state) -> QuditRegister:
    """Register of a lattice state's stored terms (orbit representatives
    under its uniform set), edge e on wires 2e and 2e+1 (see _wire_digits)."""
    return QuditRegister((3, 2) * state.lattice.n_edges, _wire_digits(state.digits), state.amps)


def lattice_from_register(reg: QuditRegister, lattice, uniform=frozenset()):
    """Inverse of register_from_lattice, for a state with the given uniform
    set."""
    if len(reg.dims) != 2 * lattice.n_edges:
        raise CircuitError("register still holds ancilla wires")
    g = reg.digits[:, 0::2] + 3 * reg.digits[:, 1::2]
    return lat._states(lattice, g, reg.amps[:, None], frozenset(uniform))[0]


def measure_site_circuit(state, site, rng):
    """Charge measurement at one site via the gate-level circuit; returns
    (letter, post-measurement lattice state).

    Every endpoint of an edge that the circuit touches is made explicit
    first.  Other uniform vertices stay uniform: no touched edge meets them,
    so the circuit commutes with their A_v and leaves their canonical tree
    edges alone.  The terms enter the register by a column split, so the
    int64 key of the `digits` module is the circuit's only size bound."""
    lattice = state.lattice
    circuit = build_K_circuit(lattice, site)
    edges = {w // 2 for op in circuit.ops for w in op.wires if isinstance(w, int)}
    state = lat._deuniformized(state, sorted({v for e in edges for v in lattice.edge_endpoints(e)}))
    reg, record = simulate(circuit, register_from_lattice(state), rng)
    return classify_K_transcript(record), lattice_from_register(reg, lattice, state.uniform)
