"""Gate-level qutrit-qubit circuits for the group-algebra lattice model.

Each lattice edge carries one qutrit (the mu exponent) and one qubit (the
sigma exponent), so every edge operator becomes a small circuit over dimension
2 and 3 wires.  The module provides

* one interpreter for adaptive circuits (classically controlled gates,
  mid-circuit measurement, ancilla allocation and trace-out): `_step` returns
  every branch of one op, `simulate` follows one sampled trajectory through
  it and `channel_kraus` enumerates every branch,
* builders for the single-edge group multiplication / projection circuits,
  for the two-edge anyon-pair ribbon circuits of every anyon type, and for
  the adaptive charge-measurement circuit at a lattice site,
* channel extraction by branch enumeration and Choi-matrix equivalence
  checking against operator-level oracles.

The charge-conjugation gate CC (qubit-controlled qutrit inversion) is the
only non-Clifford gate kind; every other kind is a qubit/qutrit Pauli or a
controlled Pauli.  Maximally mixed ancillas are realized as uniformly sampled
computational basis states (trajectory unraveling of the trace-out channel).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lattice as lat
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


def _monomial_powers(dims, period, action):
    """Read-only powers U^0 .. U^(period-1) of the monomial gate on wires of
    `dims` with U^p |x> = phase |y> for (y, phase) = action(p, *x)."""
    size = int(np.prod(dims))
    powers = []
    for p in range(period):
        u = np.zeros((size, size), dtype=complex)
        for x in np.ndindex(*dims):
            y, phase = action(p, *x)
            u[np.ravel_multi_index(y, dims), np.ravel_multi_index(x, dims)] = phase
        u.setflags(write=False)
        powers.append(u)
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
    """The read-only table entry U^power of a gate kind."""
    powers = _gate_entry(kind)[1]
    return powers[power % len(powers)]


def _projector_table():
    plus2 = np.full((2, 1), 1 / np.sqrt(2), dtype=complex)
    minus2 = np.array([[1], [-1]], dtype=complex) / np.sqrt(2)
    fourier3 = [
        np.array([[OMEGA ** (j * k)] for k in range(3)], dtype=complex) / np.sqrt(3)
        for j in range(3)
    ]
    plus3 = np.full((3, 1), 1 / np.sqrt(3), dtype=complex)
    p0 = plus3 @ plus3.conj().T
    table = {
        ("comp", d): [
            np.diag([1.0 if i == o else 0.0 for i in range(d)]).astype(complex)
            for o in range(d)
        ]
        for d in (2, 3)
    }
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

    def encode(self) -> str:
        terms = ",".join(f"{lab}*{c}" for lab, c in self.terms)
        return f"{self.const};{self.scale};{self.inner_mod};{terms}"

    @staticmethod
    def decode(text: str) -> "Expr":
        const, scale, mod, terms = text.split(";")
        parsed = tuple(
            (lab, int(c))
            for lab, c in (t.split("*") for t in terms.split(",") if t)
        )
        return Expr(int(const), parsed, int(mod), int(scale))


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


def _fmt_wires(wires):
    return ",".join(str(w) for w in wires)


def _parse_wire(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


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

    def to_text(self) -> str:
        lines = [
            "dims " + ",".join(str(d) for d in self.system_dims),
            "accept " + ",".join(f"{l}={v}" for l, v in self.accept),
        ]
        for op in self.ops:
            toks = [op.kind]
            if op.kind == "gate":
                toks += [op.gate, "w=" + _fmt_wires(op.wires), "pow=" + op.power.encode()]
            elif op.kind == "measure":
                toks += ["w=" + _fmt_wires(op.wires), f"basis={op.basis}", f"label={op.label}"]
            elif op.kind == "alloc":
                toks += [f"name={op.label}", f"dim={op.dim}", f"init={op.init}"]
            elif op.kind == "free":
                toks += [f"name={op.label}"]
            if op.cond:
                toks.append("cond=" + ",".join(f"{l}={v}" for l, v in op.cond))
            lines.append(" ".join(toks))
        return "\n".join(lines) + "\n"


def from_text(text: str) -> AdaptiveCircuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dims = tuple(int(d) for d in lines[0].split()[1].split(","))
    accept_tok = lines[1].split()
    accept = tuple(
        (l, int(v))
        for l, v in (p.split("=") for p in (accept_tok[1].split(",") if len(accept_tok) > 1 else []) if p)
    )
    ops = []
    for ln in lines[2:]:
        toks = ln.split()
        kv = dict(t.split("=", 1) for t in toks[1:] if "=" in t)
        cond = tuple(
            (l, int(v))
            for l, v in (p.split("=") for p in kv.get("cond", "").split(",") if p)
        )
        if toks[0] == "gate":
            ops.append(
                Op(
                    "gate",
                    gate=toks[1],
                    wires=tuple(_parse_wire(w) for w in kv["w"].split(",")),
                    power=Expr.decode(kv["pow"]),
                    cond=cond,
                )
            )
        elif toks[0] == "measure":
            ops.append(
                Op(
                    "measure",
                    wires=(_parse_wire(kv["w"]),),
                    basis=kv["basis"],
                    label=kv["label"],
                    cond=cond,
                )
            )
        elif toks[0] == "alloc":
            ops.append(
                Op("alloc", label=kv["name"], dim=int(kv["dim"]), init=kv["init"], cond=cond)
            )
        elif toks[0] == "free":
            ops.append(Op("free", label=kv["name"], cond=cond))
        else:
            raise CircuitError(f"bad line {ln!r}")
    return AdaptiveCircuit(dims, tuple(ops), accept)


# ---------------------------------------------------------------------------
# Register and the op interpreter


class QuditRegister:
    """Ordered wires of dimension 2 or 3 with a dense state vector."""

    def __init__(self, dims, vec=None):
        self.dims = list(dims)
        if any(d not in (2, 3) for d in self.dims):
            raise CircuitError("wire dimensions must be 2 or 3")
        size = int(np.prod(self.dims)) if self.dims else 1
        if vec is None:
            vec = np.zeros(size, dtype=complex)
            vec[0] = 1.0
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.size != size:
            raise CircuitError("vector length does not match wire dimensions")
        self.vec = vec
        self.record = {}

    def norm(self):
        return float(np.linalg.norm(self.vec))


def _apply_unitary(vec, dims, axes, u):
    t = vec.reshape(dims)
    n = len(axes)
    t = np.moveaxis(t, axes, range(n))
    shp = t.shape
    d = int(np.prod(shp[:n]))
    t = (u @ t.reshape(d, -1)).reshape(shp)
    t = np.moveaxis(t, range(n), axes)
    return t.reshape(-1)


def _init_vector(init, dim):
    if init == "zero":
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    if init == "plus":
        return np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    raise CircuitError(f"unknown ancilla init {init!r}")


def _step(op, dims, names, rows, record):
    """Every branch of one op as a list of (weight, dims, names, rows, record).

    `rows` has one row per basis state of the wires `dims` and one column per
    input basis state (a state vector is one column); `names` maps ancilla
    names to wire indices.  No input is modified.  A gate, a pure ancilla or
    an op whose condition fails gives one branch of weight 1; a mixed ancilla
    gives one branch per basis state, of weight 1/dim, with the state recorded
    under its name; a measurement or a free gives one unnormalised branch per
    outcome, zero-norm ones included."""
    if any(record.get(l) != v for l, v in op.cond):
        return [(1.0, dims, names, rows, record)]
    cols = rows.shape[1]

    def axis(w):
        if isinstance(w, str):
            if w not in names:
                raise CircuitError(f"unknown ancilla {w!r}")
            return names[w]
        if not 0 <= w < len(dims):
            raise CircuitError(f"wire {w} out of range")
        return w

    def apply(u, axes):
        return _apply_unitary(rows.reshape(-1), dims + [cols], axes, u).reshape(-1, cols)

    if op.kind == "gate":
        want, powers = _gate_entry(op.gate)
        axes = [axis(w) for w in op.wires]
        if tuple(dims[a] for a in axes) != want:
            raise CircuitError(f"gate {op.gate} wire dimension mismatch")
        p = op.power(record) % len(powers)
        return [(1.0, dims, names, apply(powers[p], axes) if p else rows, record)]
    if op.kind == "alloc":
        if op.label in names:
            raise CircuitError(f"ancilla {op.label!r} already allocated")
        if op.dim not in (2, 3):
            raise CircuitError("wire dimensions must be 2 or 3")
        if op.init == "mixed":
            inits = [
                (1.0 / op.dim, {**record, op.label: o}, v)
                for o, v in enumerate(np.eye(op.dim, dtype=complex))
            ]
        else:
            inits = [(1.0, record, _init_vector(op.init, op.dim))]
        grown = dims + [op.dim]
        named = {**names, op.label: len(dims)}
        return [
            (w, grown, named, np.einsum("is,a->ias", rows, v).reshape(-1, cols), rec)
            for w, rec, v in inits
        ]
    if op.kind == "measure":
        if len(op.wires) != 1:
            raise CircuitError("a measurement reads exactly one wire")
        a = axis(op.wires[0])
        projs = _PROJECTORS.get((op.basis, dims[a]))
        if projs is None:
            raise CircuitError(f"no {op.basis!r} measurement on a dimension-{dims[a]} wire")
        return [
            (1.0, dims, names, apply(pr, [a]), {**record, op.label: o})
            for o, pr in enumerate(projs)
        ]
    if op.kind == "free":
        if op.label not in names:
            raise CircuitError(f"ancilla {op.label!r} not allocated")
        a = names[op.label]
        kept = dims[:a] + dims[a + 1 :]
        renamed = {n: (x - 1 if x > a else x) for n, x in names.items() if n != op.label}
        t = rows.reshape(dims + [cols])
        return [
            (1.0, kept, renamed, np.take(t, o, axis=a).reshape(-1, cols), record)
            for o in range(dims[a])
        ]
    raise CircuitError(f"unknown op kind {op.kind!r}")


def simulate(circuit: AdaptiveCircuit, register: QuditRegister, rng):
    """Run one trajectory; returns (final register, outcome transcript).

    A mixed ancilla draws its basis state with `rng.integers(dim)`; a
    measurement or a free draws its outcome with one `rng.choice` over all
    outcomes by the Born rule and renormalises.  As in `channel_kraus`,
    ancillas must be freed before the end of the circuit; a trajectory that
    misses a non-empty `accept` raises `CircuitError` naming the label."""
    if tuple(register.dims[: len(circuit.system_dims)]) != tuple(circuit.system_dims):
        raise CircuitError("register does not match circuit system wires")
    dims, names = list(register.dims), {}
    rows, record = register.vec.reshape(-1, 1).copy(), dict(register.record)
    for op in circuit.ops:
        branches = _step(op, dims, names, rows, record)
        if len(branches) == 1:
            _, dims, names, rows, record = branches[0]
        elif op.kind == "alloc":
            _, dims, names, rows, record = branches[int(rng.integers(len(branches)))]
        else:
            probs = [float(np.vdot(b[3], b[3]).real) for b in branches]
            o = int(rng.choice(len(probs), p=np.array(probs) / sum(probs)))
            _, dims, names, rows, record = branches[o]
            rows = rows / np.sqrt(probs[o])
    if names:
        raise CircuitError(f"ancillas never freed: {sorted(names)}")
    for label, want in circuit.accept:
        if record.get(label) != want:
            raise CircuitError(
                f"trajectory rejected: {label}={record.get(label)}, accept needs {label}={want}"
            )
    reg = QuditRegister(dims, rows)
    reg.record = record
    return reg, dict(record)


# ---------------------------------------------------------------------------
# Channel extraction and equivalence


def channel_kraus(circuit: AdaptiveCircuit):
    """All (weight, Kraus) branches of the circuit channel on its system
    wires, depth first; a split drops its branches of norm below PRUNE.
    Ancillas must be freed before the end of the circuit."""
    sys_dim = int(np.prod(circuit.system_dims))
    out = []
    stack = [(1.0, list(circuit.system_dims), {}, np.eye(sys_dim, dtype=complex), {}, 0)]
    while stack:
        weight, dims, names, rows, record, i = stack.pop()
        if i == len(circuit.ops):
            if names:
                raise CircuitError(f"ancillas never freed: {sorted(names)}")
            if all(record.get(l) == v for l, v in circuit.accept):
                out.append((weight, rows))
            continue
        branches = _step(circuit.ops[i], dims, names, rows, record)
        for w, new_dims, new_names, new_rows, rec in branches:
            if len(branches) == 1 or np.linalg.norm(new_rows) >= PRUNE:
                stack.append((weight * w, new_dims, new_names, new_rows, rec, i + 1))
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
    """Max absolute Choi-matrix entry difference between the circuit channel
    (ancillas traced out) and the operator channel sum_i K_i rho K_i^dag.

    The difference is one product of both channels' stacked Kraus rows, the
    operator side's weights negated, so neither Choi matrix is built."""
    sys_dim = int(np.prod(circuit.system_dims))
    if sys_dim > 36:
        raise lat.ResourceError("equivalence support exceeds two edges", sys_dim)
    w_circ, v_circ = _choi_rows(channel_kraus(circuit))
    w_op, v_op = _choi_rows([(1.0, k) for k in operator_kraus])
    w = np.concatenate([w_circ, -w_op])
    v = np.concatenate([v_circ, v_op])
    return float(np.max(np.abs((v.T * w) @ v.conj())))


# ---------------------------------------------------------------------------
# Basis conversion between group digits and qutrit/qubit pairs


def group_to_pair_perm(n_edges: int) -> np.ndarray:
    """perm[group_index] = circuit_index for n_edges edges.

    Group packing: edge 0 is the least significant base-6 digit, digit
    g = k + 3l.  Circuit packing: wires (edge0 qutrit, edge0 qubit, edge1
    qutrit, ...) in C order (wire 0 slowest).
    """
    idx = np.arange(ORDER ** n_edges, dtype=np.int64)
    out = np.zeros_like(idx)
    for e in range(n_edges):
        d = lat._digit(idx, e)
        k, l = d % 3, d // 3
        out += (2 * k + l) * ORDER ** (n_edges - 1 - e)
    return out


def group_matrix_to_circuit(mat: np.ndarray, n_edges: int) -> np.ndarray:
    perm = group_to_pair_perm(n_edges)
    out = np.zeros_like(mat)
    out[np.ix_(perm, perm)] = mat
    return out


def group_vector_to_circuit(vec: np.ndarray, n_edges: int) -> np.ndarray:
    out = np.zeros_like(vec)
    out[group_to_pair_perm(n_edges)] = vec
    return out


def circuit_vector_to_group(vec: np.ndarray, n_edges: int) -> np.ndarray:
    return vec[group_to_pair_perm(n_edges)]


# ---------------------------------------------------------------------------
# Single-edge group multiplication / projection circuits


def _edge_wires(edge_slot):
    return 2 * edge_slot, 2 * edge_slot + 1


def _l_plus_ops(g: GroupElement, qt, qb, cond=()):
    ops = []
    for _ in range(g.l):
        ops.append(Op("gate", gate="Ch", wires=(qt,), cond=cond))
        ops.append(Op("gate", gate="X", wires=(qb,), cond=cond))
    if g.k:
        ops.append(Op("gate", gate="Xh", wires=(qt,), power=Expr(g.k), cond=cond))
    return ops


def _l_minus_ops(g: GroupElement, qt, qb, cond=()):
    ops = []
    for _ in range(g.l):
        ops.append(Op("gate", gate="X", wires=(qb,), cond=cond))
    if g.k:
        # Xh^{-kZ} = CC Xh^{-k} CC
        ops.append(Op("gate", gate="CC", wires=(qb, qt), cond=cond))
        ops.append(Op("gate", gate="Xh", wires=(qt,), power=Expr(-g.k), cond=cond))
        ops.append(Op("gate", gate="CC", wires=(qb, qt), cond=cond))
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
        Op(
            "gate",
            gate="Zh",
            wires=(t_qt,),
            power=Expr(const=zh_sign, terms=u_terms, inner_mod=2, scale=zh_sign),
        ),
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
        ops.append(
            Op(
                "gate",
                gate="Zh",
                wires=(t_qt,),
                power=Expr(
                    const=zh_sign * r,
                    terms=(("z", 1), ("mv", -1)),
                    inner_mod=2,
                    scale=zh_sign * r,
                ),
            )
        )
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
            seq = (
                [Op("gate", gate="CC", wires=(2 * e + 1, 2 * e), cond=cond)]
                + seq
                + [Op("gate", gate="CC", wires=(2 * e + 1, 2 * e), cond=cond)]
            )
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


_FGH_BY_PHASE = {0: "F", 1: "G", 2: "H"}


def classify_K_transcript(record) -> str:
    l, k = record["l"], record["k"]
    if l == 0 and k == 0:
        if record["a1"] == 1:
            return "C"
        return "A" if record["s"] == 0 else "B"
    if l == 1:
        return "D" if record["s"] == 0 else "E"
    return _FGH_BY_PHASE[record["a2"]]


# ---------------------------------------------------------------------------
# Lattice-state interop


def register_from_lattice(state) -> QuditRegister:
    """Dense circuit register (<= 7 edges) from a lattice state."""
    vec = lat.dense_vector(state)
    n = state.lattice.n_edges
    return QuditRegister((3, 2) * n, group_vector_to_circuit(vec, n))


def lattice_from_register(reg: QuditRegister, lattice):
    n = lattice.n_edges
    if len(reg.dims) != 2 * n:
        raise CircuitError("register still holds ancilla wires")
    return lat.from_dense(lattice, circuit_vector_to_group(reg.vec, n))


def measure_site_circuit(state, site, rng):
    """Charge measurement at one site via the gate-level circuit; returns
    (letter, post-measurement lattice state)."""
    circuit = build_K_circuit(state.lattice, site)
    reg, record = simulate(circuit, register_from_lattice(lat.expanded(state)), rng)
    return classify_K_transcript(record), lattice_from_register(reg, state.lattice)
