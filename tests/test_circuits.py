"""Gate-level circuit tests: simulator semantics, operator equivalence,
adaptive charge measurement, and stabilizer-map identities."""

import numpy as np
import pytest

from s3double import circuits as cir
from s3double import lattice as lat
from s3double.algebra import E, ELEMENTS, GroupElement, OMEGA, SIGMA


@pytest.fixture(scope="module")
def cell():
    lattice = lat.Lattice(1, 1)
    return lattice, lat.ground_state(lattice)


@pytest.fixture(scope="module")
def strip():
    lattice = lat.Lattice(2, 1)
    return lattice, lat.ground_state(lattice)


def _strip_classical(ops, anc_wire, anc_name, drop_meta=True):
    """Replace a named ancilla by a fixed wire and drop alloc/measure/free."""
    out = []
    for op in ops:
        if drop_meta and op.kind in ("alloc", "measure", "free"):
            continue
        wires = tuple(anc_wire if w == anc_name else w for w in op.wires)
        out.append(
            cir.Op(op.kind, gate=op.gate, wires=wires, power=op.power, cond=())
        )
    return tuple(out)


def _run_unitary(ops, dims, vec, record=None, seed=0):
    circ = cir.AdaptiveCircuit(tuple(dims), tuple(ops))
    reg = cir.QuditRegister(dims, vec)
    if record:
        reg.record.update(record)
    out, _ = cir.simulate(circ, reg, np.random.default_rng(seed))
    return out.vec


class TestGates:
    def test_unitarity(self):
        for kind, dims in cir.GATE_WIRE_DIMS.items():
            for p in range(1, cir.GATE_PERIOD[kind]):
                u = cir.gate_unitary(kind, p)
                assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)

    def test_single_non_clifford_kind(self):
        assert set(cir.NON_CLIFFORD_KINDS) == {"CC"}

    def test_cc_conjugation_gives_signed_shift(self):
        # qubit-controlled charge conjugation turns a qutrit shift into a
        # shift whose direction depends on the qubit value
        cc = cir.gate_unitary("CC")
        xh = np.kron(np.eye(2), cir.gate_unitary("Xh"))
        signed = cc @ xh @ cc
        expect = np.zeros((6, 6), dtype=complex)
        for l in range(2):
            sh = 1 if l == 0 else -1
            for k in range(3):
                expect[l * 3 + (k + sh) % 3, l * 3 + k] = 1.0
        assert np.allclose(signed, expect, atol=1e-12)

    def test_cxh_propagates_shift_to_target(self):
        cxh = cir.gate_unitary("CXh")
        x1 = np.kron(cir.gate_unitary("Xh"), np.eye(3))
        xx = np.kron(cir.gate_unitary("Xh"), cir.gate_unitary("Xh"))
        assert np.allclose(cxh @ x1 @ cxh.conj().T, xx, atol=1e-12)

    def test_unknown_kind_raises(self):
        with pytest.raises(cir.CircuitError):
            cir.gate_unitary("Q")

    def test_table_entries_are_read_only(self):
        u = cir.gate_unitary("Xh", 2)
        with pytest.raises(ValueError):
            u[0, 0] = 5.0
        expect = np.zeros((3, 3), dtype=complex)
        for k in range(3):
            expect[(k + 2) % 3, k] = 1.0
        assert np.array_equal(cir.gate_unitary("Xh", -1), expect)


class TestSimulator:
    def test_empty_circuit_identity(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        circ = cir.AdaptiveCircuit((3, 2), ())
        reg, rec = cir.simulate(circ, cir.QuditRegister((3, 2), vec), rng)
        assert np.allclose(reg.vec, vec) and rec == {}

    def test_dimension_mismatch_raises(self):
        circ = cir.AdaptiveCircuit((3, 2), (cir.Op("gate", gate="X", wires=(0,)),))
        with pytest.raises(cir.CircuitError):
            cir.simulate(circ, cir.QuditRegister((3, 2)), np.random.default_rng(0))

    def test_measurement_renormalizes(self):
        rng = np.random.default_rng(1)
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        circ = cir.AdaptiveCircuit(
            (3, 2), (cir.Op("measure", wires=(0,), basis="comp", label="k"),)
        )
        reg, rec = cir.simulate(circ, cir.QuditRegister((3, 2), vec), rng)
        assert abs(reg.norm() - 1) < 1e-12 and rec["k"] in (0, 1, 2)

    @pytest.mark.parametrize("run", ["simulate", "channel_kraus"])
    @pytest.mark.parametrize(
        "ops",
        [
            (
                cir.Op("alloc", label="a", dim=2, init="zero"),
                cir.Op("alloc", label="a", dim=2, init="zero"),
                cir.Op("free", label="a"),
            ),
            (cir.Op("gate", gate="CC", wires=(0, 1)),),
            (cir.Op("gate", gate="X", wires=("a",)),),
            (cir.Op("free", label="a"),),
            (cir.Op("gate", gate="X", wires=(2,)),),
            (cir.Op("gate", gate="Q", wires=(1,)),),
            (cir.Op("teleport"),),
            (cir.Op("measure", wires=(0, 1), basis="comp", label="k"),),
            (cir.Op("alloc", label="a", dim=2, init="zero"),),
        ],
        ids=[
            "double-alloc",
            "swapped-cc-wires",
            "unknown-ancilla",
            "free-unallocated",
            "wire-out-of-range",
            "unknown-gate",
            "unknown-op",
            "measure-two-wires",
            "unfreed-ancilla",
        ],
    )
    def test_malformed_circuit_raises(self, ops, run):
        circ = cir.AdaptiveCircuit((3, 2), ops)
        with pytest.raises(cir.CircuitError):
            if run == "simulate":
                cir.simulate(circ, cir.QuditRegister((3, 2)), np.random.default_rng(0))
            else:
                cir.channel_kraus(circ)

    def test_rejected_trajectory_raises(self):
        # the T projector accepts one (k, l) of six on a uniform input: a
        # trajectory that misses it names the label, one that meets it ends
        # on the projected input
        circ = cir.build_LT_circuit("T", SIGMA, "+")
        vec = np.ones(6, dtype=complex) / np.sqrt(6)
        ((_, kraus),) = cir.channel_kraus(circ)
        want = kraus @ vec / np.linalg.norm(kraus @ vec)
        for seed in range(20):
            reg = cir.QuditRegister((3, 2), vec)
            rng = np.random.default_rng(seed)
            if seed not in (8, 12):
                with pytest.raises(cir.CircuitError, match=r"trajectory rejected: [kl]="):
                    cir.simulate(circ, reg, rng)
                continue
            out, rec = cir.simulate(circ, reg, rng)
            assert rec == dict(circ.accept)
            assert np.allclose(out.vec, want, atol=1e-12)

    def test_replay_determinism(self):
        circ = cir.build_ribbon_circuit("D", "h")
        vec = np.random.default_rng(3).normal(size=36).astype(complex)
        vec /= np.linalg.norm(vec)
        runs = [
            cir.simulate(circ, cir.QuditRegister((3, 2, 3, 2), vec), np.random.default_rng(7))
            for _ in range(2)
        ]
        assert runs[0][1] == runs[1][1]
        assert np.allclose(runs[0][0].vec, runs[1][0].vec)


class TestGroupEdgeCircuits:
    def test_all_multiplication_and_projection_circuits(self):
        for g in ELEMENTS:
            for sign in "+-":
                for kind in "LT":
                    circ = cir.build_LT_circuit(kind, g, sign)
                    d = cir.check_equivalence(circ, [cir.lt_operator(kind, g, sign)])
                    assert d < 1e-9, (kind, g, sign, d)

    def test_generator_shapes(self):
        mu = GroupElement(1, 0)
        plus = cir.build_LT_circuit("L", mu, "+")
        assert [op.gate for op in plus.ops] == ["Xh"]
        minus = cir.build_LT_circuit("L", SIGMA, "-")
        assert [op.gate for op in minus.ops] == ["X"]

    def test_identity_projector_accepts_zero(self):
        circ = cir.build_LT_circuit("T", E, "+")
        assert dict(circ.accept) == {"k": 0, "l": 0}

    @pytest.mark.parametrize("n_edges", range(1, 8))
    def test_pair_perm_equals_base6_unpacking(self, n_edges):
        # the permutation with the key digits unpacked by hand
        idx = np.arange(6 ** n_edges, dtype=np.int64)
        want = np.zeros_like(idx)
        for e in range(n_edges):
            d = (idx // 6 ** e) % 6
            want += (2 * (d % 3) + d // 3) * 6 ** (n_edges - 1 - e)
        assert np.array_equal(cir.group_to_pair_perm(n_edges), want)


@pytest.fixture(scope="module")
def ribbon_channels():
    """{(anyon, orientation): (circuit, operator Kraus list)} for every case
    of the circuit-equivalence check."""
    lath = lat.Lattice(1, 1)
    latv = lat.Lattice(1, 2)
    cases = (
        ("h", lath, lat.shortest_h(lath, (0, 0))),
        ("v", latv, lat.shortest_v(latv, (0, 1))),
    )
    return {
        (anyon, orient): (
            cir.build_ribbon_circuit(anyon, orient),
            cir.ribbon_operator_kraus(lattice, rib, anyon),
        )
        for anyon in "ABCDEFGH"
        for orient, lattice, rib in cases
    }


class TestRibbonCircuits:
    @pytest.mark.parametrize("anyon", "ABCDEFGH")
    def test_channel_equivalence_both_orientations(self, anyon, ribbon_channels):
        for orient in "hv":
            circ, kraus = ribbon_channels[anyon, orient]
            assert cir.check_equivalence(circ, kraus) < 1e-9, (anyon, orient)

    def test_distance_equals_choi_matrix_difference(self, ribbon_channels):
        # every case of the circuit-equivalence check (distance ~1e-17), the
        # same with a phase on each operator-side Kraus operator (the channel
        # does not change), and each circuit against the next anyon's
        # operator, where the distance is of the order of the Choi entries
        anyons = "ABCDEFGH"
        pairs = [(a, a) for a in anyons] + list(zip(anyons, anyons[1:] + anyons[0]))
        largest = 0.0
        for a, b in pairs:
            for orient in "hv":
                circ, _ = ribbon_channels[a, orient]
                _, kraus = ribbon_channels[b, orient]
                for phase in (1.0, np.exp(0.7j)):
                    phased = [phase * k for k in kraus]
                    expected = np.max(np.abs(
                        cir.choi_matrix(cir.channel_kraus(circ))
                        - cir.choi_matrix([(1.0, k) for k in phased])
                    ))
                    got = cir.check_equivalence(circ, phased)
                    assert abs(got - expected) < 1e-15, (a, b, orient, got, expected)
                    assert a != b or got < 1e-9, (a, orient, phase, got)
                    largest = max(largest, got)
        assert largest > 1e-3

    def test_zero_channel_in_equivalence_raises(self, monkeypatch):
        circ = cir.build_ribbon_circuit("A", "h")
        with pytest.raises(cir.CircuitError):
            cir.check_equivalence(circ, [np.zeros((36, 36))])
        with pytest.raises(cir.CircuitError):
            cir.check_equivalence(circ, [])
        monkeypatch.setattr(cir, "channel_kraus", lambda c: [(1.0, np.zeros((36, 36)))])
        with pytest.raises(cir.CircuitError):
            cir.check_equivalence(circ, [np.eye(36)])

    def test_vacuum_circuit_is_empty(self):
        assert cir.build_ribbon_circuit("A", "h").ops == ()

    def test_sign_anyon_is_single_qubit_phase(self):
        circ = cir.build_ribbon_circuit("B", "h")
        assert [op.gate for op in circ.ops] == ["Z"]

    def test_static_non_clifford_scan(self):
        circs = [cir.build_ribbon_circuit(a, o) for a in "ABCDEFGH" for o in "hv"]
        circs += [
            cir.build_LT_circuit(k, g, s) for k in "LT" for g in ELEMENTS for s in "+-"
        ]
        circs.append(cir.build_K_circuit(lat.Lattice(1, 1), (0, 0)))
        for c in circs:
            assert set(c.gate_kinds()) <= set(cir.GATE_WIRE_DIMS)
            assert set(c.non_clifford_kinds()) <= {"CC"}

    def test_mutated_circuit_detected(self):
        circ = cir.build_ribbon_circuit("C", "h")
        lattice = lat.Lattice(1, 1)
        rib = lat.shortest_h(lattice, (0, 0))
        kraus = cir.ribbon_operator_kraus(lattice, rib, "C")
        ops = list(circ.ops)
        for i, op in enumerate(ops):
            if op.kind == "gate" and op.gate == "Zh":
                ops[i] = cir.Op(
                    "gate",
                    gate="Zh",
                    wires=op.wires,
                    power=cir.Expr(
                        op.power.const + 1, op.power.terms, op.power.inner_mod, op.power.scale
                    ),
                )
                break
        bad = cir.AdaptiveCircuit(circ.system_dims, tuple(ops))
        assert cir.check_equivalence(bad, kraus) > 0.01

    def test_choi_matrix_equals_outer_product_sum(self):
        # complex Kraus operators, reweighted so that no two weights agree
        circ = cir.build_ribbon_circuit("C", "h")
        branches = [(w * (i + 1), k) for i, (w, k) in enumerate(cir.channel_kraus(circ))]
        assert len(branches) > 1 and any(np.iscomplexobj(k) and k.imag.any() for _, k in branches)
        total = sum(
            w * np.outer(k.reshape(-1), k.reshape(-1).conj()) for w, k in branches
        )
        reference = total / np.trace(total)
        assert np.abs(cir.choi_matrix(branches) - reference).max() < 1e-14

    def test_zero_channel_raises(self):
        with pytest.raises(cir.CircuitError):
            cir.choi_matrix([(1.0, np.zeros((6, 6)))])
        with pytest.raises(cir.CircuitError):
            cir.choi_matrix([])

    def test_support_too_large_raises(self):
        circ = cir.AdaptiveCircuit((3, 2) * 3, ())
        with pytest.raises(lat.ResourceError):
            cir.check_equivalence(circ, [np.eye(216)])

    def test_measured_sign_variant_heralds_charge(self, strip):
        # the variant that measures the paired-charge sign dephases it: the
        # far pair member carries the intended charge on the no-fix-up branch
        # and the partner charge on the fixed branch, deterministically per
        # herald outcome
        lattice, gs = strip
        rib = lat.shortest_h(lattice, (0, 0))
        rng = np.random.default_rng(5)
        seen = set()
        for anyon in ("D", "E"):
            circ = cir.embed_ribbon_circuit(
                cir.build_ribbon_circuit(anyon, "h", measure_sign=True), lattice, rib
            )
            for _ in range(16):
                reg, rec = cir.simulate(circ, cir.register_from_lattice(lat.expanded(gs)), rng)
                seen.add((anyon, rec["x"]))
                st = cir.lattice_from_register(reg, lattice)
                letter, _ = lat.measure_site(st.normalized(), (1, 0), rng)
                # the created far charge follows the fix-up parity, not the
                # intended label: an odd number of sign flips yields the
                # negative-charge member of the class
                fixed = rec["x"] if anyon == "D" else 1 - rec["x"]
                assert letter == ("E" if fixed else "D"), (anyon, rec, letter)
        assert seen == {("D", 0), ("D", 1), ("E", 0), ("E", 1)}

    def test_measured_sign_variant_decoheres_charge_pairing(self):
        # on arbitrary inputs the sign measurement erases charge-pair
        # coherence, so the variant channel differs from the exact one
        lattice = lat.Lattice(1, 1)
        rib = lat.shortest_h(lattice, (0, 0))
        kraus = cir.ribbon_operator_kraus(lattice, rib, "D")
        variant = cir.build_ribbon_circuit("D", "h", measure_sign=True)
        assert cir.check_equivalence(variant, kraus) > 1e-3


class TestChargeMeasurementCircuit:
    def test_ground_state_reads_vacuum(self, cell):
        lattice, gs = cell
        rng = np.random.default_rng(0)
        letter, post = cir.measure_site_circuit(gs, (0, 0), rng)
        assert letter == "A"
        letter2, _ = cir.measure_site_circuit(post, (0, 0), rng)
        assert letter2 == "A"

    @pytest.mark.parametrize("anyon", "ABCDEFGH")
    def test_pair_letters_and_post_state(self, anyon, strip):
        lattice, gs = strip
        rng = np.random.default_rng(ord(anyon))
        rib = lat.shortest_h(lattice, (0, 0))
        for _ in range(4):
            st = lat.apply_anyon_ribbon(gs, rib, anyon, mixed=True, rng=rng)
            letter, post = cir.measure_site_circuit(st, (1, 0), rng)
            assert letter == anyon
            check, _ = lat.measure_site(post, (1, 0), rng)
            assert check == anyon

    def test_outcome_distribution_matches_oracle(self, cell):
        lattice, _ = cell
        rng = np.random.default_rng(2026)
        vec = rng.normal(size=6**4) + 1j * rng.normal(size=6**4)
        vec /= np.linalg.norm(vec)
        st = lat.from_dense(lattice, vec)
        probs = {a: lat.apply_K(st, (0, 0), a).norm() ** 2 for a in "ABCDEFGH"}
        circ = cir.build_K_circuit(lattice, (0, 0))
        reg0 = cir.register_from_lattice(st)
        n = 1500
        counts = dict.fromkeys("ABCDEFGH", 0)
        for _ in range(n):
            _, rec = cir.simulate(circ, reg0, rng)
            counts[cir.classify_K_transcript(rec)] += 1
        for a in "ABCDEFGH":
            sigma = max(np.sqrt(probs[a] * (1 - probs[a]) / n), 1e-9)
            assert abs(counts[a] / n - probs[a]) < 3 * sigma, a

    def test_projective_repeat(self, cell):
        lattice, _ = cell
        rng = np.random.default_rng(4)
        vec = rng.normal(size=6**4) + 1j * rng.normal(size=6**4)
        vec /= np.linalg.norm(vec)
        circ = cir.build_K_circuit(lattice, (0, 0))
        reg0 = cir.QuditRegister((3, 2) * 4, vec)
        for _ in range(6):
            reg, rec = cir.simulate(circ, reg0, rng)
            reg2, rec2 = cir.simulate(circ, cir.QuditRegister(reg.dims, reg.vec), rng)
            assert cir.classify_K_transcript(rec) == cir.classify_K_transcript(rec2)


class TestStabilizerMaps:
    """The entangling stages map ancilla frame operators onto the site
    stabilizers as exact operator identities (checked on random vectors)."""

    def _rand(self, dims, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
        return v / np.linalg.norm(v)

    def _lattice_map(self, vec, lattice, anc_dim, fn):
        n = lattice.n_edges
        m = vec.reshape(-1, anc_dim)
        out = np.zeros_like(m)
        for a in range(anc_dim):
            g = cir.circuit_vector_to_group(m[:, a].copy(), n)
            out[:, a] = cir.group_vector_to_circuit(
                lat.dense_vector(fn(lat.from_dense(lattice, g))), n
            )
        return out.reshape(-1)

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
    def test_vertex_entanglers(self, k, l, strip):
        lattice, _ = strip
        n = lattice.n_edges
        site = (1, 0)
        g = GroupElement(k, l)
        if l == 0:
            anc_dim, frame = 3, cir.gate_unitary("Xh")
            ops = cir._controlled_mu_ops(lattice, site, "a", cir.Expr(k), ())
        else:
            anc_dim, frame = 2, cir.gate_unitary("X")
            ops = cir._controlled_sigma_ops(lattice, site, "a", ())
            if k:
                ops += cir._qubit_controlled_mu_ops(lattice, site, "a", k, ())
        dims = [3, 2] * n + [anc_dim]
        ops = _strip_classical(ops, 2 * n, "a")
        vec = self._rand(dims, 10 * k + l)
        lhs = _run_unitary(ops, dims, cir._apply_unitary(vec, dims, [2 * n], frame))
        rhs = cir._apply_unitary(_run_unitary(ops, dims, vec), dims, [2 * n], frame)
        rhs = self._lattice_map(rhs, lattice, anc_dim, lambda st: lat.apply_vertex(st, site, g))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_flux_parity_entangler(self, cell):
        lattice, _ = cell
        n = lattice.n_edges
        dims = [3, 2] * n + [2]
        ops = _strip_classical(cir._flux_parity_ops(lattice, (0, 0)), 2 * n, "fp")
        vec = self._rand(dims, 3)
        z = cir.gate_unitary("Z")
        lhs = _run_unitary(ops, dims, cir._apply_unitary(vec, dims, [2 * n], z))
        rhs = cir._apply_unitary(_run_unitary(ops, dims, vec), dims, [2 * n], z)
        idx = np.arange(6**n)
        parity = np.zeros(6**n)
        for e in lattice.plaquette_edges((0, 0)):
            parity += (idx // 6**e) % 6 // 3
        diag = cir.group_vector_to_circuit(((-1.0) ** parity).astype(complex), n)
        rhs = (rhs.reshape(-1, 2) * diag[:, None]).reshape(-1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("l", [0, 1])
    def test_flux_exponent_entangler(self, l, cell):
        # the qutrit ancilla accumulates the flux exponent, so its phase
        # frame picks up the conjugate flux-phase operator
        lattice, _ = cell
        n = lattice.n_edges
        dims = [3, 2] * n + [3]
        ops = _strip_classical(cir._flux_exponent_ops(lattice, (0, 0)), 2 * n, "fk")
        vec = self._rand(dims, 5 + l)
        zh = cir.gate_unitary("Zh")
        lhs = _run_unitary(ops, dims, cir._apply_unitary(vec, dims, [2 * n], zh), {"l": l})
        rhs = cir._apply_unitary(_run_unitary(ops, dims, vec, {"l": l}), dims, [2 * n], zh)
        idx = np.arange(6**n)
        le, be, re, te = lattice.plaquette_edges((0, 0))
        kd = lambda e: (idx // 6**e) % 6 % 3
        ld = lambda e: (idx // 6**e) % 6 // 3
        s = 1 if l == 0 else -1
        expo = kd(le) + (-1) ** ld(le) * kd(be) - s * (-1) ** ld(te) * kd(re) - s * kd(te)
        diag = cir.group_vector_to_circuit((OMEGA ** (expo % 3)).conj().astype(complex), n)
        rhs = (rhs.reshape(-1, 3) * diag[:, None]).reshape(-1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_plaquette_projector_decomposition(self, cell):
        # flux projector onto mu^k = (exponent reads k) and (parity reads 0)
        lattice, _ = cell
        n = lattice.n_edges
        idx = np.arange(6**n, dtype=np.int64)
        le, be, re, te = lattice.plaquette_edges((0, 0))
        kd = lambda e: (idx // 6**e) % 6 % 3
        ld = lambda e: (idx // 6**e) % 6 // 3
        parity = (ld(le) + ld(be) + ld(re) + ld(te)) % 2
        expo = (kd(le) + (-1) ** ld(le) * kd(be) - (-1) ** ld(te) * kd(re) - kd(te)) % 3
        for k, g in ((0, E), (1, GroupElement(1, 0)), (2, GroupElement(2, 0))):
            predicted = (expo == k) & (parity == 0)
            st = lat.LatticeState(lattice, idx, np.ones(6**n, complex), frozenset())
            out = lat.apply_plaquette(st, (0, 0), g)
            oracle = np.zeros(6**n, dtype=bool)
            oracle[out.keys] = True
            assert np.array_equal(predicted, oracle)


class TestSerialization:
    @pytest.mark.parametrize(
        "circ",
        [
            cir.build_ribbon_circuit("D", "h"),
            cir.build_ribbon_circuit("G", "v"),
            cir.build_LT_circuit("T", SIGMA, "-"),
            cir.build_K_circuit(lat.Lattice(1, 1), (0, 0)),
        ],
        ids=["ribbon-D", "ribbon-G", "projector", "charge-measure"],
    )
    def test_text_round_trip(self, circ):
        assert cir.from_text(circ.to_text()) == circ

    def test_register_round_trip(self, strip):
        lattice, gs = strip
        rng = np.random.default_rng(9)
        st = lat.apply_anyon_ribbon(
            gs, lat.shortest_h(lattice, (0, 0)), "C", mixed=True, rng=rng
        )
        st = lat.expanded(st)
        back = cir.lattice_from_register(cir.register_from_lattice(st), lattice)
        assert abs(lat.inner(st, back) - 1) < 1e-12
