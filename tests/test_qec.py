"""Pauli-noise syndrome tables, greedy decoding, and correction cycles."""

import tracemalloc

import numpy as np
import pytest

from s3double import category
from s3double import circuits as cir
from s3double import lattice as lat
from s3double import qec

TOL = 1e-12


def _site_marginals(state, site):
    """Exact {letter: probability} of a charge measurement at one site."""
    return {
        a: float(lat.apply_K(state, site, a).norm() ** 2)
        for a in "ABCDEFGH"
    }


@pytest.fixture(scope="module")
def square():
    lattice = lat.Lattice(2, 2)
    return lattice, lat.ground_state(lattice)


class TestNoiseModel:
    def test_rejects_bad_rate(self):
        with pytest.raises(qec.QECError):
            qec.NoiseModel(-0.1)
        with pytest.raises(qec.QECError):
            qec.NoiseModel(1.5)

    def test_rejects_bad_alphabet(self):
        with pytest.raises(qec.QECError):
            qec.NoiseModel(0.1, weights=(("X", 0.5), ("Q", 0.5)))
        with pytest.raises(qec.QECError):
            qec.NoiseModel(0.1, weights=(("X", 0.5), ("X", 0.5)))
        with pytest.raises(qec.QECError):
            qec.NoiseModel(0.1, weights=(("X", 0.5), ("Z", 0.2)))

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_rejects_weights_it_cannot_sample(self, bad):
        # a negative weight that still sums to 1, and non-finite weights
        with pytest.raises(qec.QECError):
            qec.NoiseModel(0.5, weights=(("X", 1 - bad), ("Z", bad)))

    def test_sample_kind_respects_weights(self):
        noise = qec.NoiseModel(1.0, weights=(("Z", 1.0),))
        rng = np.random.default_rng(0)
        assert all(noise.sample_kind(rng) == "Z" for _ in range(20))


class TestGeometry:
    def test_edge_endpoints(self):
        lattice = lat.Lattice(2, 2)
        assert lattice.edge_endpoints(lattice.h_edge(0, 1)) == ((0, 1), (1, 1))
        assert lattice.edge_endpoints(lattice.v_edge(1, 0)) == ((1, 0), (1, 1))
        with pytest.raises(ValueError):
            lattice.edge_endpoints(lattice.n_edges)

    def test_is_horizontal(self):
        lattice = lat.Lattice(2, 2)
        assert lattice.is_horizontal(lattice.h_edge(1, 2))
        assert not lattice.is_horizontal(lattice.v_edge(0, 0))

    def test_syndrome_sites_off_grid(self):
        lattice = lat.Lattice(2, 2)
        # top-row horizontal edge: the plaquette above lies outside the grid
        assert qec.syndrome_sites(lattice, lattice.h_edge(0, 0)) == (
            None,
            (0, 0),
            (1, 0),
        )
        assert qec.syndrome_sites(lattice, lattice.h_edge(0, 1)) == (
            (0, 0),
            (0, 1),
            (1, 1),
        )
        assert qec.syndrome_sites(lattice, lattice.v_edge(1, 0)) == (
            (0, 0),
            (1, 0),
            (1, 1),
        )

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (2, 3), (5, 4)])
    def test_syndrome_sites_match_site_set(self, shape):
        lattice = lat.Lattice(*shape)
        grid = set(lattice.sites)
        for edge in range(lattice.n_edges):
            (x, y), _ = lattice.edge_endpoints(edge)
            if lattice.is_horizontal(edge):
                sites = ((x, y - 1), (x, y), (x + 1, y))
            else:
                sites = ((x - 1, y), (x, y), (x, y + 1))
            want = tuple(s if s in grid else None for s in sites)
            assert qec.syndrome_sites(lattice, edge) == want

    def test_inject_rejects_unknown_kind(self, square):
        lattice, gs = square
        with pytest.raises(qec.QECError):
            qec.inject_pauli(gs, 0, "W")


class TestSyndromeTables:
    """Single-edge Pauli errors on the ground state, verified exactly
    against the charge-projector marginals."""

    DETERMINISTIC = ("Z", "Xh", "Zh", "XhZh")

    @pytest.mark.parametrize("kind", DETERMINISTIC)
    @pytest.mark.parametrize("orientation", ("h", "v"))
    def test_deterministic_rows(self, kind, orientation, square):
        lattice, gs = square
        if orientation == "h":
            edge, table = lattice.h_edge(0, 1), qec.SYNDROME_H
        else:
            edge, table = lattice.v_edge(1, 0), qec.SYNDROME_V
        st = qec.inject_pauli(gs, edge, kind).normalized()
        expected = dict(zip(qec.syndrome_sites(lattice, edge), table[kind]))
        for site in lattice.sites:
            marg = _site_marginals(st, site)
            letter = expected.get(site, "A")
            assert marg[letter] == pytest.approx(1.0, abs=TOL), (site, marg)

    @pytest.mark.parametrize("kind", ("X", "Y"))
    @pytest.mark.parametrize("orientation", ("h", "v"))
    def test_mixed_rows(self, kind, orientation, square):
        lattice, gs = square
        edge = lattice.h_edge(0, 1) if orientation == "h" else lattice.v_edge(1, 0)
        table = qec.SYNDROME_H if orientation == "h" else qec.SYNDROME_V
        st = qec.inject_pauli(gs, edge, kind).normalized()
        s1, s2, s3 = qec.syndrome_sites(lattice, edge)
        # paired-plaquette and paired-site charges are deterministic
        assert _site_marginals(st, s1)[table[kind][0]] == pytest.approx(1.0, abs=TOL)
        assert _site_marginals(st, s2)[table[kind][1]] == pytest.approx(1.0, abs=TOL)
        # the lone-vertex charge follows the class decomposition exactly
        marg = _site_marginals(st, s3)
        for letter, weight in qec.S3_MIX[kind]:
            assert marg[letter] == pytest.approx(weight, abs=TOL), marg
        # every other site stays trivial
        for site in lattice.sites:
            if site not in (s1, s2, s3):
                assert _site_marginals(st, site)["A"] == pytest.approx(1.0, abs=TOL)


class TestInjectPauli:
    def test_involutions_and_order(self, square):
        lattice, gs = square
        edge = lattice.h_edge(0, 1)
        for kind, order in (("X", 2), ("Z", 2), ("Y", 2), ("Xh", 3), ("Zh", 3)):
            st = gs
            for _ in range(order):
                st = qec.inject_pauli(st, edge, kind)
            # X/Z/Y square to the identity up to a global phase (Y = XZ
            # anticommutes its factors); the qutrit shifts and phases cube
            # to the identity
            st = lat.uniformize(lat.uniformize(st, (1, 1)), (0, 1))
            assert abs(abs(lat.inner(gs, st)) - 1) < 1e-9

    def test_preserves_norm(self, square):
        lattice, gs = square
        for kind in qec.PAULI_KINDS:
            st = qec.inject_pauli(gs, lattice.v_edge(1, 0), kind)
            assert st.norm() == pytest.approx(1.0, abs=TOL)

    @staticmethod
    def _edge_unitary(kind):
        """The Pauli on one edge's (qutrit, qubit) wire pair."""
        x, z = cir.gate_unitary("X"), cir.gate_unitary("Z")
        xh, zh = cir.gate_unitary("Xh"), cir.gate_unitary("Zh")
        qubit = {"X": x, "Z": z, "Y": x @ z}
        qutrit = {"Xh": xh, "Zh": zh, "XhZh": xh @ zh}
        if kind in qubit:
            return np.kron(np.eye(3), qubit[kind])
        return np.kron(qutrit[kind], np.eye(2))

    @pytest.mark.parametrize("kind", qec.PAULI_KINDS)
    @pytest.mark.parametrize("orientation", ("h", "v"))
    def test_exact_amplitudes(self, kind, orientation):
        """Every amplitude of a random explicit state matches the dense gate
        built from the circuit inventory."""
        lattice = lat.Lattice(1, 1)
        edge = lattice.h_edge(0, 1) if orientation == "h" else lattice.v_edge(1, 0)
        n = lattice.n_edges
        rng = np.random.default_rng(5)
        vec = rng.normal(size=6**n) + 1j * rng.normal(size=6**n)
        got = lat.dense_vector(qec.inject_pauli(lat.from_dense(lattice, vec), edge, kind))
        # the same gate in the group basis of one edge
        u = self._edge_unitary(kind)
        perm = cir.group_to_pair_perm(1)
        gate = u[np.ix_(perm, perm)]
        assert np.array_equal(cir.group_matrix_to_circuit(gate, 1), u)
        # edge e is the e-th least significant base-6 digit of a dense index
        axis = n - 1 - edge
        want = np.tensordot(gate, vec.reshape((6,) * n), axes=([1], [axis]))
        want = np.moveaxis(want, 0, axis).reshape(-1)
        assert np.allclose(got, want, atol=TOL)


class TestDecoder:
    def test_empty(self):
        assert qec.decode_greedy({}) == []

    def test_adjacent_pair(self):
        cfg = {(0, 0): "C", (1, 0): "C"}
        [(a, b, path)] = qec.decode_greedy(cfg)
        assert (a, b) == ((0, 0), (1, 0)) and path == [(0, 0), (1, 0)]

    def test_prefers_nearest(self):
        cfg = {(0, 0): "F", (5, 0): "F", (6, 0): "F", (9, 0): "F"}
        pairs = {(a, b) for a, b, _ in qec.decode_greedy(cfg)}
        assert ((5, 0), (6, 0)) in pairs
        assert ((0, 0), (9, 0)) in pairs

    def test_odd_leaves_one_unpaired(self):
        cfg = {(0, 0): "C", (1, 0): "C", (4, 4): "B"}
        pattern = qec.decode_greedy(cfg)
        assert len(pattern) == 1
        assert {pattern[0][0], pattern[0][1]} == {(0, 0), (1, 0)}

    def test_path_steps_x_then_y(self):
        cfg = {(0, 0): "C", (2, 1): "C"}
        [(_, _, path)] = qec.decode_greedy(cfg)
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1)]

    @staticmethod
    def _rescan(config):
        # oracle: rescan every remaining pair for the (distance, a, b) minimum
        remaining = sorted(lat.nontrivial(config))
        pattern = []
        while len(remaining) >= 2:
            _, a, b = min(
                (abs(a[0] - b[0]) + abs(a[1] - b[1]), a, b)
                for i, a in enumerate(remaining)
                for b in remaining[i + 1:]
            )
            remaining.remove(a)
            remaining.remove(b)
            pattern.append((a, b, qec._path(a, b)))
        return pattern

    def _check_random_configs(self, width, max_anyons, configs):
        rng = np.random.default_rng(12)
        sites = [(x, y) for x in range(width) for y in range(width)]
        for k in range(configs):
            # the first configurations pin the smallest and the largest size
            n = (0, 1, 2, max_anyons)[k] if k < 4 else int(rng.integers(0, max_anyons + 1))
            chosen = rng.choice(len(sites), size=n, replace=False)
            cfg = {sites[i]: "ABCDEFGH"[rng.integers(1, 8)] for i in chosen}
            assert qec.decode_greedy(cfg) == self._rescan(cfg)

    def test_matches_rescan_with_distance_ties(self):
        # a 6x6 grid with up to 13 anyons has many equal distances, so the
        # lexicographic tie-break decides most pairs
        self._check_random_configs(6, 13, 200)

    def test_matches_rescan_on_benchmark_grid(self):
        # the 40x40 grid of the phenomenological benchmark job, which holds
        # about 110 anyons per round at p = 0.01
        self._check_random_configs(40, 170, 25)


class TestMicroscopicCycle:
    def test_noiseless_identity(self):
        gs = lat.ground_state(lat.Lattice(3, 1))
        reports, state = qec.qec_cycle(
            gs, qec.NoiseModel(0.0), 2, np.random.default_rng(0)
        )
        for rec in reports:
            assert rec["errors"] == 0
            assert rec["syndrome"] == [] and rec["residual"] == 0
            assert rec["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_corrects_single_qutrit_flip(self):
        # a single edge shift creates an adjacent F pair; the cycle must
        # eventually fuse it away and return to the exact ground state
        lattice = lat.Lattice(3, 1)
        gs = lat.ground_state(lattice)
        edge = lattice.v_edge(1, 0)
        recovered = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            st = qec.inject_pauli(gs, edge, "Xh").normalized()
            reports, _ = qec.qec_cycle(st, qec.NoiseModel(0.0), 3, rng)
            first = reports[0]
            assert dict(first["syndrome"]) == {(0, 0): "F", (1, 0): "F"}
            assert first["actions"][0][:2] == ((0, 0), (1, 0))
            for rec in reports:
                if rec["residual"] == 0:
                    assert rec["fidelity"] == pytest.approx(1.0, abs=1e-9)
                    recovered += 1
                    break
        # fusing F x F hits the vacuum channel with probability 1/4 per
        # attempt, so three rounds succeed often; all-failure across eight
        # seeds would be (3/4)^24
        assert recovered >= 4

    def test_recovery_uses_only_adjacent_ribbons(self, monkeypatch):
        # transport and fusion must decompose into nearest-neighbour ribbon
        # applications; no long-range operator shortcuts
        lattice = lat.Lattice(3, 1)
        gs = lat.ground_state(lattice)
        st = qec.inject_pauli(gs, lattice.h_edge(0, 0), "Zh").normalized()
        lengths = []

        def spying(original):
            def spy(state, ribbon, anyon, *args, **kwargs):
                lengths.append(len(ribbon.triangles))
                return original(state, ribbon, anyon, *args, **kwargs)

            return spy

        # mixed ribbons and the explicit B branch of an abelian fix-up
        for name in ("apply_anyon_ribbon", "anyon_ribbon_branch"):
            monkeypatch.setattr(lat, name, spying(getattr(lat, name)))
        qec.qec_cycle(st, qec.NoiseModel(0.0), 2, np.random.default_rng(3))
        assert lengths and all(n == 2 for n in lengths)

    def test_noisy_round_report_shape(self):
        gs = lat.ground_state(lat.Lattice(3, 1))
        reports, state = qec.qec_cycle(
            gs, qec.NoiseModel(0.08), 2, np.random.default_rng(11)
        )
        assert len(reports) == 2
        for rec in reports:
            assert set(rec) == {
                "round",
                "errors",
                "syndrome",
                "actions",
                "residual",
                "fidelity",
            }
            for a, b, resolved in rec["actions"]:
                assert a in gs.lattice.sites and b in gs.lattice.sites
                assert isinstance(resolved, bool)
        assert isinstance(state, lat.LatticeState)


def _expanded_fidelity(state):
    """Reference for qec._fidelity_to_ground: both states fully expanded
    (6 terms per uniform vertex) before one inner product."""
    gs = lat.expanded(lat.ground_state(state.lattice))
    return float(abs(lat.inner(gs, lat.expanded(state.normalized()))) ** 2)


def _with_ground(state, weight):
    """weight |gs> + |state>, written on the state's uniform set."""
    gs = lat.ground_state(state.lattice)
    gs = lat._deuniformized(gs, sorted(gs.uniform - state.uniform))
    digits = np.concatenate([gs.digits, state.digits])
    amps = np.concatenate([weight * gs.amps, state.amps])
    return lat._states(state.lattice, digits, amps[:, None], state.uniform)[0]


class TestFidelity:
    @pytest.mark.parametrize("shape", [(3, 1), (2, 1), (1, 2)], ids=["3x1", "2x1", "1x2"])
    def test_orbit_basis_equals_expanded(self, shape):
        # post-recovery states of noisy cycles, alone and superposed with
        # the ground state: explicit vertices beyond the tree root then
        # carry a non-zero overlap, which the 6^(-1/2) per uniformized
        # vertex must scale exactly
        gs = lat.ground_state(lat.Lattice(*shape))
        cases = []
        for seed in range(8):
            _, st = qec.qec_cycle(
                gs, qec.NoiseModel(0.1), 1, np.random.default_rng(seed)
            )
            cases += [st, _with_ground(st, 0.6 - 0.3j)]
        partial_overlaps = []
        fidelities = []
        for st in cases:
            expected = _expanded_fidelity(st)
            assert abs(qec._fidelity_to_ground(st) - expected) < 1e-12
            fidelities.append(expected)
            if gs.uniform - st.uniform:
                partial_overlaps.append(expected)
        assert any(abs(f - 1) > 1e-6 for f in fidelities)
        assert any(1e-3 < f < 1 - 1e-3 for f in partial_overlaps)

    def test_noiseless_2x2_round_expands_nothing(self, monkeypatch):
        gs = lat.ground_state(lat.Lattice(2, 2))

        def refuse(state):
            raise AssertionError("a state was expanded")

        monkeypatch.setattr(lat, "expanded", refuse)
        tracemalloc.start()
        try:
            reports, _ = qec.qec_cycle(
                gs, qec.NoiseModel(0.0), 1, np.random.default_rng(0)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reports[0]["residual"] == 0
        assert reports[0]["fidelity"] == pytest.approx(1.0, abs=1e-12)
        # expanding 6^8 terms, as the reference does, peaks near 250 MB
        assert peak < 16e6


class TestFusionSampling:
    def test_marginals_match_dimension_law(self):
        data = category.default_category()
        rng = np.random.default_rng(5)
        for a, b in (("C", "C"), ("D", "D"), ("H", "H")):
            outs = data.outcomes(a, b)
            probs = np.array([category.fusion_probability(a, b, c) for c in outs])
            n = 3000
            counts = {c: 0 for c in outs}
            for _ in range(n):
                counts[qec.sample_fusion(a, b, rng)] += 1
            for c, p in zip(outs, probs):
                sigma = np.sqrt(p * (1 - p) / n)
                assert abs(counts[c] / n - p) < 4 * sigma + 1e-9

    def test_law_built_once_per_pair(self, monkeypatch):
        calls = []
        real = category.fusion_probability

        def counted(a, b, c):
            calls.append((a, b, c))
            return real(a, b, c)

        monkeypatch.setattr(category, "fusion_probability", counted)
        rng = np.random.default_rng(1)
        qec._fusion_law.cache_clear()
        try:
            for _ in range(5):
                for a, b in (("D", "D"), ("C", "D")):
                    qec.sample_fusion(a, b, rng)
        finally:
            qec._fusion_law.cache_clear()
        data = category.default_category()
        assert calls == [("D", "D", c) for c in data.outcomes("D", "D")] + [
            ("C", "D", c) for c in data.outcomes("C", "D")
        ]

    def test_abelian_deterministic(self):
        rng = np.random.default_rng(0)
        assert qec.sample_fusion("B", "B", rng) == "A"
        assert qec.sample_fusion("B", "D", rng) == "E"


class TestPhenomenologicalCycle:
    def test_noiseless_identity(self):
        reports, charges = qec.qec_cycle(
            (8, 8), qec.NoiseModel(0.0), 3, np.random.default_rng(0)
        )
        assert all(r["errors"] == 0 and r["residual"] == 0 for r in reports)
        assert set(charges.values()) == {"A"}

    def test_large_grid_low_noise(self):
        reports, charges = qec.qec_cycle(
            (16, 16), qec.NoiseModel(1e-3), 5, np.random.default_rng(42)
        )
        assert len(reports) == 5
        # sparse noise decodes well below saturation
        assert reports[-1]["residual"] <= 4

    def test_syndrome_letters_follow_tables(self):
        # with a Zh-only alphabet every deposited letter is a C, so all
        # recorded charges lie in the C fusion closure {A, B, C}
        reports, charges = qec.qec_cycle(
            (6, 6),
            qec.NoiseModel(0.05, weights=(("Zh", 1.0),)),
            4,
            np.random.default_rng(7),
        )
        seen = {v for r in reports for _, v in r["syndrome"]}
        assert seen and seen <= {"B", "C"}
        assert set(charges.values()) <= {"A", "B", "C"}

    def test_failed_fusion_requeues(self):
        # a fusion failing to reach vacuum leaves its outcome at the target
        # site: after the round the source is clear and the target carries a
        # non-trivial letter; scan seeds for such an event
        found = False
        for seed in range(40):
            rng = np.random.default_rng(seed)
            reports, charges = qec.qec_cycle(
                (4, 4), qec.NoiseModel(0.05, weights=(("Zh", 1.0),)), 1, rng
            )
            for a, b, resolved in reports[0]["actions"]:
                if not resolved:
                    assert charges[a] == "A" and charges[b] != "A"
                    found = True
        assert found

    def test_s3_mix_sampling(self):
        rng = np.random.default_rng(9)
        n = 3000
        counts = {"A": 0, "C": 0}
        for _ in range(n):
            counts[qec._sample_syndrome_letter("X", 2, qec.SYNDROME_H, rng)] += 1
        p = 2 / 3
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(counts["C"] / n - p) < 4 * sigma
        # deterministic slots pass through the table
        assert qec._sample_syndrome_letter("Z", 1, qec.SYNDROME_H, rng) == "B"
