"""Lattice, ribbon-operator, and charge-measurement tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3double import lattice as lat
from s3double.algebra import ANYON_TABLE, ANYONS, ELEMENTS, E, MU, QUANTUM_DIMS, SIGMA

elements = st.sampled_from(ELEMENTS)


@pytest.fixture(scope="module")
def gs21():
    return lat.ground_state(lat.Lattice(2, 1))


class TestGeometry:
    @pytest.mark.parametrize("W,H", [(1, 1), (2, 1), (3, 1), (2, 2)])
    def test_edge_count(self, W, H):
        lattice = lat.Lattice(W, H)
        assert lattice.n_edges == W * (H + 1) + H * (W + 1)
        assert len(lattice.vertices) == (W + 1) * (H + 1)
        assert len(lattice.sites) == W * H

    def test_edge_indices_distinct(self):
        lattice = lat.Lattice(3, 2)
        seen = set()
        for y in range(3):
            for x in range(3):
                seen.add(lattice.h_edge(x, y))
        for y in range(2):
            for x in range(4):
                seen.add(lattice.v_edge(x, y))
        assert len(seen) == lattice.n_edges

    def test_star_and_plaquette(self):
        lattice = lat.Lattice(2, 2)
        assert len(lattice.star((1, 1))) == 4  # interior vertex
        assert len(lattice.star((0, 0))) == 2  # corner
        edges = lattice.plaquette_edges((0, 0))
        assert len(set(edges)) == 4


class TestDrinfeldAlgebra:
    """Operator relations of the vertex and plaquette operators."""

    def test_vertex_operators_form_group_action(self):
        # every configuration of a 1x1 lattice, each with its own amplitude,
        # so that keys and amplitudes together pin down the permutation
        lattice = lat.Lattice(1, 1)
        v = (1, 1)
        dim = 6 ** lattice.n_edges
        amps = np.arange(1, dim + 1, dtype=complex)
        st_all = lat.LatticeState(lattice, np.arange(dim, dtype=np.int64), amps)
        images = {g: lat.apply_vertex(st_all, v, g) for g in ELEMENTS}
        for g, out in images.items():
            # a bijection on keys that moves some key unless g = e
            assert np.array_equal(out.keys, st_all.keys)
            assert np.array_equal(np.sort(out.amps.real), amps.real)
            assert np.array_equal(out.amps, amps) == (g == E)
        for g in ELEMENTS:
            for h in ELEMENTS:
                gh = lat.apply_vertex(images[h], v, g)
                assert np.array_equal(gh.keys, images[g * h].keys)
                assert np.array_equal(gh.amps, images[g * h].amps), (g, h)

    def test_plaquette_projectors(self):
        lattice = lat.Lattice(1, 1)
        dim = 6 ** lattice.n_edges
        rng = np.random.default_rng(5)
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        st0 = lat.from_dense(lattice, vec)
        acc = np.zeros(dim, dtype=complex)
        for h in ELEMENTS:
            bh = lat.apply_plaquette(st0, (0, 0), h)
            # idempotent
            assert (
                np.abs(
                    lat.dense_vector(lat.apply_plaquette(bh, (0, 0), h))
                    - lat.dense_vector(bh)
                ).max()
                < 1e-12
            )
            acc += lat.dense_vector(bh)
        assert np.abs(acc - vec).max() < 1e-12  # sum over h resolves identity

    def test_vertex_plaquette_commutation(self):
        # A^g_v B^h_p = B^{g h g^{-1}}_p A^g_v at the plaquette's base vertex
        lattice = lat.Lattice(1, 1)
        rng = np.random.default_rng(6)
        dim = 6 ** lattice.n_edges
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        st0 = lat.from_dense(lattice, vec)
        v, p = (0, 0), (0, 0)
        for g in ELEMENTS:
            for h in ELEMENTS:
                lhs = lat.apply_vertex(lat.apply_plaquette(st0, p, h), v, g)
                rhs = lat.apply_plaquette(
                    lat.apply_vertex(st0, v, g), p, g * h * g.inverse()
                )
                assert (
                    np.abs(lat.dense_vector(lhs) - lat.dense_vector(rhs)).max()
                    < 1e-12
                )


class TestGroundState:
    @pytest.mark.parametrize("W,H", [(1, 1), (2, 1), (3, 1)])
    def test_stabilizer_expectations(self, W, H):
        gs = lat.ground_state(lat.Lattice(W, H))
        assert abs(gs.norm() - 1) < 1e-12
        for key, val in lat.stabilizer_expectations(gs).items():
            assert abs(val - 1) < 1e-10, (key, val)

    def test_canonical_form_is_single_term(self):
        gs = lat.ground_state(lat.Lattice(3, 1))
        assert gs.n_terms == 1

    def test_expansion_matches_uniform_orbit(self):
        gs = lat.ground_state(lat.Lattice(1, 1))
        full = lat.expanded(gs)
        assert full.n_terms == 6 ** 3  # orbit of the gauge group mod global
        amps = np.abs(full.amps)
        assert np.allclose(amps, amps[0], atol=1e-12)

    def test_uniqueness_dense_oracle(self):
        rng = np.random.default_rng(42)
        rank, s = lat.ground_space_rank(lat.Lattice(2, 1), rng)
        assert rank == 1
        assert s[1] < 1e-10 * s[0]

    def test_measure_all_A(self, gs21):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg, _ = lat.measure_MK(gs21.copy(), rng)
            assert cfg.nontrivial() == {}

    def test_resource_bound(self):
        with pytest.raises(lat.ResourceError):
            lat.ground_state(lat.Lattice(5, 2))


class TestRibbons:
    def test_gluing(self):
        # F^{h,g}_{rho1 rho2} = sum_m F^{h,m}_{rho1} F^{mbar h m, mbar g}_{rho2}
        lattice = lat.Lattice(3, 1)
        r1 = lat.shortest_h(lattice, (0, 0))
        r2 = lat.shortest_h(lattice, (1, 0))
        glued = r1 + r2
        support = sorted({t.edge for t in glued.triangles})
        for h in (MU, SIGMA):
            for g in (E, MU * SIGMA):
                big = lat.ribbon_operator_matrix(
                    lattice, support,
                    lambda st: lat.apply_ribbon(st, glued, h, g),
                )
                acc = np.zeros_like(big)
                for m in ELEMENTS:
                    m1 = lat.ribbon_operator_matrix(
                        lattice, support,
                        lambda st: lat.apply_ribbon(st, r1, h, m),
                    )
                    m2 = lat.ribbon_operator_matrix(
                        lattice, support,
                        lambda st: lat.apply_ribbon(
                            st, r2, m.inverse() * h * m, m.inverse() * g
                        ),
                    )
                    acc += m2 @ m1
                assert np.abs(big - acc).max() < 1e-12

    def test_six_triangle_staircase_operator(self):
        # two horizontal steps then one vertical step: the six-triangle
        # recursion equals the gluing-sum of its three shortest pieces on
        # random sparse states
        lattice = lat.Lattice(3, 2)
        rib = lat.staircase_ribbon(lattice, (0, 1), "RRU")
        assert len(rib.triangles) == 6
        assert rib.s0 == (0, 1) and rib.s1 == (2, 0)
        pieces = [
            lat.shortest_h(lattice, (0, 1)),
            lat.shortest_h(lattice, (1, 1)),
            lat.shortest_v(lattice, (2, 1)),
        ]
        rng = np.random.default_rng(3)
        keys = rng.choice(6 ** lattice.n_edges, size=40, replace=False).astype(
            np.int64
        )
        amps = rng.normal(size=40) + 1j * rng.normal(size=40)
        st0 = lat.LatticeState(lattice, keys, amps, frozenset())
        for h in (MU, SIGMA):
            for g in (E, MU):
                direct = lat.apply_ribbon(st0, rib, h, g)
                parts = []
                for m1 in ELEMENTS:
                    for m2 in ELEMENTS:
                        h1, h2 = h, m1.inverse() * h * m1
                        h3 = m2.inverse() * h2 * m2
                        g3 = m2.inverse() * (m1.inverse() * g)
                        out = lat.apply_ribbon(st0, pieces[0], h1, m1)
                        out = lat.apply_ribbon(out, pieces[1], h2, m2)
                        out = lat.apply_ribbon(out, pieces[2], h3, g3)
                        if out.n_terms:
                            parts.append((out.keys, out.amps))
                glued = lat._merged(lattice, parts, frozenset())
                assert direct.n_terms == glued.n_terms
                assert np.array_equal(direct.keys, glued.keys)
                assert np.allclose(direct.amps, glued.amps, atol=1e-12)

    def test_staircase_transport(self):
        # one right step then one up step on a 2x2 lattice moves the charge
        # from (0, 1) to (1, 0)
        lattice = lat.Lattice(2, 2)
        rib = lat.staircase_ribbon(lattice, (0, 1), "RU")
        assert rib.s0 == (0, 1) and rib.s1 == (1, 0)
        gs = lat.ground_state(lattice)
        rng = np.random.default_rng(3)
        st = lat.apply_anyon_ribbon(gs, rib, "G", mixed=True, rng=rng)
        cfg, _ = lat.measure_MK(st, rng)
        assert cfg.nontrivial() == {(0, 1): "G", (1, 0): "G"}

    @pytest.mark.parametrize("anyon", ANYONS)
    def test_pair_creation_and_detection(self, anyon, gs21):
        rng = np.random.default_rng(11)
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        st = lat.apply_anyon_ribbon(gs21, rib, anyon, mixed=True, rng=rng)
        assert abs(st.norm() - 1) < 1e-12
        cfg, post = lat.measure_MK(st, rng)
        assert cfg[(0, 0)] == anyon and cfg[(1, 0)] == anyon
        assert abs(post.norm() - 1) < 1e-12

    def test_vertical_pair_creation(self):
        lattice = lat.Lattice(2, 2)
        gs = lat.ground_state(lattice)
        rng = np.random.default_rng(12)
        rib = lat.shortest_v(lattice, (0, 1))
        st = lat.apply_anyon_ribbon(gs, rib, "D", mixed=True, rng=rng)
        cfg, _ = lat.measure_MK(st, rng)
        assert cfg.nontrivial() == {(0, 1): "D", (0, 0): "D"}

    def test_pure_branch_application(self, gs21):
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        irr = ANYON_TABLE["D"]
        st = lat.apply_anyon_ribbon(
            gs21, rib, "D", u=irr.basis[0], v=irr.basis[0]
        )
        assert abs(st.norm() - 1) < 1e-12

    def test_charge_projectors_resolve_identity(self, gs21):
        rng = np.random.default_rng(13)
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        st = lat.apply_anyon_ribbon(gs21, rib, "G", mixed=True, rng=rng)
        st = lat.deuniformize(st, (0, 0))
        total = sum(lat.apply_K(st, (0, 0), a).norm() ** 2 for a in ANYONS)
        assert abs(total - 1) < 1e-10

    @pytest.mark.parametrize("anyon,walks", zip(ANYONS, [1, 1, 1, 3, 3, 2, 2, 2]))
    def test_mixed_application_walks_once_per_flux(self, anyon, walks, gs21, monkeypatch):
        # one walk for each flux class member c, carrying d_a^2 / |C| rows
        rows = []
        walk = lat._ribbon_sum

        def spy(state, ribbon, h, coeff_rows):
            rows.append(len(coeff_rows))
            return walk(state, ribbon, h, coeff_rows)

        monkeypatch.setattr(lat, "_ribbon_sum", spy)
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        lat.apply_anyon_ribbon(gs21, rib, anyon, mixed=True, rng=np.random.default_rng(0))
        assert len(rows) == walks
        assert sum(rows) == QUANTUM_DIMS[anyon] ** 2


def _column_loop_matrix(lattice, support, builder):
    """Reference for ribbon_operator_matrix: one builder call per one-term
    basis column."""
    shape = (6,) * len(support)
    dim = 6 ** len(support)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        key = lat._identity_keys(1)
        for e, d in zip(support, reversed(np.unravel_index(col, shape))):
            key = lat._set_digit(key, e, E.index, d)
        out = builder(lat.LatticeState(lattice, key, np.ones(1, dtype=complex)))
        rows = np.ravel_multi_index([lat._digit(out.keys, e) for e in reversed(support)], shape)
        mat[rows, col] = out.amps
    return mat


def _anyon_labels():
    return [(a, u, v) for a in ANYONS for u in ANYON_TABLE[a].basis for v in ANYON_TABLE[a].basis]


class TestRibbonOperatorMatrix:
    @pytest.mark.parametrize(
        "W,H,make",
        [(1, 1, lambda L: lat.shortest_h(L, (0, 0))), (1, 2, lambda L: lat.shortest_v(L, (0, 1)))],
        ids=["h", "v"],
    )
    def test_batched_equals_column_loop_anyon_branches(self, W, H, make):
        lattice = lat.Lattice(W, H)
        rib = make(lattice)
        support = [t.edge for t in rib.triangles]
        for a, u, v in _anyon_labels():
            def builder(st, a=a, u=u, v=v):
                return lat.anyon_ribbon_branch(st, rib, a, u, v)

            batched = lat.ribbon_operator_matrix(lattice, support, builder)
            assert np.array_equal(batched, _column_loop_matrix(lattice, support, builder)), (a, u, v)

    def test_batched_equals_column_loop_glued_ribbon(self):
        lattice = lat.Lattice(3, 1)
        glued = lat.shortest_h(lattice, (0, 0)) + lat.shortest_h(lattice, (1, 0))
        support = sorted({t.edge for t in glued.triangles})
        for h in (MU, SIGMA):
            for g in (E, MU * SIGMA):
                def builder(st, h=h, g=g):
                    return lat.apply_ribbon(st, glued, h, g)

                batched = lat.ribbon_operator_matrix(lattice, support, builder)
                assert np.array_equal(batched, _column_loop_matrix(lattice, support, builder))

    def test_all_key_digits_in_use(self):
        # 22 edges plus 2 tag digits fill the int64 key exactly
        lattice = lat.Lattice(4, 2)
        rib = lat.shortest_h(lattice, (3, 1))
        support = [t.edge for t in rib.triangles]
        assert lattice.n_edges + len(support) == lat.KEY_DIGITS
        assert max(support) == lattice.n_edges - 1

        def builder(st):
            return lat.apply_ribbon(st, rib, MU, SIGMA)

        batched = lat.ribbon_operator_matrix(lattice, support, builder)
        assert np.count_nonzero(batched) == 6
        assert np.array_equal(batched, _column_loop_matrix(lattice, support, builder))

    def test_builder_acting_off_support_raises(self):
        lattice = lat.Lattice(2, 1)
        rib = lat.shortest_h(lattice, (0, 0))
        direct_edge = [rib.triangles[0].edge]  # the dual edge is left out
        with pytest.raises(ValueError, match="outside the support"):
            lat.ribbon_operator_matrix(
                lattice, direct_edge, lambda st: lat.apply_ribbon(st, rib, MU, E)
            )

    def test_builder_changing_column_tags_raises(self):
        lattice = lat.Lattice(1, 1)
        rib = lat.shortest_h(lattice, (0, 0))
        support = [t.edge for t in rib.triangles]

        def builder(st):
            shifted = st.keys + 6 ** (lattice.n_edges + len(support))
            return lat.LatticeState(st.lattice, shifted, st.amps)

        with pytest.raises(ValueError, match="column tag"):
            lat.ribbon_operator_matrix(lattice, support, builder)

    def test_oversized_lattice_rejected_before_any_state(self, monkeypatch):
        lattice = lat.Lattice(4, 2)
        support = [0, 1, 2]

        def no_state(*args, **kwargs):
            raise AssertionError("a state was built")

        monkeypatch.setattr(lat, "LatticeState", no_state)
        with pytest.raises(lat.ResourceError):
            lat.ribbon_operator_matrix(lattice, support, no_state)


def _ribbon_branch_by_centralizer(state, ribbon, anyon, u, v):
    """F^{R,C;u,v} as the sum over n in Z(C) of separate apply_ribbon calls,
    (dim R / |Z(C)|) Gamma^R_{jj'}(n) F^{c, tau_c n tau_c'^{-1}}."""
    irrep = ANYON_TABLE[anyon]
    (c, j), (cp, jp) = u, v
    tau_c, tau_cp = irrep.C.tau[c], irrep.C.tau[cp]
    scale = irrep.R.dim / len(irrep.C.centralizer)
    base = lat._deuniformized(state, ribbon.vertices)
    pieces = []
    for n in irrep.C.centralizer:
        coeff = scale * irrep.R.matrix(n)[j, jp]
        if abs(coeff) < 1e-15:
            continue
        part = lat.apply_ribbon(base, ribbon, c, tau_c * n * tau_cp.inverse())
        pieces.append((part.keys, part.amps * coeff))
    return lat._merged(state.lattice, pieces, base.uniform)


def _K_by_centralizer(state, site, anyon):
    """K^{R,C}_s as (dim R / |Z(C)|) sum_{c in C, n in Z(C)} conj chi_R(n)
    A^{tau_c n tau_c^{-1}}_v B^c_p."""
    irrep = ANYON_TABLE[anyon]
    state = lat._deuniformized(state, [site])
    scale = irrep.R.dim / len(irrep.C.centralizer)
    pieces = []
    for c in irrep.C.members:
        flux_part = lat.apply_plaquette(state, site, c)
        tau_c = irrep.C.tau[c]
        for n in irrep.C.centralizer:
            g = tau_c * n * tau_c.inverse()
            g_arr = np.full(flux_part.n_terms, g.index, dtype=np.int64)
            keys = lat._gauge_at_vertex(state.lattice, flux_part.keys, site, g_arr)
            keys = lat.canonicalize_keys(state.lattice, keys, state.uniform)
            coeff = scale * np.conj(irrep.R.character(n))
            pieces.append((keys, flux_part.amps * coeff))
    return lat._merged(state.lattice, pieces, state.uniform)


def _random_state(lattice, n_terms, seed, uniform=(), explicit=()):
    """Random amplitudes on random configurations, then the `uniform`
    vertices made uniform and the `explicit` ones expanded again with new
    random amplitudes (each A_v orbit there is then complete)."""
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 6 ** lattice.n_edges, size=n_terms))
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    state = lat.LatticeState(lattice, keys, amps)
    for v in uniform:
        state = lat.uniformize(state, v)
    if explicit:
        state = lat._deuniformized(state, explicit)
        amps = rng.normal(size=state.n_terms) + 1j * rng.normal(size=state.n_terms)
        state = lat.LatticeState(lattice, state.keys, amps, state.uniform)
    return state


@pytest.fixture(scope="module")
def oracle_states():
    lattice = lat.Lattice(2, 2)
    uniform = [(0, 1), (1, 1), (2, 1), (1, 2)]
    return {
        "explicit": _random_state(lattice, 300, 1),
        "uniform": _random_state(lattice, 300, 2, uniform),
        "orbits": _random_state(lattice, 300, 3, uniform, explicit=[(0, 1), (1, 1)]),
    }


class TestAlgebraTableOracles:
    """The ribbon and K coefficients read from algebra's tables against the
    centralizer loops written out from (C, tau, Z(C), Gamma^R), and the
    per-flux branch enumeration against one walk per (u, v) label."""

    @pytest.mark.parametrize("kind", ["explicit", "uniform"])
    @pytest.mark.parametrize("make", [lat.shortest_h, lat.shortest_v], ids=["h", "v"])
    def test_ribbon_branch_equals_centralizer_sum(self, oracle_states, kind, make):
        state = oracle_states[kind]
        rib = make(state.lattice, (0, 1))
        for a, u, v in _anyon_labels():
            got = lat.anyon_ribbon_branch(state, rib, a, u, v)
            want = _ribbon_branch_by_centralizer(state, rib, a, u, v)
            assert got.uniform == want.uniform
            assert np.array_equal(got.keys, want.keys), (a, u, v)
            assert np.array_equal(got.amps, want.amps), (a, u, v)

    @pytest.mark.parametrize("kind", ["explicit", "uniform"])
    @pytest.mark.parametrize("make", [lat.shortest_h, lat.shortest_v], ids=["h", "v"])
    def test_branches_equal_per_label_branch(self, oracle_states, kind, make):
        # every (u, v) branch, u outer and v inner in basis order, bitwise
        state = oracle_states[kind]
        rib = make(state.lattice, (0, 1))
        for a in ANYONS:
            basis = ANYON_TABLE[a].basis
            got = lat.anyon_ribbon_branches(state, rib, a)
            want = [lat.anyon_ribbon_branch(state, rib, a, u, v) for u in basis for v in basis]
            assert len(got) == len(want) == QUANTUM_DIMS[a] ** 2
            for g, w in zip(got, want):
                assert g.uniform == w.uniform
                assert np.array_equal(g.keys, w.keys), a
                assert np.array_equal(g.amps, w.amps), a

    @pytest.mark.parametrize("kind", ["explicit", "uniform", "orbits"])
    @pytest.mark.parametrize("anyon", ANYONS)
    def test_K_equals_centralizer_loop(self, oracle_states, kind, anyon):
        # apply_K adds its A^g pieces in group-index order of g, the loop in
        # centralizer order; at flux mu^2 the two orders differ, so sums of
        # overlapping pieces may differ in the last bit
        state = oracle_states[kind]
        for site in [(0, 1), (1, 1)]:
            got = lat.apply_K(state, site, anyon)
            want = _K_by_centralizer(state, site, anyon)
            assert got.uniform == want.uniform
            assert np.array_equal(got.keys, want.keys), site
            np.testing.assert_allclose(got.amps, want.amps, rtol=0, atol=1e-15)

    def test_orbit_state_is_closed_under_the_site_gauge(self, oracle_states):
        # so the K pieces of the "orbits" state land on each other's keys
        state = oracle_states["orbits"]
        for v in [(0, 1), (1, 1)]:
            assert np.array_equal(lat.vertex_projector(state, v).keys, state.keys)


class TestOrthonormality:
    def test_report(self):
        report = lat.verify_orthonormality()
        assert report.operators_per_ribbon == 36
        assert report.pairs_checked == 4 * 36 * 36
        assert report.max_residual < 1e-9
        assert report.passes()

    def test_gram_residual_equals_trace_loop(self):
        lattice = lat.Lattice(2, 2)
        rib = lat.shortest_h(lattice, (0, 1))
        support = sorted(t.edge for t in rib.triangles)
        labels = _anyon_labels()
        mats = [
            lat.ribbon_operator_matrix(
                lattice, support,
                lambda st, a=a, u=u, v=v: lat.anyon_ribbon_branch(st, rib, a, u, v),
            )
            for a, u, v in labels
        ]
        worst = 0.0
        for l1, m1 in zip(labels, mats):
            for l2, m2 in zip(labels, mats):
                tr = np.trace(m1.conj().T @ m2) / 36
                if l1[0] == "A" and l2[0] == "A":
                    expect = 1 / 36
                elif l1 == l2:
                    irr = ANYON_TABLE[l1[0]]
                    expect = irr.R.dim / (len(irr.C.centralizer) * 6)
                else:
                    expect = 0.0
                worst = max(worst, abs(tr - expect))
        gram = lat._orthonormality_residual(lattice, rib, rib)
        assert abs(gram - worst) < 1e-14


class TestSerialization:
    def test_dump_roundtrip_stability(self, gs21):
        a = gs21.dump()
        b = lat.ground_state(lat.Lattice(2, 1)).dump()
        assert a == b
        assert "lattice 2x1" in a
