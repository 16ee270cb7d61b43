"""Lattice, ribbon-operator, and charge-measurement tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3double import lattice as lat
from s3double.algebra import ANYON_TABLE, ANYONS, ELEMENTS, E, MU, SIGMA

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

    def _dense_vertex(self, lattice, v, g):
        dim = 6 ** lattice.n_edges
        st_all = lat.LatticeState(
            lattice,
            np.arange(dim, dtype=np.int64),
            np.ones(dim, dtype=complex),
            frozenset(),
        )
        out = lat.apply_vertex(st_all, v, g)
        # monomial permutation: columns are input keys, rows output keys
        mat = np.zeros((dim, dim), dtype=complex)
        mat[out.keys, st_all.keys] = out.amps
        return mat

    def test_vertex_operators_form_group_action(self):
        lattice = lat.Lattice(1, 1)
        v = (1, 1)
        mats = {g: self._dense_vertex(lattice, v, g) for g in ELEMENTS}
        for g in ELEMENTS:
            for h in ELEMENTS:
                assert np.allclose(mats[g] @ mats[h], mats[g * h], atol=1e-12)

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
