"""Lattice, ribbon-operator, and charge-measurement tests."""

import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3double import digits as dg
from s3double import lattice as lat
from s3double.algebra import (
    ANYON_TABLE,
    ANYONS,
    CHARACTERS,
    ELEMENTS,
    INV_TABLE,
    MU,
    MUL_TABLE,
    QUANTUM_DIMS,
    SIGMA,
    E,
    ribbon_terms,
)

elements = st.sampled_from(ELEMENTS)


def _merged(lattice, pieces, uniform):
    """Sum of (digits, amps) pieces as one state: equal rows are added and
    negligible amplitudes dropped.  No pieces give the zero state."""
    if not pieces:
        empty = np.zeros((0, lattice.n_edges), dtype=np.int8)
        return lat.LatticeState(lattice, empty, np.zeros(0, dtype=complex), uniform)
    digits, amps = map(np.concatenate, zip(*pieces))
    return lat._states(lattice, digits, amps[:, None], uniform)[0]


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
        st_all = lat.LatticeState(lattice, dg.basis_rows((6,) * lattice.n_edges), amps)
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
            cfg, _ = lat.measure_MK(gs21, rng)
            assert lat.nontrivial(cfg) == {}

    def test_resource_bound(self):
        with pytest.raises(lat.ResourceError):
            lat.ground_state(lat.Lattice(5, 2))

    def test_resource_bound_reports_vertices_and_one_term(self):
        # the refused ground state would hold one term, not 6^(V-1)
        with pytest.raises(lat.ResourceError, match="12 vertices.* bound of 10") as info:
            lat.ground_state(lat.Lattice(3, 2))
        assert info.value.estimated_terms == 1


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
                # one operator per m: F^{mbar h m, mbar g}_{rho2} F^{h,m}_{rho1}
                terms = lat.ribbon_operator_matrices(
                    lattice, support,
                    lambda st: [
                        lat.apply_ribbon(
                            lat.apply_ribbon(st, r1, h, m),
                            r2, m.inverse() * h * m, m.inverse() * g,
                        )
                        for m in ELEMENTS
                    ],
                )
                assert np.abs(big - terms.sum(axis=0)).max() < 1e-12

    def test_six_triangle_staircase_operator(self):
        # two horizontal steps then one vertical step: the six-triangle
        # recursion equals the gluing-sum of its three shortest pieces on
        # random sparse states
        lattice = lat.Lattice(3, 2)
        pieces = [
            lat.shortest_h(lattice, (0, 1)),
            lat.shortest_h(lattice, (1, 1)),
            lat.shortest_v(lattice, (2, 1)),
        ]
        rib = pieces[0] + pieces[1] + pieces[2]
        assert len(rib.triangles) == 6
        assert rib.s0 == (0, 1) and rib.s1 == (2, 0)
        rng = np.random.default_rng(3)
        keys = rng.choice(6 ** lattice.n_edges, size=40, replace=False).astype(
            np.int64
        )
        amps = rng.normal(size=40) + 1j * rng.normal(size=40)
        st0 = lat.LatticeState(lattice, dg.unpack(keys, (6,) * lattice.n_edges), amps, frozenset())
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
                            parts.append((out.digits, out.amps))
                glued = _merged(lattice, parts, frozenset())
                assert direct.n_terms == glued.n_terms
                assert np.array_equal(direct.keys, glued.keys)
                assert np.allclose(direct.amps, glued.amps, atol=1e-12)

    def test_staircase_transport(self):
        # one right step then one up step on a 2x2 lattice moves the charge
        # from (0, 1) to (1, 0)
        lattice = lat.Lattice(2, 2)
        rib = lat.shortest_h(lattice, (0, 1)) + lat.shortest_v(lattice, (1, 1))
        assert rib.s0 == (0, 1) and rib.s1 == (1, 0)
        gs = lat.ground_state(lattice)
        rng = np.random.default_rng(3)
        st = lat.apply_anyon_ribbon(gs, rib, "G", rng)
        cfg, _ = lat.measure_MK(st, rng)
        assert lat.nontrivial(cfg) == {(0, 1): "G", (1, 0): "G"}

    def test_gluing_needs_a_shared_site(self):
        # rho_h from (0, 1) ends at (1, 1); a ribbon must start there to follow it
        lattice = lat.Lattice(2, 2)
        with pytest.raises(ValueError, match="share an intermediate site"):
            lat.shortest_h(lattice, (0, 1)) + lat.shortest_v(lattice, (0, 1))
        with pytest.raises(ValueError):
            lat.shortest_v(lattice, (1, 1)) + lat.shortest_h(lattice, (0, 1))

    @pytest.mark.parametrize("anyon", ANYONS)
    def test_pair_creation_and_detection(self, anyon, gs21):
        rng = np.random.default_rng(11)
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        st = lat.apply_anyon_ribbon(gs21, rib, anyon, rng)
        assert abs(st.norm() - 1) < 1e-12
        cfg, post = lat.measure_MK(st, rng)
        assert cfg[(0, 0)] == anyon and cfg[(1, 0)] == anyon
        assert abs(post.norm() - 1) < 1e-12

    def test_vertical_pair_creation(self):
        lattice = lat.Lattice(2, 2)
        gs = lat.ground_state(lattice)
        rng = np.random.default_rng(12)
        rib = lat.shortest_v(lattice, (0, 1))
        st = lat.apply_anyon_ribbon(gs, rib, "D", rng)
        cfg, _ = lat.measure_MK(st, rng)
        assert lat.nontrivial(cfg) == {(0, 1): "D", (0, 0): "D"}

    def test_pure_branch_application(self, gs21):
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        irr = ANYON_TABLE["D"]
        st = lat.anyon_ribbon_branch(gs21, rib, "D", irr.basis[0], irr.basis[0]).normalized()
        assert abs(st.norm() - 1) < 1e-12

    def test_charge_projectors_resolve_identity(self, gs21):
        rng = np.random.default_rng(13)
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        st = lat.apply_anyon_ribbon(gs21, rib, "G", rng)
        st = lat.deuniformize(st, (0, 0))
        total = sum(lat.apply_K(st, (0, 0), a).norm() ** 2 for a in ANYONS)
        assert abs(total - 1) < 1e-10

    @pytest.mark.parametrize("anyon,blocks", zip(ANYONS, [1, 1, 1, 3, 3, 2, 2, 2]))
    def test_mixed_application_walks_once_per_flux(self, anyon, blocks, gs21, monkeypatch):
        # one walk for all d_a^2 rows, over the terms stacked once per flux
        # class member c
        walks = []
        walk = lat._ribbon_sum

        def spy(state, ribbon, fluxes, table):
            walks.append((len(fluxes), table.shape[-1]))
            return walk(state, ribbon, fluxes, table)

        monkeypatch.setattr(lat, "_ribbon_sum", spy)
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        lat.apply_anyon_ribbon(gs21, rib, anyon, np.random.default_rng(0))
        assert len({u[0] for u in ANYON_TABLE[anyon].basis}) == blocks
        assert walks == [(blocks, QUANTUM_DIMS[anyon] ** 2)]

    @pytest.mark.parametrize("anyon", ANYONS)
    def test_law_and_draw_equal_mixed_application(self, anyon, gs21):
        # one shared law, a fresh mixed application and a draw over the
        # per-label branches all pick the same branch with the same draws;
        # the branches of the 8-term random state differ in norm, so a law
        # of the norms instead of their squares would pick others
        explicit = _random_state(lat.Lattice(2, 2), 8, 4)
        for state, start in ((gs21, (0, 0)), (explicit, (0, 1))):
            rib = lat.shortest_h(state.lattice, start)
            law = lat.anyon_ribbon_law(state, rib, anyon)
            for seed in range(6):
                rngs = [np.random.default_rng(seed) for _ in range(3)]
                _, got = law.draw(rngs[0])
                mixed = lat.apply_anyon_ribbon(state, rib, anyon, rngs[1])
                want = _mixed_by_label(state, rib, anyon, rngs[2])
                for out in (got, mixed):
                    assert out.uniform == want.uniform
                    assert np.array_equal(out.keys, want.keys), seed
                    assert np.array_equal(out.amps, want.amps), seed
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
                assert rngs[0].bit_generator.state == rngs[2].bit_generator.state

    def test_law_arrays_are_read_only(self, gs21):
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        law = lat.anyon_ribbon_law(gs21, rib, "D")
        branch = law.branches[0]
        for array in (branch.digits, branch.amps, law.cdf):
            with pytest.raises(ValueError):
                array[0] = 0
        # a draw shares the branch's rows and owns its amplitudes
        _, drawn = law.draw(np.random.default_rng(0))
        with pytest.raises(ValueError):
            drawn.digits[0, 0] = 1


def _mixed_by_label(state, ribbon, anyon, rng):
    """Reference mixed application: one walk per (u, v) branch, the branches
    of squared norm <= PRUNE_TOL dropped, one rng.choice by squared norm."""
    basis = ANYON_TABLE[anyon].basis
    branches = [lat.anyon_ribbon_branch(state, ribbon, anyon, u, v) for u in basis for v in basis]
    kept = [(b, b.norm()) for b in branches if b.norm() ** 2 > lat.PRUNE_TOL]
    weights = [n ** 2 for _, n in kept]
    b, n = kept[rng.choice(len(kept), p=np.array(weights) / sum(weights))]
    return lat.LatticeState(b.lattice, b.digits, b.amps / n, b.uniform)


def _column_loop_matrix(lattice, support, builder):
    """Reference for ribbon_operator_matrix: one builder call per one-term
    basis column."""
    shape = (6,) * len(support)
    dim = 6 ** len(support)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        digits = np.full((1, lattice.n_edges), E.index, dtype=np.int8)
        for e, d in zip(support, reversed(np.unravel_index(col, shape))):
            digits[0, e] = d
        out = builder(lat.LatticeState(lattice, digits, np.ones(1, dtype=complex)))
        rows = np.ravel_multi_index([out.digits[:, e] for e in reversed(support)], shape)
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
        # 22 edges plus 2 tag digits fill the int64 key exactly: 24 base-6
        # digits fit one int64 key and 25 overflow it
        lattice = lat.Lattice(4, 2)
        rib = lat.shortest_h(lattice, (3, 1))
        support = [t.edge for t in rib.triangles]
        assert lattice.n_edges + len(support) == 24
        assert len(dg.place_values((6,) * 24, 1)) == 24
        with pytest.raises(dg.ResourceError):
            dg.place_values((6,) * 25, 1)
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
            # a digit 1 above the tag columns
            shifted = np.column_stack([st.digits, np.ones(st.n_terms, dtype=np.int8)])
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
    base = lat._deuniformized(state, (ribbon.s0, ribbon.s1))
    pieces = []
    for n in irrep.C.centralizer:
        coeff = scale * irrep.R.matrix(n)[j, jp]
        if abs(coeff) < 1e-15:
            continue
        part = lat.apply_ribbon(base, ribbon, c, tau_c * n * tau_cp.inverse())
        pieces.append((part.digits, part.amps * coeff))
    return _merged(state.lattice, pieces, base.uniform)


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
            digits = flux_part.digits.copy()
            lat._gauge_at_vertex(state.lattice, digits, site, g_arr)
            digits = lat.canonicalize_keys(state.lattice, digits, state.uniform)
            coeff = scale * np.conj(irrep.R.character(n))
            pieces.append((digits, flux_part.amps * coeff))
    return _merged(state.lattice, pieces, state.uniform)


def _K_per_anyon(state, site, anyon):
    """K^a_s as one anyon's own loop: for each flux h, the B^h_p part moved by
    A^g_v for each g with chi_a(h, g) != 0, then one canonicalize and merge."""
    chars = CHARACTERS[ANYONS.index(anyon)]
    scale = QUANTUM_DIMS[anyon] / lat.ORDER
    state = lat._deuniformized(state, [site])
    pieces = []
    for h in np.flatnonzero(chars.any(axis=1)):
        flux_part = lat.apply_plaquette(state, site, ELEMENTS[h])
        if flux_part.n_terms == 0:
            continue
        for g in np.flatnonzero(chars[h]):
            g_arr = np.full(flux_part.n_terms, g, dtype=np.int64)
            digits = flux_part.digits.copy()
            lat._gauge_at_vertex(state.lattice, digits, site, g_arr)
            pieces.append((digits, flux_part.amps * (scale * np.conj(chars[h, g]))))
    if not pieces:
        return _merged(state.lattice, [], state.uniform)
    digits, amps = map(np.concatenate, zip(*pieces))
    digits = lat.canonicalize_keys(state.lattice, digits, state.uniform)
    return _merged(state.lattice, [(digits, amps)], state.uniform)


def _measure_site_per_anyon(state, site, rng):
    """measure_site as a walk over the eight anyons, one _K_per_anyon each,
    with np.isin flux-class masks at a uniform vertex."""
    if site in state.uniform:
        f = lat._flux(state, site)
        masks = [np.isin(f, fluxes) for _, fluxes in lat._FLUX_CLASSES]
        probs = np.array([np.sum(np.abs(state.amps[m]) ** 2) for m in masks])
        pick = rng.choice(len(masks), p=probs / probs.sum())
        m = masks[pick]
        post = lat.LatticeState(state.lattice, state.digits[m], state.amps[m], state.uniform)
        return lat._FLUX_CLASSES[pick][0], post.normalized()
    u = rng.random() * state.norm() ** 2
    acc = 0.0
    letter, post = None, None
    for a in ANYONS:
        proj = _K_per_anyon(state, site, a)
        w = proj.norm() ** 2
        if w <= lat.PRUNE_TOL:
            continue
        letter, post = a, proj
        acc += w
        if acc >= u:
            break
    post = post.normalized()
    if letter == "A" and site != (0, 0):
        post = lat.uniformize(post, site)
    return letter, post


def _branches_per_row(state, ribbon, anyon):
    """anyon_ribbon_branches with one _merged per (u, v) row of each flux
    walk, over the terms where that row's coefficient is nonzero; also
    whether canonicalization moved any row of a walk."""
    basis = ANYON_TABLE[anyon].basis
    state = lat._deuniformized(state, (ribbon.s0, ribbon.s1))
    out, moved = [], False
    for h, us in groupby(basis, key=lambda u: u[0]):
        digits, prefix = state.digits.copy(), np.zeros(state.n_terms, dtype=np.int64)
        for tri in ribbon.triangles:
            if tri.kind == "direct":
                d = digits[:, tri.edge]
                prefix = MUL_TABLE[prefix, d if tri.positive else INV_TABLE[d]]
            else:
                conj = MUL_TABLE[MUL_TABLE[INV_TABLE[prefix], h.index], prefix]
                lat._mult(digits, tri.edge, conj, tri.positive)
        canonical = lat.canonicalize_keys(state.lattice, digits, state.uniform)
        moved |= not np.array_equal(canonical, digits)
        digits = canonical
        for u in us:
            for v in basis:
                c = ribbon_terms(anyon, u, v)[1][prefix]
                m = c != 0
                piece = (digits[m], state.amps[m] * c[m])
                out.append(_merged(state.lattice, [piece], state.uniform))
    return out, moved


def _random_state(lattice, n_terms, seed, uniform=(), explicit=()):
    """Random amplitudes on random configurations, then the `uniform`
    vertices made uniform and the `explicit` ones expanded again with new
    random amplitudes (each A_v orbit there is then complete)."""
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 6 ** lattice.n_edges, size=n_terms))
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    state = lat.LatticeState(lattice, dg.unpack(keys, (6,) * lattice.n_edges), amps)
    for v in uniform:
        state = lat.uniformize(state, v)
    if explicit:
        state = lat._deuniformized(state, explicit)
        amps = rng.normal(size=state.n_terms) + 1j * rng.normal(size=state.n_terms)
        state = lat.LatticeState(lattice, state.digits, amps, state.uniform)
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


class TestChargeMeasurementOracles:
    """measure_site and the mixed-ribbon branches against the per-anyon and
    per-row references, bitwise."""

    @pytest.mark.parametrize("kind", ["explicit", "uniform", "orbits"])
    def test_measure_site_equals_per_anyon_walk(self, oracle_states, kind):
        state = oracle_states[kind]
        classes = set()
        for site in [(0, 1), (1, 1)]:
            for seed in range(24):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                letter, post = lat.measure_site(state, site, rng)
                want_letter, want = _measure_site_per_anyon(state, site, ref_rng)
                assert letter == want_letter, (site, seed)
                assert post.uniform == want.uniform
                assert np.array_equal(post.keys, want.keys), (site, seed)
                assert np.array_equal(post.amps, want.amps), (site, seed)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                classes.add(letter)
        # outcomes of all three flux classes occur
        assert classes & set("ABC") and classes & set("DE") and classes & set("FGH"), classes

    # the h ribbon's dual edge is the tree edge into the uniform vertex (1, 2),
    # so its walks leave the canonical gauge; the v ribbon's dual edge is no
    # tree edge
    @pytest.mark.parametrize(
        "make,moving", [(lat.shortest_h, set("DEFGH")), (lat.shortest_v, set())], ids=["h", "v"]
    )
    def test_branches_equal_per_row_merge(self, oracle_states, make, moving):
        state = oracle_states["uniform"]
        rib = make(state.lattice, (0, 1))
        moved = set()
        for a in ANYONS:
            got = lat.anyon_ribbon_branches(state, rib, a)
            want, moves = _branches_per_row(state, rib, a)
            if moves:
                moved.add(a)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.uniform == w.uniform
                assert np.array_equal(g.keys, w.keys), a
                assert np.array_equal(g.amps, w.amps), a
        # a walk never maps two terms to one key (F^{h,g} commutes with A_v at
        # each vertex left uniform), so each sum has one term per key
        assert moved == moving

    def test_measure_site_memory_on_an_expanded_ribbon_state(self):
        # one D pair on the fully expanded 3x1 strip: 93,312 terms, all with
        # a transposition flux at the site; the per-class projection peaks
        # near 19 MiB, one of all eight anyons over the whole A_v orbit at
        # once above 150 MiB
        gs = lat.ground_state(lat.Lattice(3, 1))
        rib = lat.shortest_h(gs.lattice, (0, 0))
        state = lat.apply_anyon_ribbon(gs, rib, "D", np.random.default_rng(0))
        state = lat.expanded(state)
        assert state.n_terms == 93312
        tracemalloc.start()
        try:
            letter, post = lat.measure_site(state, (0, 0), np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert letter in "DE" and post.n_terms == state.n_terms
        assert peak <= 32 * 2**20, peak / 2**20


class TestLaws:
    """charge_law and anyon_ribbon_law against apply_K and the per-row
    branches."""

    @pytest.mark.parametrize("kind", ["explicit", "uniform", "orbits"])
    def test_charge_law_weights_are_K_weights(self, oracle_states, kind):
        # each outcome's squared norm is its K^a weight, the weights resolve
        # the norm, and an omitted letter carries no K weight (at a uniform
        # site only the pure flux-class anyons A, D and F occur)
        state = oracle_states[kind]
        total = state.norm() ** 2
        for site in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            law = lat.charge_law(state, site)
            assert set(law.labels) <= (set("ADF") if site in state.uniform else set(ANYONS))
            for letter, norm in zip(law.labels, law.norms):
                want = lat.apply_K(state, site, letter).norm() ** 2
                assert abs(norm ** 2 - want) <= 1e-12 * want, (site, letter)
            assert abs(sum(n ** 2 for n in law.norms) - total) <= 1e-12 * total, site
            for letter in set(ANYONS) - set(law.labels):
                assert lat.apply_K(state, site, letter).norm() ** 2 <= lat.PRUNE_TOL

    @pytest.mark.parametrize("site", [(0, 0), (0, 1)])
    def test_charge_law_of_zero_state_raises(self, oracle_states, site):
        state = oracle_states["uniform"]
        zero = lat.LatticeState(state.lattice, state.digits, 0 * state.amps, state.uniform)
        empty = lat.LatticeState(state.lattice, state.digits[:0], state.amps[:0], state.uniform)
        for st in (zero, empty):
            with pytest.raises(lat.AnnihilationError):
                lat.charge_law(st, site)

    @pytest.mark.parametrize("anyon", ANYONS)
    def test_ribbon_law_labels_are_surviving_rows(self, anyon, gs21):
        # the one-term identity configuration is not gauge-averaged, so the
        # ribbon's direct triangle reads e there, and only one row per u
        # survives; the ground state keeps every row
        lattice = gs21.lattice
        identity = np.zeros((1, lattice.n_edges), dtype=np.int8)
        one = lat.LatticeState(lattice, identity, np.ones(1, dtype=complex))
        basis = ANYON_TABLE[anyon].basis
        rows = [(u, v) for u in basis for v in basis]
        rib = lat.shortest_h(lattice, (0, 0))
        cut = 0
        for state in (gs21, one):
            law = lat.anyon_ribbon_law(state, rib, anyon)
            branches = lat.anyon_ribbon_branches(state, rib, anyon)
            kept = [r for r, b in zip(rows, branches) if b.norm() ** 2 > lat.PRUNE_TOL]
            assert law.labels == tuple(kept)
            cut += len(rows) - len(kept)
        assert cut == len(rows) - len(basis), cut


class TestLawTable:
    """The law table keys on exact bytes, hands out read-only states, stores
    nothing above its term bound and is closed outside law_table()."""

    def test_equal_digits_with_other_amplitudes_get_their_own_laws(self, oracle_states):
        # a key on the digits alone would hand the second state the first
        # state's law
        state = oracle_states["explicit"]
        other = lat.LatticeState(state.lattice, state.digits, state.amps[::-1], state.uniform)
        rib = lat.shortest_h(state.lattice, (0, 1))
        with lat.law_table() as table:
            for build, args in ((lat.charge_law, ((0, 1),)), (lat.anyon_ribbon_law, (rib, "D"))):
                laws = [build(st, *args) for st in (state, other)]
                for law, st in zip(laws, (state, other)):
                    fresh = build.__wrapped__(st, *args)
                    assert law.labels == fresh.labels and law.norms == fresh.norms
                assert laws[0].norms != laws[1].norms
        assert (table.misses, table.hits, table.skipped) == (4, 0, 0)

    def test_a_recurring_state_is_built_once(self, oracle_states):
        state = oracle_states["explicit"]
        copy = lat.LatticeState(
            state.lattice, state.digits.copy(), state.amps.copy(), state.uniform
        )
        with lat.law_table() as table:
            law = lat.charge_law(state, (1, 1))
            assert lat.charge_law(copy, (1, 1)) is law
            # the same bytes at another site, or with another uniform set, are other inputs
            assert lat.charge_law(state, (0, 0)) is not law
            moved = lat.LatticeState(state.lattice, state.digits, state.amps, frozenset({(2, 2)}))
            assert lat.charge_law(moved, (1, 1)) is not law
        assert (table.hits, table.misses) == (1, 3)
        assert lat.charge_law(state, (1, 1)) is not lat.charge_law(state, (1, 1))

    @pytest.mark.parametrize("kind", ["explicit", "uniform"])
    def test_kept_states_are_read_only(self, oracle_states, kind):
        # every post-state a law hands out, A's uniformized one included, is
        # shared by the later draws of that outcome
        state = oracle_states[kind]
        rib = lat.shortest_h(state.lattice, (0, 1))
        with lat.law_table():
            laws = [lat.charge_law(state, (0, 1)), lat.anyon_ribbon_law(state, rib, "C")]
            for law in laws:
                for seed in range(12):
                    label, post = law.draw(np.random.default_rng(seed))
                    assert law.draw(np.random.default_rng(seed))[1] is post
                    for array in (post.digits, post.amps):
                        with pytest.raises(ValueError):
                            array[0] = 0
        assert "A" in laws[0].labels

    def test_measure_site_keeps_the_uniformized_vacuum(self, oracle_states):
        # the A post-state of an explicit site is uniformized once, and
        # every later draw of A returns that state
        state = oracle_states["explicit"].normalized()
        with lat.law_table():
            posts = {}
            for seed in range(60):
                letter, post = lat.measure_site(state, (0, 1), np.random.default_rng(seed))
                assert posts.setdefault(letter, post) is post
        assert (0, 1) in posts["A"].uniform and (0, 1) not in state.uniform

    def test_a_state_above_the_bound_is_not_stored(self):
        lattice = lat.Lattice(3, 1)
        big = _random_state(lattice, 2 * lat.TABLE_MAX_TERMS, 7)
        assert big.n_terms > lat.TABLE_MAX_TERMS
        with lat.law_table() as table:
            lat.charge_law(big, (1, 0))
            assert table.values == {} and (table.skipped, table.misses) == (1, 0)
            n = lat.TABLE_MAX_TERMS
            lat.charge_law(lat.LatticeState(lattice, big.digits[:n], big.amps[:n]), (1, 0))
            assert len(table.values) == 1 and table.misses == 1

    def test_tables_nest_and_close(self, gs21):
        rib = lat.shortest_h(gs21.lattice, (0, 0))
        assert lat._TABLE is None
        with lat.law_table() as outer:
            with pytest.raises(lat.AnnihilationError):
                with lat.law_table() as inner:
                    lat.anyon_ribbon_law(gs21, rib, "D")
                    zero = lat.LatticeState(gs21.lattice, gs21.digits, 0 * gs21.amps)
                    lat.charge_law(zero, (0, 0))
            # the law that raised is not stored
            assert lat._TABLE is outer and outer.values == {}
            assert len(inner.values) == inner.misses == 1
        assert lat._TABLE is None


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
        gram, built = lat._orthonormality_residual(lattice, rib, rib)
        assert abs(gram - worst) < 1e-14 and built == 36

    def test_missing_branch_fails_report(self, monkeypatch):
        # the count is the number of operators built, so a dropped Kraus
        # branch fails the check instead of raising on the Gram comparison
        branches = lat.anyon_ribbon_branches

        def drop_last_d(state, ribbon, anyon):
            out = branches(state, ribbon, anyon)
            return out[:-1] if anyon == "D" else out

        monkeypatch.setattr(lat, "anyon_ribbon_branches", drop_last_d)
        report = lat.verify_orthonormality()
        assert report.operators_per_ribbon == 35
        assert report.max_residual == np.inf
        assert not report.passes()


class TestSerialization:
    def test_dump_roundtrip_stability(self, gs21):
        a, b = gs21, lat.ground_state(lat.Lattice(2, 1))
        assert np.array_equal(a.digits, b.digits)
        assert np.array_equal(a.amps, b.amps)
        assert a.uniform == b.uniform
