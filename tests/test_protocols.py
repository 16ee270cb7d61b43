"""Adaptive anyon-movement tests."""

import numpy as np
import pytest

from s3double import lattice as lat
from s3double import protocols as pro

ANYON_SAMPLE = tuple("BCDEFGH")


@pytest.fixture(scope="module")
def strip():
    lattice = lat.Lattice(3, 1)
    return lattice, lat.ground_state(lattice)


class TestPlans:
    def test_rejects_non_adjacent(self):
        with pytest.raises(pro.ProtocolError):
            pro.MovePlan("C", (0, 0), (2, 0))
        with pytest.raises(pro.ProtocolError):
            pro.MovePlan("C", (0, 0), (1, 1))

    def test_rejects_unknown_anyon(self):
        with pytest.raises(pro.ProtocolError):
            pro.MovePlan("X", (0, 0), (1, 0))

    def test_connecting_ribbon_all_directions(self):
        lattice = lat.Lattice(2, 2)
        for a, b in [
            ((0, 1), (1, 1)),
            ((1, 1), (0, 1)),
            ((0, 1), (0, 0)),
            ((0, 0), (0, 1)),
        ]:
            rib = connecting = pro.connecting_ribbon(lattice, a, b)
            assert {connecting.s0, connecting.s1} == {a, b}
            assert len(rib.triangles) == 2


class TestMoveStep:
    @pytest.mark.parametrize("anyon", ANYON_SAMPLE)
    def test_move_right_and_verify(self, anyon, strip):
        lattice, gs = strip
        rng = np.random.default_rng(hash(anyon) % 2**32)
        for _ in range(5):
            st = lat.apply_anyon_ribbon(gs, lat.shortest_h(lattice, (0, 0)), anyon, rng)
            res = pro.move_step(st, pro.MovePlan(anyon, (1, 0), (2, 0)), rng)
            assert res.success
            cfg, _ = lat.measure_MK(res.state, rng)
            assert lat.nontrivial(cfg) == {(0, 0): anyon, (2, 0): anyon}

    def test_abelian_one_round(self, strip):
        lattice, gs = strip
        rng = np.random.default_rng(0)
        st = lat.apply_anyon_ribbon(gs, lat.shortest_h(lattice, (0, 0)), "B", rng)
        res = pro.move_step(st, pro.MovePlan("B", (1, 0), (2, 0)), rng)
        assert res.success and res.rounds == 1

    def test_vacuum_move_noop(self, strip):
        lattice, gs = strip
        res = pro.move_step(gs, pro.MovePlan("A", (1, 0), (2, 0)), np.random.default_rng(0))
        assert res.success and res.rounds == 0 and res.transcript == ()

    def test_budget_exhaustion(self, strip):
        lattice, gs = strip
        failed = False
        for seed in range(60):
            rng = np.random.default_rng(seed)
            st = lat.apply_anyon_ribbon(gs, lat.shortest_h(lattice, (0, 0)), "C", rng)
            res = pro.move_step(st, pro.MovePlan("C", (1, 0), (2, 0), max_rounds=1), rng)
            if not res.success:
                assert res.rounds == 1
                assert len(res.transcript) >= 1
                failed = True
                break
        assert failed

    def test_locality_support(self):
        # no operation in a step may touch the distant partner's site
        lattice = lat.Lattice(3, 1)
        support = pro.step_support(lattice, (1, 0), (2, 0))
        partner_edges = set(lattice.plaquette_edges((0, 0)))
        partner_edges.update(e for e, _ in lattice.star((0, 0)))
        # the shared boundary between site (0,0) and source (1,0) is allowed;
        # edges exclusively owned by the partner site are not
        exclusive = partner_edges - set(lattice.plaquette_edges((1, 0))) - {
            e for e, _ in lattice.star((1, 0))
        }
        assert support.isdisjoint(exclusive)

    def test_transcript_outcomes_exhaustive(self, strip):
        # every recorded fusion outcome is a legal letter; undefined branches
        # would raise ProtocolError instead
        lattice, gs = strip
        rng = np.random.default_rng(77)
        for anyon in ANYON_SAMPLE:
            for _ in range(30):
                st = lat.apply_anyon_ribbon(gs, lat.shortest_h(lattice, (0, 0)), anyon, rng)
                res = pro.move_step(st, pro.MovePlan(anyon, (1, 0), (2, 0)), rng)
                for site, out in res.transcript:
                    assert site in ((1, 0), (2, 0))
                    assert out in "ABCDEFGH"

    @pytest.mark.parametrize("anyon,outcome", [("C", "D"), ("F", "G"), ("D", "B"), ("E", "E")])
    def test_source_outcome_outside_fusion_rules_raises(self, anyon, outcome, strip, monkeypatch):
        # alpha x alpha holds neither outcome, so no move may go on from it
        lattice, gs = strip
        rng = np.random.default_rng(5)
        st = lat.apply_anyon_ribbon(gs, lat.shortest_h(lattice, (0, 0)), anyon, rng)
        measure = lat.measure_site
        calls = []

        def misreport_first(state, site, rng):
            out, post = measure(state, site, rng)
            calls.append(site)
            return (outcome if len(calls) == 1 else out), post

        monkeypatch.setattr(lat, "measure_site", misreport_first)
        with pytest.raises(pro.ProtocolError, match=rf"(source fusion|measured) {outcome}$"):
            pro.move_step(st, pro.MovePlan(anyon, (1, 0), (2, 0)), rng)
        assert calls == [(1, 0)]

    def test_vacuum_at_d_target_raises(self, strip, monkeypatch):
        # D x y holds no A for any y in C/F/G/H, so a D move that reads A at
        # its target has gone wrong; a move may succeed only before it
        # measures the target
        lattice, gs = strip
        target = (2, 0)
        measure = lat.measure_site

        def vacuum_at_target(state, site, rng):
            out, post = measure(state, site, rng)
            return ("A" if site == target else out), post

        monkeypatch.setattr(lat, "measure_site", vacuum_at_target)
        raised = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            st = lat.apply_anyon_ribbon(gs, lat.shortest_h(lattice, (0, 0)), "D", rng)
            try:
                res = pro.move_step(st, pro.MovePlan("D", (1, 0), target), rng)
            except pro.ProtocolError as err:
                assert f"A at {target}" in str(err) or "measured A" in str(err)
                raised += 1
            else:
                assert res.success and all(site != target for site, _ in res.transcript)
        assert raised >= 6


class TestMovePath:
    def test_zero_length_noop(self, strip):
        _, gs = strip
        res = pro.move_path(gs, "C", [(1, 0)], np.random.default_rng(0))
        assert res.success and res.rounds == 0

    def test_c_across_strip(self, strip):
        lattice, gs = strip
        rng = np.random.default_rng(21)
        st = lat.apply_anyon_ribbon(gs, lat.shortest_h(lattice, (0, 0)), "C", rng)
        res = pro.move_path(st, "C", [(1, 0), (2, 0)], rng)
        assert res.success
        cfg, _ = lat.measure_MK(res.state, rng)
        assert lat.nontrivial(cfg) == {(0, 0): "C", (2, 0): "C"}

    def test_total_charge_conserved(self, strip):
        # after moving one pair member away and back, the pair still fuses to
        # vacuum; a nontrivial total charge could never fully annihilate
        lattice, gs = strip
        rng = np.random.default_rng(22)
        rib = lat.shortest_h(lattice, (0, 0))
        for _ in range(5):
            st = lat.apply_anyon_ribbon(gs, rib, "G", rng)
            res = pro.move_step(st, pro.MovePlan("G", (1, 0), (2, 0)), rng)
            assert res.success
            res = pro.move_step(res.state, pro.MovePlan("G", (2, 0), (1, 0)), rng)
            assert res.success
            st = res.state
            for _attempt in range(40):
                st = lat.apply_anyon_ribbon(st, rib, "G", rng)
                cfg, st = lat.measure_MK(st, rng)
                if not lat.nontrivial(cfg):
                    break
            else:
                pytest.fail("pair failed to annihilate to vacuum")


class TestStatistics:
    def test_analytic_values(self):
        assert pro.analytic_success("A", 3) == 1
        assert pro.analytic_success("C", 1) == 0.5
        assert pro.analytic_success("C", 3) == 1 - 1 / 8
        assert pro.analytic_success("D", 1) == pytest.approx(1 / 9)
        assert pro.analytic_success("D", 3) == pytest.approx(1 - (8 / 9) / 4)

    def test_trial_floor(self):
        with pytest.raises(pro.ProtocolError):
            pro.success_statistics("C", 2, 50, np.random.default_rng(0))

    @pytest.mark.parametrize("anyon", ("C", "D"))
    def test_curves_within_3_sigma(self, anyon):
        # the trials share their laws through one table, as under the CLI
        rng = np.random.default_rng(2026)
        with lat.law_table():
            recs = pro.success_statistics(anyon, 4, 800, rng)
        for rec in recs:
            assert abs(rec["z"]) < 3, rec
