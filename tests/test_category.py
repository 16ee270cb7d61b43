"""Consistency, interferometry, and oracle tests for the category module."""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3double import algebra, category
from s3double.algebra import ANYONS, QUANTUM_DIMS
from s3double.category import (
    U_PAIRS,
    U_PERP1_PAIRS,
    U_PERP2_PAIRS,
    default_category,
    fusion_probability,
    interferometry_amplitude,
    u_measurement_amplitude,
)

OMEGA = np.exp(2j * np.pi / 3)
anyons = st.sampled_from(ANYONS)


@pytest.fixture(scope="module")
def data():
    return default_category()


class TestConsistency:
    def test_full_report(self, data):
        report = category.verify_consistency(data)
        assert report.pentagon < 1e-9
        assert report.hexagon < 1e-9
        assert report.unitarity < 1e-9
        assert report.vacuum < 1e-9

    def test_vacuum_restriction_is_trivial(self, data):
        sub = category.restrict(data, ("A",))
        report = category.verify_consistency(sub)
        assert report.max_residual == 0.0

    @given(anyons, anyons)
    @settings(max_examples=64, deadline=None)
    def test_f_unitary(self, data, a, b):
        for c, d in itertools.product(ANYONS, repeat=2):
            mat, es, fs = data.f_matrix(a, b, c, d)
            if len(es):
                assert np.allclose(
                    mat @ mat.conj().T, np.eye(len(es)), atol=1e-12
                )

    def test_twists(self, data):
        # theta_a = sum_c (d_c / d_a) R^{aa}_c
        expect = {
            "A": 1, "B": 1, "C": 1, "D": 1, "E": -1,
            "F": 1, "G": OMEGA, "H": OMEGA.conjugate(),
        }
        for a in ANYONS:
            twist = sum(
                QUANTUM_DIMS[c] / QUANTUM_DIMS[a] * data.r_symbol(a, a, c)
                for c in algebra.fusion_outcomes(a, a)
            )
            assert abs(twist - expect[a]) < 1e-12


class TestFusionProbability:
    @given(anyons, anyons)
    @settings(max_examples=64, deadline=None)
    def test_normalization(self, a, b):
        total = sum(fusion_probability(a, b, c) for c in ANYONS)
        assert abs(total - 1) < 1e-12

    def test_reference_values(self):
        assert fusion_probability("C", "C", "A") == pytest.approx(1 / 4)
        assert fusion_probability("C", "C", "B") == pytest.approx(1 / 4)
        assert fusion_probability("C", "C", "C") == pytest.approx(1 / 2)
        assert fusion_probability("D", "D", "A") == pytest.approx(1 / 9)
        for c in "CFGH":
            assert fusion_probability("D", "D", c) == pytest.approx(2 / 9)
        assert fusion_probability("G", "G", "G") == pytest.approx(1 / 2)


class TestInterferometry:
    def test_d_probe(self, data):
        assert abs(interferometry_amplitude("A", "D", "A") - 1) < 1e-12
        assert abs(interferometry_amplitude("B", "D", "A") + 1) < 1e-12
        assert abs(interferometry_amplitude("G", "D", "G") - OMEGA ** 2) < 1e-12

    def test_h_probe_table(self, data):
        rt3 = np.sqrt(3)
        expect = {
            ("A", "A"): 1, ("B", "A"): 1, ("G", "A"): 1,
            ("D", "H"): OMEGA ** 2, ("E", "H"): -OMEGA ** 2,
            ("C", "A"): -0.5, ("F", "A"): -0.5, ("H", "A"): -0.5,
            ("C", "B"): -0.5j * rt3, ("H", "B"): -0.5j * rt3,
            ("F", "B"): 0.5j * rt3,
        }
        for x in ANYONS:
            for w in algebra.fusion_outcomes("H", "H"):
                if not data.N.get((x, w, x), 0):
                    continue
                val = interferometry_amplitude(x, "H", w)
                assert abs(val - expect.get((x, w), 0)) < 1e-12, (x, w, val)

    @given(anyons, anyons)
    @settings(max_examples=64, deadline=None)
    def test_completeness(self, x, z):
        total = sum(
            abs(interferometry_amplitude(x, z, w)) ** 2 for w in ANYONS
        )
        assert abs(total - 1) < 1e-10

    def test_u_measurement_table(self):
        # all-A transcripts act as +1 on U and -1/2 on both U-perp sectors;
        # a B outcome distinguishes the two U-perp sectors by the sign of the
        # imaginary amplitude
        rt3 = np.sqrt(3)
        for x, y in U_PAIRS:
            assert abs(u_measurement_amplitude(x, y, "H", "A") - 1) < 1e-12
            assert abs(u_measurement_amplitude(x, y, "H", "B")) < 1e-12
        for x, y in U_PERP1_PAIRS:
            assert abs(u_measurement_amplitude(x, y, "H", "A") + 0.5) < 1e-12
            assert abs(u_measurement_amplitude(x, y, "H", "B") + 0.5j * rt3) < 1e-12
        for x, y in U_PERP2_PAIRS:
            assert abs(u_measurement_amplitude(x, y, "H", "A") + 0.5) < 1e-12
            assert abs(u_measurement_amplitude(x, y, "H", "B") - 0.5j * rt3) < 1e-12

    def test_u_measurement_rejects_other_pairs(self):
        with pytest.raises(category.CategoryError):
            u_measurement_amplitude("D", "D", "H", "A")


class TestQutritTables:
    """Every table entry equals the per-call closed form it replaces, in the
    pair and outcome orders the protocols index it by."""

    def test_measurement_rows(self, data):
        tables = data.qutrit_tables
        assert tables.mu.shape == tables.ma.shape == (2, len(category.ALL_PAIRS))
        for p, (x, y) in enumerate(category.ALL_PAIRS):
            for i, w in enumerate(category.MU_OUTCOMES):
                want = u_measurement_amplitude(x, y, "H", w, data)
                assert abs(tables.mu[i, p] - want) < 1e-12, (x, y, w)
            for i, w in enumerate(category.MA_OUTCOMES):
                want = interferometry_amplitude(x, "D", w, data) if x == w else 0
                assert abs(tables.ma[i, p] - want) < 1e-12, (x, y, w)
            want = data.f_entry("B", "D", "D", "G", "E", "G") * data.f_entry(
                "B", "G", y, "G", "G", "G"
            )
            assert abs(tables.e_correction[p] - want) < 1e-12, (x, y)

    def test_fusion_weights_and_merge_phases(self, data):
        tables = data.qutrit_tables
        for prob, e in zip(tables.fuse, category.FUSE_OUTCOMES):
            assert abs(prob - abs(data.f_entry("G", "D", "D", "G", e, "G")) ** 2) < 1e-12
        for prob, c in zip(tables.root_fusion, category.ROOT_OUTCOMES):
            assert prob == fusion_probability("G", "G", c, data)
        assert set(tables.merge) == {"A", "B"}
        for outcome, branch in tables.merge.items():
            coeff = {
                X: np.conj(data.f_entry("G", "G", "G", "G", X, outcome))
                for X in category.ROOT_OUTCOMES
            }
            i_aa = interferometry_amplitude("A", "D", "A", data)
            i_ba = interferometry_amplitude("B", "D", "A", data)
            i_gg = interferometry_amplitude("G", "D", "G", data)
            w_a = abs(coeff["A"] * i_aa) ** 2 + abs(coeff["B"] * i_ba) ** 2
            w_g = abs(coeff["G"] * i_gg) ** 2
            assert np.allclose(branch.weights, (w_a, w_g), rtol=0, atol=1e-12)
            assert abs(abs(branch.pair_phase) - 1) < 1e-12
            probe = coeff["G"] * i_gg
            assert abs(branch.probe_phase - probe / abs(probe)) < 1e-12

    def test_tables_are_cached_and_read_only(self, data):
        tables = data.qutrit_tables
        assert data.qutrit_tables is tables
        with pytest.raises(ValueError):
            tables.mu[0, 0] = 0


class TestReferenceFEntries:
    def test_fggg(self, data):
        rt2 = 1 / np.sqrt(2)
        expect = {
            ("A", "A"): 0.5, ("A", "B"): 0.5, ("A", "G"): rt2,
            ("B", "A"): 0.5, ("B", "B"): 0.5, ("B", "G"): -rt2,
            ("G", "A"): rt2, ("G", "B"): -rt2, ("G", "G"): 0.0,
        }
        for (e, f), v in expect.items():
            assert abs(data.f_entry("G", "G", "G", "G", e, f) - v) < 1e-12

    def test_d_pair_entries(self, data):
        rt2 = 1 / np.sqrt(2)
        assert abs(data.f_entry("G", "D", "D", "G", "D", "G") - rt2) < 1e-12
        assert abs(data.f_entry("G", "D", "D", "G", "E", "G") + rt2) < 1e-12
        assert abs(data.f_entry("B", "D", "D", "G", "E", "G") - 1) < 1e-12

    def test_generator_targets_hold(self, data, monkeypatch):
        # every value the table generator pins (F entries and interferometry
        # amplitudes) must hold on the table it shipped
        path = Path(__file__).resolve().parents[1] / "tools" / "generate_fr_table.py"
        spec = importlib.util.spec_from_file_location("generate_fr_table", path)
        tool = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src
        spec.loader.exec_module(tool)
        targets = tool.build_targets()
        assert len(targets) == 39
        for kind, labels, value in targets:
            got = data.F[labels] if kind == "F" else interferometry_amplitude(*labels, data=data)
            assert abs(got - value) < 1e-12, (kind, labels, got, value)


class TestOracle:
    def test_gauge_invariants(self, data):
        report = category.derive_gauge_invariants(data)
        assert report.passes(1e-9), report

    def test_raw_data_is_consistent(self):
        rawF, rawR = category.raw_symbols()
        raw = category.CategoryData(
            tuple(ANYONS),
            algebra.derive_fusion_rules(),
            dict(QUANTUM_DIMS),
            rawR,
            rawF,
        )
        report = category.verify_consistency(raw)
        assert report.passes(1e-9), report
