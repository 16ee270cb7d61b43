"""Consistency, interferometry, and oracle tests for the category module."""

import cmath
import importlib.util
import itertools
import subprocess
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


TOOL = Path(__file__).resolve().parents[1] / "tools" / "generate_fr_table.py"


def loop_residuals(data):
    """(pentagon, hexagon, unitarity, vacuum) residuals by explicit loops over
    the label tuples: the reference the array evaluation is compared with."""
    labels = data.anyons
    N = lambda a, b, c: data.N.get((a, b, c), 0)
    Fel = data.f_entry

    unit = vac = 0.0
    for a, b, c, d in itertools.product(labels, repeat=4):
        mat, es, fs = data.f_matrix(a, b, c, d)
        if len(es):
            unit = max(unit, float(np.max(np.abs(mat @ mat.conj().T - np.eye(len(es))))))
            if "A" in (a, b, c):
                vac = max(vac, float(np.max(np.abs(mat - np.eye(len(es))))))

    pent = 0.0
    for a, b, c, d, e in itertools.product(labels, repeat=5):
        for f in data.outcomes(a, b):
            for g in labels:
                if not (N(f, c, g) and N(g, d, e)):
                    continue
                for l in data.outcomes(c, d):
                    if not N(f, l, e):
                        continue
                    for k in labels:
                        if not (N(b, l, k) and N(a, k, e)):
                            continue
                        lhs = Fel(f, c, d, e, g, l) * Fel(a, b, l, e, f, k)
                        rhs = sum(
                            Fel(a, b, c, g, f, h)
                            * Fel(a, h, d, e, g, k)
                            * Fel(b, c, d, k, h, l)
                            for h in labels
                        )
                        pent = max(pent, abs(lhs - rhs))

    hexa = 0.0
    Rc = {k: v.conjugate() for k, v in data.R.items()}
    for a, b, c, d in itertools.product(labels, repeat=4):
        for e in data.outcomes(a, c):
            if not N(e, b, d):
                continue
            for g in data.outcomes(c, b):
                if not N(a, g, d):
                    continue
                lhs = data.R[c, a, e] * Fel(a, c, b, d, e, g) * data.R[c, b, g]
                rhs = sum(
                    Fel(c, a, b, d, e, f) * data.R.get((c, f, d), 0) * Fel(a, b, c, d, f, g)
                    for f in labels
                )
                hexa = max(hexa, abs(lhs - rhs))
                lhs = Rc[a, c, e] * Fel(a, c, b, d, e, g) * Rc[b, c, g]
                rhs = sum(
                    Fel(c, a, b, d, e, f) * Rc.get((f, c, d), 0) * Fel(a, b, c, d, f, g)
                    for f in labels
                )
                hexa = max(hexa, abs(lhs - rhs))
    return pent, hexa, unit, vac


def with_phase(table, key, angle=1e-6):
    table = dict(table)
    table[key] *= cmath.exp(1j * angle)
    return table


def rebuilt(data, **tables):
    return category.CategoryData(
        data.anyons, data.N, data.dims, tables.get("R", data.R), tables.get("F", data.F)
    )


class TestConsistency:
    def test_full_report(self, data):
        report = category.verify_consistency(data)
        assert report.pentagon < 1e-9
        assert report.hexagon < 1e-9
        assert report.unitarity < 1e-9
        assert report.vacuum < 1e-9
        counts = (report.pentagon_equations, report.hexagon_equations, report.blocks)
        assert counts == (85012, 2948, 1344)
        assert report.passes()

    def test_vacuum_restriction_is_trivial(self, data):
        sub = category.restrict(data, ("A",))
        report = category.verify_consistency(sub)
        assert report.max_residual == 0.0
        assert (report.pentagon_equations, report.hexagon_equations, report.blocks) == (1, 1, 1)

    def test_empty_check_does_not_pass(self):
        # no fusion rules: nothing to evaluate, so residual 0 proves nothing
        empty = category.CategoryData(("A",), {}, {"A": 1}, {}, {})
        report = category.verify_consistency(empty)
        assert report.max_residual == 0.0 and report.pentagon_equations == 0
        assert not report.passes()

    def test_matches_loops_on_closed_subset(self, data):
        sub = category.restrict(data, ("A", "B", "C"))
        assert len(sub.F) == 49
        perturbed = rebuilt(sub, F=with_phase(sub.F, ("C", "C", "C", "C", "A", "A")))
        for table in (sub, perturbed):
            report = category.verify_consistency(table)
            got = (report.pentagon, report.hexagon, report.unitarity, report.vacuum)
            assert np.allclose(got, loop_residuals(table), rtol=0, atol=1e-14)
        assert category.verify_consistency(perturbed).pentagon > 1e-7

    def test_f_phase_breaks_pentagon_hexagon_unitarity(self, data):
        F = with_phase(data.F, ("G", "G", "G", "G", "A", "A"))
        report = category.verify_consistency(rebuilt(data, F=F))
        assert report.pentagon >= 1e-7
        assert report.hexagon >= 1e-7
        assert report.unitarity >= 1e-7
        assert not report.passes()

    @pytest.mark.parametrize(
        "key",  # the vacuum as a, as b and as c
        [
            ("A", "G", "G", "A", "G", "A"),
            ("G", "A", "G", "A", "G", "G"),
            ("G", "G", "A", "G", "G", "G"),
        ],
    )
    def test_vacuum_entry_phase_breaks_vacuum(self, data, key):
        report = category.verify_consistency(rebuilt(data, F=with_phase(data.F, key)))
        assert abs(report.vacuum - abs(cmath.exp(1e-6j) - 1)) < 1e-12
        assert not report.passes()

    def test_r_phase_breaks_hexagon(self, data):
        R = with_phase(data.R, ("G", "G", "A"))
        report = category.verify_consistency(rebuilt(data, R=R))
        assert report.hexagon >= 1e-7
        assert not report.passes()

    def test_missing_entries_raise(self, data):
        F = dict(data.F)
        del F["G", "G", "G", "G", "A", "B"]
        message = r"missing F entry \('G', 'G', 'G', 'G', 'A', 'B'\)"
        with pytest.raises(category.CategoryError, match=message):
            category.verify_consistency(rebuilt(data, F=F))
        R = dict(data.R)
        del R["G", "G", "B"]
        with pytest.raises(category.CategoryError, match=r"missing R entry \('G', 'G', 'B'\)"):
            category.verify_consistency(rebuilt(data, R=R))

    def test_non_square_block_raises(self):
        # X x A has no outcome although A x X -> X: block (X, A, X, A) has no
        # row e in X x A but the column f = X
        labels = ("A", "X")
        N = dict.fromkeys([("A", "A", "A"), ("A", "X", "X"), ("X", "X", "A"), ("X", "X", "X")], 1)
        N["X", "A", "X"] = 0
        R = dict.fromkeys(N, 1 + 0j)
        F = {
            (a, b, c, d, e, f): 1 + 0j
            for a, b, c, d, e, f in itertools.product(labels, repeat=6)
            if N.get((a, b, e)) and N.get((e, c, d)) and N.get((b, c, f)) and N.get((a, f, d))
        }
        table = category.CategoryData(labels, N, {"A": 1, "X": 1}, R, F)
        message = r"non-square F block \('X', 'A', 'X', 'A'\)"
        with pytest.raises(category.CategoryError, match=message):
            category.verify_consistency(table)

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
        spec = importlib.util.spec_from_file_location("generate_fr_table", TOOL)
        tool = importlib.util.module_from_spec(spec)
        # the tool prepends its checkout's src to the module search path
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec.loader.exec_module(tool)
        targets = tool.build_targets()
        assert len(targets) == 39
        for kind, labels, value in targets:
            got = data.F[labels] if kind == "F" else interferometry_amplitude(*labels, data=data)
            assert abs(got - value) < 1e-12, (kind, labels, got, value)


    def test_generator_imports_its_own_checkout(self, tmp_path):
        # a decoy package in the working directory's src must not be imported
        decoy = tmp_path / "src" / "s3double"
        decoy.mkdir(parents=True)
        (decoy / "__init__.py").write_text("raise ImportError('decoy s3double imported')\n")
        load = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('tool', {str(TOOL)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print(sys.modules['s3double.category'].__file__)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", load], cwd=tmp_path, capture_output=True, text=True,
            env={"PATH": "", "PYTHONNOUSERSITE": "1"}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        want = TOOL.parents[1] / "src" / "s3double" / "category.py"
        assert Path(done.stdout.strip()) == want


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
