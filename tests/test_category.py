"""Consistency, interferometry, and oracle tests for the category module."""

import cmath
import importlib.util
import itertools
import subprocess
import sys
import tracemalloc
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


def dense_report(data):
    """ConsistencyReport by the dense evaluation: every admissible label tuple
    from ``np.nonzero`` of a product of N over all label axes, and every sum
    over a free label over all n label values, one gather per value.  The
    reference the joined evaluation must equal exactly."""
    labels = data.anyons
    n = len(labels)
    index = {a: i for i, a in enumerate(labels)}

    def dense(table, rank):
        values = np.zeros((n,) * rank, dtype=complex)
        keys = np.array([[index[x] for x in key] for key in table], dtype=int)
        values[tuple(keys.reshape(-1, rank).T)] = list(table.values())
        return values

    N, R, F = dense(data.N, 3) != 0, dense(data.R, 3), dense(data.F, 6)
    adm = np.einsum("abe,ecd,bcf,afd->abcdef", N, N, N, N)
    F *= adm
    rows = np.einsum("abe,ecd->abcd", N, N, dtype=int)

    row = np.einsum("abe,ecd->abcde", N, N)
    a, b, c, d, e, x = np.nonzero(np.einsum("abcde,abcdx->abcdex", row, row))
    gram = sum(F[a, b, c, d, e, f] * F[a, b, c, d, x, f].conj() for f in range(n))
    unit = np.abs(gram - (e == x)).max(initial=0.0)
    is_vac = np.array([label == "A" for label in labels])
    touch = is_vac[:, None, None] | is_vac[None, :, None] | is_vac[None, None, :]
    vac = np.abs(F[adm & touch[..., None, None, None]] - 1).max(initial=0.0)

    a, b, f, c, g, d, e = np.nonzero(np.einsum("abf,fcg,gde->abfcgde", N, N, N))
    i, l = np.nonzero(N[c, d] & N[f, :, e])
    a, b, f, c, g, d, e = (y[i] for y in (a, b, f, c, g, d, e))
    i, k = np.nonzero(N[b, l] & N[a, :, e])
    a, b, f, c, g, d, e, l = (y[i] for y in (a, b, f, c, g, d, e, l))
    lhs = F[f, c, d, e, g, l] * F[a, b, l, e, f, k]
    rhs = sum(
        F[a, b, c, g, f, h] * F[a, h, d, e, g, k] * F[b, c, d, k, h, l]
        for h in range(n)
    )
    pent = np.abs(lhs - rhs).max(initial=0.0)
    pentagon_equations = len(k)

    a, b, c, d, e, g = np.nonzero(np.einsum("ace,ebd,cbg,agd->abcdeg", N, N, N, N))
    Rc = R.conj()
    mid = F[a, c, b, d, e, g]
    rhs = rhs_inv = 0
    for f in range(n):
        outer, inner = F[c, a, b, d, e, f], F[a, b, c, d, f, g]
        rhs = rhs + outer * R[c, f, d] * inner
        rhs_inv = rhs_inv + outer * Rc[f, c, d] * inner
    hexa = max(
        np.abs(R[c, a, e] * mid * R[c, b, g] - rhs).max(initial=0.0),
        np.abs(Rc[a, c, e] * mid * Rc[b, c, g] - rhs_inv).max(initial=0.0),
    )
    return category.ConsistencyReport(
        float(pent), float(hexa), float(unit), float(vac),
        pentagon_equations, len(g), int(np.count_nonzero(rows)),
    )


def with_phase(table, key, angle=1e-6):
    table = dict(table)
    table[key] *= cmath.exp(1j * angle)
    return table


def rebuilt(data, **tables):
    return category.CategoryData(
        data.anyons, data.N, data.dims, tables.get("R", data.R), tables.get("F", data.F)
    )


# F entries with the vacuum as a, as b and as c
VACUUM_KEYS = (
    ("A", "G", "G", "A", "G", "A"),
    ("G", "A", "G", "A", "G", "G"),
    ("G", "G", "A", "G", "G", "G"),
)


def raw_category():
    raw_F, raw_R = category.raw_symbols()
    return category.CategoryData(
        tuple(ANYONS), algebra.derive_fusion_rules(), dict(QUANTUM_DIMS), raw_R, raw_F
    )


def consistency_tables(data):
    """Every table the consistency tests report on, by name: the shipped and
    raw tables, two restrictions, the empty table and each perturbed table."""
    sub = category.restrict(data, ("A", "B", "C"))
    tables = {
        "shipped": data,
        "raw": raw_category(),
        "A": category.restrict(data, ("A",)),
        "ABC": sub,
        "ABC-F-CCCCAA": rebuilt(sub, F=with_phase(sub.F, ("C", "C", "C", "C", "A", "A"))),
        "empty": category.CategoryData(("A",), {}, {"A": 1}, {}, {}),
        "F-GGGGAA": rebuilt(data, F=with_phase(data.F, ("G", "G", "G", "G", "A", "A"))),
        "R-GGA": rebuilt(data, R=with_phase(data.R, ("G", "G", "A"))),
    }
    for key in VACUUM_KEYS:
        tables["F-" + "".join(key)] = rebuilt(data, F=with_phase(data.F, key))
    assert tuple(tables) == TABLE_NAMES
    return tables


TABLE_NAMES = ("shipped", "raw", "A", "ABC", "ABC-F-CCCCAA", "empty", "F-GGGGAA", "R-GGA")
TABLE_NAMES += tuple("F-" + "".join(key) for key in VACUUM_KEYS)


def reference_raw_symbols():
    """(F, R, splitting matrices) from the intertwiner construction by explicit
    kron products and traces, one label tuple at a time: the reference the
    batched oracle is compared with.  Same SVD, normalisation and phase
    convention."""

    def group_matrix(a, g):
        return sum(algebra.double_matrix(a, h, g) for h in algebra.ELEMENTS)

    gens = [("d", h) for h in algebra.ELEMENTS] + [("g", algebra.MU), ("g", algebra.SIGMA)]
    splitting = {}
    for a, b, c in itertools.product(ANYONS, repeat=3):
        da, db, dc = QUANTUM_DIMS[a], QUANTUM_DIMS[b], QUANTUM_DIMS[c]
        blocks = []
        for kind, x in gens:
            if kind == "d":
                m_ab = algebra.tensor_matrix(a, b, x, algebra.E)
                m_c = algebra.double_matrix(c, x, algebra.E)
            else:
                m_ab = np.kron(group_matrix(a, x), group_matrix(b, x))
                m_c = group_matrix(c, x)
            blocks.append(np.kron(m_c, np.eye(da * db)) - np.kron(np.eye(dc), m_ab.T))
        _, s, vh = np.linalg.svd(np.vstack(blocks))
        null_dim = int(np.sum(s < 1e-9))
        assert null_dim == algebra.derive_fusion_rules()[a, b, c], (a, b, c)
        if null_dim == 0:
            continue
        T = vh[-1].conj().reshape(dc, da * db)
        T = T / np.sqrt(np.trace(T @ T.conj().T).real / dc)
        flat = T.reshape(-1)
        lead = flat[int(np.argmax(np.abs(flat) > 0.3))]
        splitting[a, b, c] = (T * (abs(lead) / lead)).conj().T

    F, R = {}, {}
    outcomes = algebra.fusion_outcomes
    for a, b in itertools.product(ANYONS, repeat=2):
        da, db = QUANTUM_DIMS[a], QUANTUM_DIMS[b]
        braid = sum(
            np.kron(group_matrix(a, h), algebra.double_matrix(b, h, algebra.E))
            for h in algebra.ELEMENTS
        )
        swap = np.zeros((db * da, da * db))
        for i, j in itertools.product(range(da), range(db)):
            swap[j * da + i, i * db + j] = 1
        braid = swap @ braid
        for c in outcomes(a, b):
            value = np.trace(splitting[b, a, c].conj().T @ braid @ splitting[a, b, c])
            R[a, b, c] = complex(value / QUANTUM_DIMS[c])
        for c, d in itertools.product(ANYONS, repeat=2):
            for e in outcomes(a, b):
                if not algebra.derive_fusion_rules()[e, c, d]:
                    continue
                left = np.kron(splitting[a, b, e], np.eye(QUANTUM_DIMS[c])) @ splitting[e, c, d]
                for f in outcomes(b, c):
                    if not algebra.derive_fusion_rules()[a, f, d]:
                        continue
                    right = np.kron(np.eye(da), splitting[b, c, f]) @ splitting[a, f, d]
                    value = np.trace(right.conj().T @ left)
                    F[a, b, c, d, e, f] = complex(value / QUANTUM_DIMS[d])
    return F, R, splitting


@pytest.fixture(scope="module")
def tables(data):
    return consistency_tables(data)


@pytest.fixture(scope="module")
def reference():
    return reference_raw_symbols()


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

    @pytest.mark.parametrize("key", VACUUM_KEYS)
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

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_equals_dense_reference(self, tables, name):
        table = tables[name]
        report, reference = category.verify_consistency(table), dense_report(table)
        assert report == reference, (report, reference)  # every field exactly

    def test_memory_stays_in_the_admissible_tuples(self, data):
        # the dense route's 8^7 pentagon mask and its gathers over every h
        # peak at 16.5 MiB; the dense F table alone is 4 MiB
        category.verify_consistency(data)
        tracemalloc.start()
        try:
            category.verify_consistency(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20, peak

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
        tables = category.qutrit_tables()
        assert tables.mu.shape == tables.ma.shape == (2, len(category.ALL_PAIRS))
        for p, (x, y) in enumerate(category.ALL_PAIRS):
            for i, w in enumerate(category.MU_OUTCOMES):
                want = u_measurement_amplitude(x, y, "H", w)
                assert abs(tables.mu[i, p] - want) < 1e-12, (x, y, w)
            for i, w in enumerate(category.MA_OUTCOMES):
                want = interferometry_amplitude(x, "D", w) if x == w else 0
                assert abs(tables.ma[i, p] - want) < 1e-12, (x, y, w)
            want = data.f_entry("B", "D", "D", "G", "E", "G") * data.f_entry(
                "B", "G", y, "G", "G", "G"
            )
            assert abs(tables.e_correction[p] - want) < 1e-12, (x, y)

    def test_fusion_weights_and_merge_phases(self, data):
        tables = category.qutrit_tables()
        for prob, e in zip(tables.fuse, category.FUSE_OUTCOMES):
            assert abs(prob - abs(data.f_entry("G", "D", "D", "G", e, "G")) ** 2) < 1e-12
        for prob, c in zip(tables.root_fusion, category.ROOT_OUTCOMES):
            assert prob == fusion_probability("G", "G", c)
        assert set(tables.merge) == {"A", "B"}
        for outcome, branch in tables.merge.items():
            coeff = {
                X: np.conj(data.f_entry("G", "G", "G", "G", X, outcome))
                for X in category.ROOT_OUTCOMES
            }
            i_aa = interferometry_amplitude("A", "D", "A")
            i_ba = interferometry_amplitude("B", "D", "A")
            i_gg = interferometry_amplitude("G", "D", "G")
            w_a = abs(coeff["A"] * i_aa) ** 2 + abs(coeff["B"] * i_ba) ** 2
            w_g = abs(coeff["G"] * i_gg) ** 2
            assert np.allclose(branch.weights, (w_a, w_g), rtol=0, atol=1e-12)
            assert abs(abs(branch.pair_phase) - 1) < 1e-12
            probe = coeff["G"] * i_gg
            assert abs(branch.probe_phase - probe / abs(probe)) < 1e-12

    def test_tables_are_cached_and_read_only(self):
        tables = category.qutrit_tables()
        assert category.qutrit_tables() is tables
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

    @pytest.fixture
    def tool(self, monkeypatch):
        """The table generator, loaded without running its fit."""
        spec = importlib.util.spec_from_file_location("generate_fr_table", TOOL)
        tool = importlib.util.module_from_spec(spec)
        # the tool prepends its checkout's src to the module search path
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec.loader.exec_module(tool)
        return tool

    def test_generator_targets_hold(self, data, tool):
        # every value the table generator pins (F entries and interferometry
        # amplitudes) must hold on the table it shipped
        targets = tool.build_targets()
        assert len(targets) == 39
        for kind, labels, value in targets:
            got = data.F[labels] if kind == "F" else interferometry_amplitude(*labels, data=data)
            assert abs(got - value) < 1e-12, (kind, labels, got, value)

    def test_generator_accepts_only_the_shipped_table(self, data, tool):
        # the checks the generator runs before it writes a table
        assert tool.check_table(data.F, data.R) == []
        # one F phase off breaks the pentagon and hexagon identities
        F = dict(data.F)
        F["D", "D", "D", "D", "G", "G"] *= np.exp(0.1j)
        failures = tool.check_table(F, data.R)
        assert len(failures) == 1 and failures[0].startswith("consistency"), failures
        # the mirror table is consistent but misses the pinned gauge
        conj = {k: v.conjugate() for k, v in data.F.items()}
        failures = tool.check_table(conj, {k: v.conjugate() for k, v in data.R.items()})
        assert failures and all(f.startswith("target I") for f in failures), failures

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
            env={"PATH": "", "PYTHONNOUSERSITE": "1", "PYTHONDONTWRITEBYTECODE": "1"}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        want = TOOL.parents[1] / "src" / "s3double" / "category.py"
        assert Path(done.stdout.strip()) == want


class TestOracle:
    def test_gauge_invariants(self, data):
        report = category.derive_gauge_invariants(data)
        assert report.passes(), report

    def test_raw_data_is_consistent(self):
        report = category.verify_consistency(raw_category())
        assert report.passes(), report

    def test_raw_symbols_match_reference(self, reference):
        ref_F, ref_R, _ = reference
        raw_F, raw_R = category.raw_symbols()
        # same keys in the same order, every entry in the same phase gauge
        assert list(raw_F) == list(ref_F) and len(raw_F) == 2948
        assert list(raw_R) == list(ref_R) and len(raw_R) == 116
        for raw, ref in ((raw_F, ref_F), (raw_R, ref_R)):
            assert all(type(v) is complex for v in raw.values())
            assert max(abs(raw[k] - ref[k]) for k in ref) < 1e-12

    def test_splitting_tensors_match_reference(self, reference):
        S, counts = category.splitting_tensors()
        splitting = reference[2]
        assert int(counts.sum()) == len(splitting) == 116
        for (a, b, c), ref in splitting.items():
            i, j, k = (ANYONS.index(x) for x in (a, b, c))
            da, db, dc = (QUANTUM_DIMS[x] for x in (a, b, c))
            assert np.abs(S[i, j, k, :da, :db, :dc].reshape(da * db, dc) - ref).max() < 1e-12
        # padding and absent channels are zero
        assert np.count_nonzero(S) == sum(np.count_nonzero(s) for s in splitting.values())
        with pytest.raises(ValueError):
            S[0, 0, 0, 0, 0, 0] = 1

    def test_pair_actions_match_tensor_matrices(self):
        delta, group = category.pair_actions()
        D, G = category.module_matrices()
        for (i, a), (j, b) in itertools.product(enumerate(ANYONS), repeat=2):
            da, db = QUANTUM_DIMS[a], QUANTUM_DIMS[b]
            for h in algebra.ELEMENTS:
                got = delta[i, j, h.index, :da, :db, :da, :db].reshape(da * db, da * db)
                want = algebra.tensor_matrix(a, b, h, algebra.E)
                assert np.abs(got - want).max() < 1e-15, (a, b, h)
                act_a = sum(algebra.double_matrix(a, x, h) for x in algebra.ELEMENTS)
                act_b = sum(algebra.double_matrix(b, x, h) for x in algebra.ELEMENTS)
                assert np.array_equal(G[i, h.index, :da, :da], act_a)
                got = group[i, j, h.index, :da, :db, :da, :db].reshape(da * db, da * db)
                assert np.array_equal(got, np.kron(act_a, act_b)), (a, b, h)
            # nothing outside the d_a x d_b block
            assert not delta[i, j][..., da:, :, :, :].any()
            assert not group[i, j][..., :, db:, :, :].any()

    def test_wrong_multiplicity_raises(self, monkeypatch):
        wrong = dict(algebra.derive_fusion_rules())
        wrong["C", "C", "D"] = 1
        monkeypatch.setattr(algebra, "derive_fusion_rules", lambda: wrong)
        category.splitting_tensors.cache_clear()
        try:
            with pytest.raises(category.CategoryError, match="multiplicity 1"):
                category.splitting_tensors()
        finally:
            category.splitting_tensors.cache_clear()

    def test_dimension_check_reads_the_intertwiner_counts(self, data, monkeypatch):
        category.raw_symbols()  # cached before the counts are replaced
        S, counts = category.splitting_tensors()
        short = counts.copy()
        short[ANYONS.index("D"), ANYONS.index("D"), ANYONS.index("C")] = 0
        monkeypatch.setattr(category, "splitting_tensors", lambda: (S, short))
        report = category.derive_gauge_invariants(data)
        # d_D d_D = 9 but the C channel (d = 2) is missing from the counts
        assert report.dim_residual == 2.0
        assert not report.passes()

    def test_scaled_f_magnitude_fails(self, data):
        key = ("G", "G", "G", "G", "A", "G")
        F = dict(data.F)
        F[key] *= 1 + 1e-6
        report = category.derive_gauge_invariants(rebuilt(data, F=F))
        assert report.magnitude_residual > 1e-7 and report.worst_entry == key
        assert not report.passes()
        # the oracle compares |F| only; one entry's phase is the consistency
        # check's to catch
        assert category.derive_gauge_invariants(
            rebuilt(data, F=with_phase(data.F, key))
        ).passes()

    def test_changed_monodromy_fails(self, data):
        report = category.derive_gauge_invariants(
            rebuilt(data, R=with_phase(data.R, ("C", "D", "D")))
        )
        assert report.monodromy_residual > 1e-7 and report.twist_residual < 1e-9
        assert not report.passes()

    def test_sign_flipped_self_braid_fails_on_twist(self, data):
        # R^{CC}_A -> -R^{CC}_A keeps the monodromy (R^{CC}_A)^2; only the
        # twist theta_C = sum_c (d_c/d_C) R^{CC}_c sees it
        R = dict(data.R)
        R["C", "C", "A"] *= -1
        report = category.derive_gauge_invariants(rebuilt(data, R=R))
        assert report.monodromy_residual < 1e-9
        assert abs(report.twist_residual - 1.0) < 1e-9
        assert not report.passes()

    def test_counts_entries_compared(self, data):
        report = category.derive_gauge_invariants(data)
        assert (report.f_entries, report.r_entries) == (2948, 116)
        fields = dict(report.__dict__, f_entries=0)
        assert not category.OracleReport(**fields).passes()
        fields = dict(report.__dict__, r_entries=0)
        assert not category.OracleReport(**fields).passes()
