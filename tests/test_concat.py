"""Qudit CSS codes and the block-scheduled logical controlled conjugation."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from s3double import circuits as cir
from s3double import concat_code as cc
from s3double import digits as dg
from s3double.algebra import OMEGA


# Dense reference: the register as a 3^n vector, operators as index tables.


@functools.cache
def _dense_tables(n):
    """Digit rows of the 3^n basis states (qudit 0 most significant) and the
    place values that map a digit row back to its index."""
    digits = np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int64)
    return digits, 3 ** np.arange(n - 1, -1, -1)


def _dense_permute(vec, perm, phase=1.0):
    out = np.zeros_like(vec)
    out[perm] = phase * vec
    return out


def _dense_pauli(vec, n, site, a, b):
    digits, weights = _dense_tables(n)
    shifted = digits.copy()
    shifted[:, site] = (shifted[:, site] + a) % 3
    return _dense_permute(vec, shifted @ weights, OMEGA ** (b * digits[:, site]))


def _dense_conjugate(vec, n):
    digits, weights = _dense_tables(n)
    return _dense_permute(vec, (-digits % 3) @ weights)


@functools.cache
def _dense_stabilizers(code):
    """Per Z-type row its phase over the 3^n basis states; per X-type row
    its permutation of them."""
    digits, weights = _dense_tables(code.n)
    phases = [OMEGA ** (digits @ h % 3) for h in code.H_Z]
    perms = [(digits + r) % 3 @ weights for r in code.H_X]
    return phases, perms


def _dense_expectations(code, vec):
    """<psi|S|psi> per Z-type then X-type row, as vdots over 3^n entries."""
    phases, perms = _dense_stabilizers(code)
    vals = [np.vdot(vec, phase * vec) for phase in phases]
    vals += [np.vdot(vec, _dense_permute(vec, perm)) for perm in perms]
    return np.array(vals)


def _dense_syndrome(code, vec):
    vals = _dense_expectations(code, vec)
    assert np.allclose(np.abs(vals), 1, atol=1e-9)
    return tuple(int(v) for v in np.round(np.angle(vals) / (2 * np.pi / 3)).astype(int) % 3)


def _brute_force_rowspan(checks, p):
    """Every combination of the check rows, as a set of tuples."""
    combos = itertools.product(range(p), repeat=len(checks))
    return {tuple((np.array(c, dtype=np.int64) @ checks % p).tolist()) for c in combos}


def _brute_force_logicals(code, ker, other):
    """Every p^n vector in ker(ker) outside rowspan(other), as tuples in
    itertools.product (ascending) order."""
    p = code.p
    span = _brute_force_rowspan(other, p)
    vectors = np.array(list(itertools.product(range(p), repeat=code.n)), dtype=np.int64)
    in_ker = ~np.any(vectors @ ker.T % p, axis=1)
    return [tuple(v) for v in vectors[in_ker].tolist() if tuple(v) not in span]


def _brute_force_distance(code):
    """Minimum weight over ker(H_Z) outside rowspan(H_X) and ker(H_X)
    outside rowspan(H_Z): every p^n vector against every combination of
    check rows."""
    weights = []
    for ker, other in ((code.H_Z, code.H_X), (code.H_X, code.H_Z)):
        weights += [sum(1 for d in v if d) for v in _brute_force_logicals(code, ker, other)]
    return min(weights)


# every code the tests build with n <= 9
SMALL_CODES = {
    "qubit-shor-9": lambda: cc.shor_code(2, 3, 3),
    "qutrit-shor-9": lambda: cc.shor_code(3, 3, 3),
    "qutrit-repetition-3": lambda: cc.shor_code(3, 1, 3),
    "trivial-1": lambda: cc.QuditCSSCode(
        3, 1, np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1), dtype=np.int64)
    ),
    "qubit-x-checks-3": lambda: cc.QuditCSSCode(
        2, 3, [[1, 1, 0], [0, 1, 1]], np.zeros((0, 3), dtype=np.int64)
    ),
    "qutrit-x-checks-3": lambda: cc.QuditCSSCode(
        3, 3, [[1, 2, 0], [0, 1, 2]], np.zeros((0, 3), dtype=np.int64)
    ),
}


class TestLinearAlgebra:
    def test_rref_rank(self):
        m = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]])
        assert cc.rank(m, 3) == 1
        assert cc.rank(np.eye(3, dtype=np.int64), 2) == 3

    def test_kernel(self):
        ker = cc.kernel_basis(np.array([[1, 2, 0], [0, 1, 2]]), 3)
        assert ker.shape == (1, 3)
        assert not np.any(np.array([[1, 2, 0], [0, 1, 2]]) @ ker[0] % 3)


class TestCodes:
    def test_shor_code_parameters(self):
        code = cc.shor_code(2, 3, 3)
        assert (code.p, code.n, code.k, code.distance) == (2, 9, 1, 3)

    def test_qutrit_shor_parameters(self):
        code = cc.shor_code(3, 3, 3)
        assert (code.p, code.n, code.k, code.distance) == (3, 9, 1, 3)

    def test_coset_tables_are_cached_and_read_only(self):
        code = cc.shor_code(3, 3, 3)
        x, span = code.logical_x, code.x_span
        assert code.logical_x is x and code.x_span is span
        assert x.shape == (9,) and span.shape == (9, 9)
        with pytest.raises(ValueError):
            x[0] = 1
        with pytest.raises(ValueError):
            span[0, 0] = 1

    @pytest.mark.parametrize("name", sorted(SMALL_CODES))
    def test_distance_matches_brute_force(self, name):
        code = SMALL_CODES[name]()
        assert code.distance == _brute_force_distance(code)

    @pytest.mark.parametrize("name", sorted(SMALL_CODES))
    def test_coset_tables_match_brute_force(self, name):
        # x_span is rowspan(H_X) in ascending order; logical_x is the
        # lexicographically first minimum-weight vector of ker(H_Z) outside it
        code = SMALL_CODES[name]()
        span = sorted(_brute_force_rowspan(code.H_X, code.p))
        assert list(map(tuple, code.x_span.tolist())) == span
        logicals = _brute_force_logicals(code, code.H_Z, code.H_X)
        assert tuple(code.logical_x.tolist()) == min(
            logicals, key=lambda v: (sum(1 for d in v if d), v)
        )

    def test_repetition_distance_one(self):
        code = cc.shor_code(3, 1, 3)
        assert (code.k, code.distance) == (1, 1)

    def test_builder_matches_explicit_check_rows(self):
        # the rows the hand-written qubit Shor, qutrit repetition and
        # [[9, 1, 3]] qutrit builders wrote out
        blocks = [
            [1, 1, 1, 1, 1, 1, 0, 0, 0],
            [0, 0, 0, 1, 1, 1, 1, 1, 1],
        ]
        pairs = [
            [1, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 1],
        ]
        qubit = cc.shor_code(2, 3, 3)
        assert qubit.H_X.tolist() == blocks and qubit.H_Z.tolist() == pairs
        rep = cc.shor_code(3, 1, 3)
        assert rep.H_X.shape == (0, 3) and rep.H_Z.tolist() == [[1, 2, 0], [0, 1, 2]]
        nine = cc.shor_code(3, 3, 3)
        assert nine.H_X.tolist() == blocks
        assert nine.H_Z.tolist() == [
            [1, 2, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 2, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 2, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 2, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 2, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 2],
        ]

    def test_css_orthogonality_enforced(self):
        with pytest.raises(cc.CodeError):
            cc.QuditCSSCode(2, 3, [[1, 1, 0]], [[1, 0, 0]])

    def test_no_logical_rejected(self):
        with pytest.raises(cc.CodeError):
            cc.QuditCSSCode(2, 2, [[1, 1]], [[1, 0], [0, 1]])

    def test_two_logicals_rejected(self):
        # every code in use encodes one logical qudit
        with pytest.raises(cc.CodeError, match="2 logical qudits"):
            cc.QuditCSSCode(3, 3, np.zeros((0, 3), dtype=np.int64), [[1, 2, 0]])


class TestCodewords:
    def test_shor_logical_states(self):
        code = cc.shor_code(2, 3, 3)
        blocks = lambda t: int("".join(str(b) * 3 for b in t), 2)
        for logical, patterns in (
            (0, [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]),
            (1, [(1, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0)]),
        ):
            vec = cc.codewords(code, logical)
            support = set(np.nonzero(np.abs(vec) > 1e-12)[0])
            assert support == {blocks(t) for t in patterns}
            assert np.allclose(vec[sorted(support)], 0.5)

    def test_repetition_codewords(self):
        code = cc.shor_code(3, 1, 3)
        for beta in range(3):
            vec = cc.codewords(code, beta)
            idx = beta * 9 + beta * 3 + beta
            assert vec[idx] == pytest.approx(1.0)

    def test_trivial_single_qudit(self):
        code = cc.QuditCSSCode(
            3, 1, np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1), dtype=np.int64)
        )
        assert np.allclose(cc.codewords(code, 2), [0, 0, 1])

    def test_codewords_are_stabilizer_eigenstates(self):
        for code in (cc.shor_code(2, 3, 3), cc.shor_code(3, 3, 3)):
            for logical in range(code.p):
                vec = cc._codeword_support(code, logical)
                for val in cc.stabilizer_expectations(code, [vec])[0]:
                    assert val == pytest.approx(1.0, abs=1e-12)

    def test_invalid_logical_value(self):
        with pytest.raises(cc.CodeError):
            cc.codewords(cc.shor_code(2, 3, 3), (0, 1))


class TestCorrectionTable:
    def test_all_single_errors_resolved(self):
        code = cc.shor_code(3, 3, 3)
        table = cc.correction_table(code)
        base = cc.codewords(code, 0)
        for site in range(9):
            for a in range(3):
                for b in range(3):
                    if (a, b) == (0, 0):
                        continue
                    syn = _dense_syndrome(code, _dense_pauli(base, 9, site, a, b))
                    assert cc._equivalent_errors(code, table[syn], (site, a, b))

    def test_zero_syndrome_is_identity(self):
        code = cc.shor_code(3, 3, 3)
        table = cc.correction_table(code)
        zero = tuple([0] * 8)
        assert table[zero] == (0, 0, 0)

    def test_inequivalent_errors_rejected(self):
        # the distance-1 repetition code cannot see a phase error: Zh on
        # qutrit 0 shares the zero syndrome with no error at all
        with pytest.raises(cc.CodeError, match="inequivalent errors share a syndrome"):
            cc.correction_table(cc.shor_code(3, 1, 3))

    def test_table_is_read_only(self):
        # the default codes are shared per process, and so are their tables
        code = cc.default_qutrit_code(9)
        table = cc.correction_table(code)
        with pytest.raises(TypeError):
            table[tuple([0] * 8)] = (1, 1, 0)
        assert table[tuple([0] * 8)] == (0, 0, 0)
        for checks in (code.H_X, code.H_Z):
            with pytest.raises(ValueError):
                checks[0, 0] = 0


class TestSupportRegister:
    def _states(self, code):
        """Codeword 0, codeword 1 and its conjugate, and all 144 single-qutrit
        Paulis on the last two, each as (support vector, dense reference)."""
        cw1 = cc._codeword_support(code, 1)
        starts = [(cw1, cw1.dense())]
        starts.append((cc._conjugated(cw1), _dense_conjugate(cw1.dense(), code.n)))
        cw0 = cc._codeword_support(code, 0)
        states = [(cw0, cw0.dense())] + starts
        for vec, ref in starts:
            for site in range(code.n):
                for a, b in itertools.product(range(3), repeat=2):
                    if (a, b) != (0, 0):
                        states.append(
                            (cc._pauli(vec, site, a, b), _dense_pauli(ref, code.n, site, a, b))
                        )
        return states

    def test_support_syndromes_match_dense_reference(self):
        code = cc.shor_code(3, 3, 3)
        states = self._states(code)
        assert len(states) == 147
        for vec, ref in states:
            keys = np.sort(dg.pack(vec.digits, vec.radices))
            assert len(keys) == 9 and np.all(np.diff(keys) > 0)
            assert np.allclose(vec.dense(), ref, rtol=0, atol=1e-15)
            (got,) = cc.stabilizer_expectations(code, [vec])
            assert np.allclose(got, _dense_expectations(code, ref), rtol=0, atol=1e-12)
            assert cc._syndromes(code, [vec]) == [_dense_syndrome(code, ref)]
        # one batch: each shift is looked up in its own vector's rows
        vecs, refs = zip(*states)
        batch = cc.stabilizer_expectations(code, vecs)
        want = np.array([_dense_expectations(code, ref) for ref in refs])
        assert np.allclose(batch, want, rtol=0, atol=1e-12)
        assert cc._syndromes(code, vecs) == [_dense_syndrome(code, ref) for ref in refs]

    def test_recovery_matches_dense_reference(self):
        # the recovery multiplies by OMEGA**(-b*d) on the pre-shift digit d,
        # then shifts back by a; numpy's vectorised complex product rounds a
        # 3^9 array differently from a 9-term one, hence the 1e-15
        code = cc.shor_code(3, 3, 3)
        digits, weights = _dense_tables(9)
        cw = cc.codewords(code, 1)
        for site in range(9):
            for a, b in itertools.product(range(3), repeat=2):
                if (a, b) == (0, 0):
                    continue
                state = cc.concat_state(9, 0, 1)
                cc.apply_qutrit_pauli(state, site, a, b)
                erred = state.pool[-1].dense()
                (rec,) = cc.error_correct(state)
                fs, fa, fb = rec["correction"]
                shifted = digits.copy()
                shifted[:, fs] = (shifted[:, fs] - fa) % 3
                phase = OMEGA ** (-fb * digits[:, fs] % 3)
                want = _dense_permute(erred, shifted @ weights, phase)
                (vid,) = set(state.vids.tolist())
                assert np.allclose(state.pool[vid].dense(), want, rtol=0, atol=1e-15)
                assert abs(np.vdot(cw, want)) == pytest.approx(1.0, abs=1e-12)

    def test_shift_off_the_support_is_zero(self):
        code = cc.shor_code(3, 3, 3)
        basis = cc.SupportVector(3, np.zeros((1, 9), dtype=np.int64), np.ones(1, dtype=complex))
        (got,) = cc.stabilizer_expectations(code, [basis])
        assert np.array_equal(got, _dense_expectations(code, basis.dense()))
        assert list(got) == [1] * 6 + [0] * 2

    def test_mixed_syndromes_rejected(self):
        code = cc.shor_code(3, 3, 3)
        cw = cc._codeword_support(code, 0)
        moved = cc._pauli(cw, 0, 1, 0)
        assert cc._syndromes(code, [cw]) != cc._syndromes(code, [moved])
        mixed = cc.SupportVector(
            3,
            np.vstack([cw.digits, moved.digits]),
            np.concatenate([cw.amps, moved.amps]) / np.sqrt(2),
        )
        ref = _dense_expectations(code, mixed.dense())
        assert np.allclose(cc.stabilizer_expectations(code, [mixed])[0], ref, rtol=0, atol=1e-12)
        assert np.min(np.abs(ref)) < 0.9
        with pytest.raises(cc.CodeError, match="no definite syndrome"):
            cc._syndromes(code, [mixed])

    def test_one_mixed_vector_fails_its_batch(self):
        # 18-row vectors: two logical superpositions with definite
        # syndromes and, between them, an equal mix of two syndromes
        code = cc.shor_code(3, 3, 3)
        cw0, cw1 = cc._codeword_support(code, 0), cc._codeword_support(code, 1)

        def half_half(u, v):
            amps = np.concatenate([u.amps, v.amps]) / np.sqrt(2)
            return cc.SupportVector(3, np.vstack([u.digits, v.digits]), amps)

        logical = half_half(cw0, cw1)
        moved = half_half(cc._pauli(cw0, 4, 0, 1), cc._pauli(cw1, 4, 0, 1))
        mixed = half_half(cw0, cc._pauli(cw1, 0, 1, 0))
        definite = cc._syndromes(code, [logical, moved])
        assert definite == [tuple([0] * 8), cc._syndromes(code, [cc._pauli(cw0, 4, 0, 1)])[0]]
        with pytest.raises(cc.CodeError, match="no definite syndrome"):
            cc._syndromes(code, [logical, mixed, moved])


class TestLogicalCC:
    def test_even_n_rejected(self):
        with pytest.raises(cc.CodeError, match="even block count"):
            cc.apply_schedule(4, cc.concat_state(3, 0, 1))
        with pytest.raises(cc.CodeError):
            cc.verify_logical_action(4)

    def test_schedule_shape(self):
        # the block count decides recovery: none between the layers of the
        # distance-1 length-3 code, one between each pair of the 9 layers
        for n, recoveries in ((3, 0), (9, 8)):
            _, report = cc.apply_schedule(n, cc.concat_state(n, 0, 1))
            assert len(report["recoveries"]) == recoveries
            assert report["uncorrectable"] == 0

    def test_n3_block_action_exact(self):
        dev, report = cc.verify_logical_action(3)
        assert dev < 1e-12
        assert report["recoveries"] == []

    def test_n3_matches_dense_transversal(self):
        # the block-compressed simulation agrees with a dense 9-qubit x
        # 3-qutrit application of the per-block transversal layers
        shor3, rep = cc.shor_code(2, 3, 3), cc.shor_code(3, 1, 3)
        digits, weights = _dense_tables(3)
        bits = dg.basis_rows((2,) * 9)[:, ::-1]  # qubit 0 most significant
        for alpha in range(2):
            for beta in range(3):
                dense = np.kron(cc.codewords(shor3, alpha), cc.codewords(rep, beta))
                out = np.zeros_like(dense)
                for s in range(512):
                    block = dense[s * 27 : (s + 1) * 27]
                    if not block.any():
                        continue
                    sign = np.array(
                        [(-1) ** (bits[s][j] + bits[s][3 + j] + bits[s][6 + j]) for j in range(3)]
                    )
                    perm = ((digits * sign) % 3) @ weights
                    out[s * 27 : (s + 1) * 27] = _dense_permute(block, perm)
                want = np.kron(
                    cc.codewords(shor3, alpha), cc.codewords(rep, (1 + alpha) * beta % 3)
                )
                assert abs(np.vdot(want, out)) == pytest.approx(1.0, abs=1e-12)

    def test_n9_block_action_exact(self):
        dev, report = cc.verify_logical_action(9)
        assert dev < 1e-12
        assert report["uncorrectable"] == 0

    def test_no_qubit_code_is_built(self, monkeypatch):
        # the Shor side is one bit per uniform block, never an 81-qubit code;
        # the one builder still makes the qutrit code
        build, built = cc.shor_code, []

        def qutrit_only(p, blocks, size):
            if p == 2:
                raise AssertionError("the gadget built a qubit code")
            built.append((p, blocks, size))
            return build(p, blocks, size)

        monkeypatch.setattr(cc, "shor_code", qutrit_only)
        cc.default_qutrit_code.cache_clear()
        dev, report = cc.verify_logical_action(9)
        assert dev < 1e-12 and report["uncorrectable"] == 0
        assert built == [(3, 3, 3)]

    def test_superposition_coherence(self):
        # verify_logical_action includes a two-branch superposition, so a
        # relative logical phase would show up as a deviation; double-check
        # the inner helper on an explicit superposition here
        c = 1 / np.sqrt(2)
        inp = cc.combine(
            cc.concat_state(3, 0, 2),
            cc.concat_state(3, 1, 2),
            c,
            c,
        )
        out, _ = cc.apply_schedule(3, inp)
        want = cc.combine(
            cc.concat_state(3, 0, 2),
            cc.concat_state(3, 1, 1),
            c,
            c,
        )
        assert abs(cc.concat_inner(want, out)) == pytest.approx(1.0, abs=1e-12)


class TestFaultTolerance:
    def test_single_error_corrected(self):
        report = cc.fault_tolerance_demo(9, 4, "Xh", after_block=1)
        assert report["ok"] and report["deviation"] < 1e-9

    def test_error_kind_variants(self):
        for kind in ("Zh", "XhZh"):
            assert cc.fault_tolerance_demo(9, 7, kind, after_block=3)["ok"]
        dev, report = cc.verify_logical_action(9, ((3, 7, 2, 1),))
        assert dev < 1e-9 and report["uncorrectable"] == 0

    def test_no_error_identity(self):
        dev, report = cc.verify_logical_action(9)
        assert dev < 1e-9 and report["uncorrectable"] == 0

    def test_distance_below_three_rejected(self):
        with pytest.raises(cc.CodeError):
            cc.fault_tolerance_demo(3, 0, "Xh")

    def test_two_errors_in_one_window_fail(self):
        # two faults between consecutive recoveries exceed the distance-3
        # guarantee; the demo must report the logical failure
        dev, report = cc.verify_logical_action(9, ((1, 0, 1, 0), (1, 1, 1, 0)))
        assert not (dev < 1e-9 and report["uncorrectable"] == 0)
        assert dev > 0.5

    def test_second_fault_pool_sharing(self):
        # recovery acts once per distinct register vector; a second Xh in
        # the same window leaves vectors without a table syndrome when it
        # sits on another 3-block (84 in each of the six basis runs, 168 in
        # the superposition run, all counted), and a wrong but table-listed
        # correction when it shares one
        dev, report = cc.verify_logical_action(9, ((1, 0, 1, 0), (1, 4, 1, 0)))
        assert dev == pytest.approx(1.0, abs=1e-12)
        assert report["uncorrectable"] == 6 * 84 + 168
        dev, report = cc.verify_logical_action(9, ((1, 0, 1, 0), (1, 1, 1, 0)))
        assert dev == pytest.approx(1.0, abs=1e-12)
        assert report["uncorrectable"] == 0

    def test_pool_vectors_shared(self):
        added = 0
        for alpha in (0, 1):
            for beta in (0, 1, 2):
                inp = cc.concat_state(9, alpha, beta)
                out, _ = cc.apply_schedule(9, inp, ((1, 4, 1, 0),))
                added += len(out.pool) - len(inp.pool)
        assert added == 165

    def test_new_vectors_join_in_first_seen_order(self):
        # the pool grows in the order of each old vector's first chosen
        # branch, and a vector already transformed under the key is reused
        bits = np.zeros((4, 3), dtype=np.int8)
        state = cc.ConcatState(bits, np.ones(4), np.array([2, 0, 2, 1]), ["u", "v", "w"])
        cc._transform_pool(state, np.ones(4, dtype=bool), "k", lambda vec: vec + "'")
        assert state.pool == ["u", "v", "w", "w'", "u'", "v'"]
        assert state.vids.tolist() == [3, 4, 3, 5]
        state.vids[:] = [1, 2, 0, 2]
        cc._transform_pool(state, np.array([False, True, True, True]), "k", lambda vec: vec + "'")
        assert state.pool == ["u", "v", "w", "w'", "u'", "v'"]
        assert state.vids.tolist() == [1, 3, 4, 3]

    def test_demos_share_one_code_and_table(self, monkeypatch):
        builds = []
        table = cc.QuditCSSCode.__dict__["correction_table"]

        def counted(code):
            builds.append(code)
            return table.func(code)

        spy = functools.cached_property(counted)
        spy.__set_name__(cc.QuditCSSCode, "correction_table")
        monkeypatch.setattr(cc.QuditCSSCode, "correction_table", spy)
        cc.default_qutrit_code.cache_clear()
        first = cc.fault_tolerance_demo(9, 4, "Xh")
        assert first["ok"] and cc.fault_tolerance_demo(9, 4, "Xh") == first
        # one code object for both demos, and its table built once
        assert builds == [cc.default_qutrit_code(9)]

    def test_distance_is_computed_once_per_code(self, monkeypatch):
        computed = []
        distance = cc.QuditCSSCode.__dict__["distance"]

        def counted(code):
            computed.append(code)
            return distance.func(code)

        spy = functools.cached_property(counted)
        spy.__set_name__(cc.QuditCSSCode, "distance")
        monkeypatch.setattr(cc.QuditCSSCode, "distance", spy)
        cc.default_qutrit_code.cache_clear()
        first = cc.fault_tolerance_demo(9, 4, "Xh")
        assert computed == [cc.default_qutrit_code(9)]
        assert cc.fault_tolerance_demo(9, 4, "Xh") == first
        assert computed == [cc.default_qutrit_code(9)]

    def test_schedule_holds_no_dense_register(self):
        tracemalloc.start()
        try:
            report = cc.fault_tolerance_demo(9, 4, "Xh")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["ok"]
        # one 3^9 x 9 digit table is 1.4 MB; dense registers peaked at 30 MB
        assert peak < 4 * 2**20

    def test_fault_after_last_layer_rejected(self):
        with pytest.raises(cc.CodeError, match="after_block"):
            cc.fault_tolerance_demo(9, 4, "Xh", after_block=9)

    def test_negative_layer_rejected(self):
        with pytest.raises(cc.CodeError, match="after_block"):
            cc.fault_tolerance_demo(9, 4, "Xh", after_block=-1)

    def test_negative_site_rejected(self):
        with pytest.raises(cc.CodeError, match="site"):
            cc.fault_tolerance_demo(9, -1, "Xh")

    def test_site_past_the_register_rejected(self):
        with pytest.raises(cc.CodeError, match="site"):
            cc.fault_tolerance_demo(9, 9, "Xh")

    def test_unknown_kind_rejected(self):
        with pytest.raises(cc.CodeError, match="unknown error kind 'foo'"):
            cc.fault_tolerance_demo(9, 4, "foo")

    def test_identity_fault_rejected(self):
        for a, b in ((0, 0), (3, 0), (0, 3)):
            with pytest.raises(cc.CodeError, match="identity"):
                cc.verify_logical_action(9, ((1, 4, a, b),))
            with pytest.raises(cc.CodeError, match="identity"):
                cc.apply_schedule(9, cc.concat_state(9, 0, 1), ((1, 4, a, b),))

    def test_schedule_rejects_unplaceable_errors(self):
        inp = cc.concat_state(9, 0, 1)
        for fault in ((9, 0, 1, 0), (0, 9, 1, 0), (0, 0, 0, 3), (0, 0.5, 1, 0)):
            with pytest.raises(cc.CodeError):
                cc.apply_schedule(9, inp, (fault,))


class TestSyndromeMemo:
    """A recovery reads the syndromes of the pool vectors that no earlier
    recovery of its state read, in one batch."""

    def test_each_pool_vector_is_read_once(self, monkeypatch):
        cc.correction_table(cc.default_qutrit_code(9))  # the table's own 73 reads
        batches = []
        syndromes = cc._syndromes

        def spy(code, vecs):
            batches.append(list(vecs))  # holds the vectors, so no id is reused
            return syndromes(code, vecs)

        monkeypatch.setattr(cc, "_syndromes", spy)
        dev, report = cc.verify_logical_action(9, ((1, 4, 1, 0),))
        assert dev < 1e-9 and report["uncorrectable"] == 0
        # one batch per recovery (7 runs x 8), and each (run, pool index)
        # read once: 208 reads, where one read per vector per recovery
        # made 688
        read = [vec for batch in batches for vec in batch]
        assert len(batches) == 7 * 8
        assert len(read) == len({id(vec) for vec in read}) == 208

    def test_memo_is_keyed_by_pool_index(self):
        # a fault rebinds every branch to a new pool vector; a memo keyed on
        # the branch row would hand the second recovery the first one's
        # zero syndrome
        code = cc.default_qutrit_code(9)
        state = cc.concat_state(9, 0, 1)
        assert [rec["correction"] for rec in cc.error_correct(state)] == [(0, 0, 0)]
        cc.apply_qutrit_pauli(state, 4, 1, 0)
        (rec,) = cc.error_correct(state)
        assert cc._equivalent_errors(code, rec["correction"], (4, 1, 0))
        assert sorted(state.syndromes) == [0, 1]
        for vid, syn in state.syndromes.items():
            assert cc._syndromes(code, [state.pool[vid]]) == [syn]

    def test_copies_keep_their_own_syndromes(self):
        # two schedules from one input, whose faults put different vectors
        # at the same pool indices: each matches a run from a fresh state
        inp = cc.concat_state(9, 0, 1)
        for errors in (((1, 4, 1, 0),), ((1, 2, 0, 1),)):
            out, report = cc.apply_schedule(9, inp, errors)
            fresh, want = cc.apply_schedule(9, cc.concat_state(9, 0, 1), errors)
            assert report == want
            assert abs(cc.concat_inner(fresh, out)) == pytest.approx(1.0, abs=1e-12)
        assert inp.syndromes == {}


class TestObstruction:
    def test_identity_vector_preserved(self):
        res = cc.schur_obstruction_check(cc.shor_code(3, 1, 3), a=(1, 1, 1))
        assert res["preserved"] and res["witness"] is None

    def test_repetition_witness(self):
        res = cc.schur_obstruction_check(cc.shor_code(3, 1, 3), a=(1, 1, 2))
        assert not res["preserved"]
        assert res["witness"]["wedge"] == (1, 1, 2)

    def test_only_scalars_preserve_repetition_support(self):
        res = cc.schur_obstruction_check(cc.shor_code(3, 1, 3))
        assert res["only_scalar_multiples"]
        assert res["witness"] is not None

    def test_naive_transversal_leaks(self):
        qb = cc.QuditCSSCode(2, 3, [[1, 1, 0], [0, 1, 1]], np.zeros((0, 3), dtype=np.int64))
        qt = cc.QuditCSSCode(3, 3, [[1, 2, 0], [0, 1, 2]], np.zeros((0, 3), dtype=np.int64))
        assert cc.naive_transversal_check(qb, qt)["leakage"] > 0.5
