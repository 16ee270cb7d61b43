"""The shared sparse digit-row vector: key, merge, overflow rule and lookups."""

import numpy as np
import pytest

from s3double import circuits as cir
from s3double import digits as dg
from s3double import lattice as lat


def _rows(rng, n, radices, distinct=None):
    """n random digit rows over `radices`, drawn from `distinct` rows so that
    equal rows repeat."""
    pool = np.column_stack([rng.integers(0, r, size=distinct or n) for r in radices])
    return pool[rng.integers(0, len(pool), size=n)].astype(np.int8)


def _reference_merge(digits, radices, amps, keep):
    """np.unique on Python-int keys, np.add.at in input order, then `keep`."""
    keys = np.array([sum(int(d) * int(np.prod(radices[:c])) for c, d in enumerate(row))
                     for row in digits], dtype=np.int64)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    out = []
    for a in amps.T:
        sums = np.zeros(len(uniq), dtype=complex)
        np.add.at(sums, inverse, a)
        m = keep(sums)
        out.append((digits[first[m]], sums[m]))
    return out


class TestKey:
    def test_lattice_key_is_the_base_six_sum(self):
        rng = np.random.default_rng(0)
        digits = _rows(rng, 500, (6,) * 10)
        want = [sum(int(d) * 6**e for e, d in enumerate(row)) for row in digits]
        assert dg.pack(digits, (6,) * 10).tolist() == want

    def test_all_fives_fill_the_int64_key(self):
        # int8 * int64 would wrap silently if the digits were not promoted
        digits = np.full((1, 24), 5, dtype=np.int8)
        assert dg.pack(digits, (6,) * 24).tolist() == [6**24 - 1]

    def test_mixed_radix_round_trip(self):
        radices = (3, 2, 3, 2, 2, 3)
        rows = dg.basis_rows(radices)
        assert len(rows) == 216 and rows.dtype == np.int8
        assert np.array_equal(dg.pack(rows, radices), np.arange(216))
        assert np.array_equal(dg.unpack(np.arange(216), radices), rows)

    def test_long_inputs_pack_in_blocks(self):
        rng = np.random.default_rng(1)
        digits = _rows(rng, 3 * (1 << 14) + 5, (6,) * 12)
        want = digits.astype(np.int64) @ (6 ** np.arange(12, dtype=np.int64))
        assert np.array_equal(dg.pack(digits, (6,) * 12), want)


class TestOverflow:
    def test_25_radix_six_columns_raise(self):
        digits = np.zeros((7, 25), dtype=np.int8)
        with pytest.raises(dg.ResourceError, match=r"25 radix columns .*estimated term count 7\)"):
            dg.pack(digits, (6,) * 25)
        with pytest.raises(dg.ResourceError):
            dg.merged(digits, (6,) * 25, np.ones((7, 1)), 0)

    def test_24_edges_of_wires_plus_an_ancilla_raise(self):
        wires = (3, 2) * 24
        assert dg.pack(np.zeros((1, 48), dtype=np.int8), wires).tolist() == [0]
        with pytest.raises(dg.ResourceError, match=r"49 radix columns .*estimated term count 3\)"):
            dg.pack(np.zeros((3, 49), dtype=np.int8), wires + (2,))

    def test_lattice_and_register_share_the_rule(self):
        assert lat.ResourceError is dg.ResourceError
        with pytest.raises(lat.ResourceError):
            cir.QuditRegister((3, 2) * 24 + (2,))


class TestMerge:
    @pytest.mark.parametrize("rule", ["lattice", "register"])
    def test_bitwise_equal_to_reference(self, rule):
        rng = np.random.default_rng(2)
        radices = (6,) * 8 if rule == "lattice" else (3, 2) * 4 + (3,)
        digits = _rows(rng, 400, radices, distinct=60)
        amps = rng.normal(size=(400, 2)) + 1j * rng.normal(size=(400, 2))
        # row 0's copies cancel exactly; row 1's sum to 1e-16 < PRUNE_TOL
        zero, tiny = (np.flatnonzero((digits == digits[i]).all(axis=1)) for i in (0, 1))
        assert len(zero) > 1 and not np.array_equal(digits[0], digits[1])
        amps[zero], amps[tiny] = 0, 0
        amps[zero[0]], amps[zero[-1]], amps[tiny[0]] = 1 + 2j, -1 - 2j, 1e-16
        if rule == "lattice":
            tol, keep = lat.PRUNE_TOL, lambda s: np.abs(s) > lat.PRUNE_TOL
        else:
            tol, keep = 0, lambda s: s != 0
        got = dg.merged(digits, radices, amps, tol)
        want = _reference_merge(digits, radices, amps, keep)
        assert len(got) == len(want) == 2
        for (gd, ga), (wd, wa) in zip(got, want):
            assert gd.dtype == np.int8 and np.array_equal(gd, wd)
            assert ga.tobytes() == wa.tobytes()
            present = [(gd == digits[i]).all(axis=1).any() for i in (0, 1)]
            assert present == [False, rule == "register"]

    def test_distinct_rows_come_back_in_key_order(self):
        rows = dg.basis_rows((2, 3, 2))[::-1]
        ((digits, amps),) = dg.merged(rows, (2, 3, 2), np.arange(1, 13)[:, None] * 1j, 0)
        assert np.array_equal(digits, rows[::-1])
        assert np.array_equal(amps, np.arange(12, 0, -1) * 1j)


class TestLookup:
    def _pair(self, seed):
        rng = np.random.default_rng(seed)
        radices = (3,) * 6
        keys = [rng.choice(3**6, size=n, replace=False) for n in (80, 120)]
        rows = [dg.unpack(k, radices) for k in keys]
        amps = [rng.normal(size=len(k)) + 1j * rng.normal(size=len(k)) for k in keys]
        return radices, keys, rows, amps

    def test_overlap_equals_dense_vdot(self):
        radices, keys, rows, amps = self._pair(3)
        dense = [np.zeros(3**6, dtype=complex) for _ in keys]
        for vec, k, a in zip(dense, keys, amps):
            vec[k] = a
        got = dg.overlap(rows[0], amps[0], rows[1], amps[1], radices)
        assert abs(got - np.vdot(*dense)) < 1e-12
        assert dg.overlap(rows[0], amps[0], rows[0][:0], amps[0][:0], radices) == 0

    def test_find_equals_intersect1d(self):
        radices, keys, rows, _ = self._pair(4)
        found = dg.find(rows[0], radices, rows[1].reshape(4, 30, 6))
        assert found.shape == (4, 30)
        _, i0, i1 = np.intersect1d(keys[0], keys[1], return_indices=True)
        want = np.full(120, -1)
        want[i1] = i0
        assert np.array_equal(found.reshape(-1), want) and (want >= 0).any() and (want < 0).any()
