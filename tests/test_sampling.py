import numpy as np
import pytest

from s3double import sampling


class _Double:
    """Stands in for a Generator whose next double is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _same_as_choice(w, seeds, total=None):
    """draw(law(w)) takes the same double and returns the same index as
    Generator.choice with p = w / total, by default w / w.sum()."""
    p = np.asarray(w, dtype=float) / (np.sum(w) if total is None else total)
    cdf = sampling.law(w)
    for seed in seeds:
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sampling.draw(cdf, rng_a) == int(rng_b.choice(len(p), p=p))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestDraw:
    def test_matches_generator_choice(self):
        # the draw must take the same double and return the same index as
        # Generator.choice with a 1-D p, for any law
        laws = np.random.default_rng(3)
        for seed in range(1000):
            w = laws.random(int(laws.integers(1, 9)))
            w[laws.random(len(w)) < 0.2] = 0.0
            if not w.any():
                w[0] = 1.0
            _same_as_choice(w, [seed])

    def test_one_outcome_consumes_one_double(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        assert sampling.draw(sampling.law([2.5]), rng) == 0
        ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_trailing_zero_weights_are_never_drawn(self):
        cdf = sampling.law([0.3, 0.7, 0.0, 0.0])
        assert sampling.draw(cdf, _Double(0.0)) == 0
        assert sampling.draw(cdf, _Double(np.nextafter(1.0, 0.0))) == 1
        rng = np.random.default_rng(7)
        assert max(sampling.draw(cdf, rng) for _ in range(1000)) == 1

    def test_nine_weights_whose_sums_round_differently(self):
        # numpy sums 9 doubles pairwise and Python's sum adds them in turn,
        # so the two totals can round apart.  The law normalises by numpy's
        # sum; BranchLaw and simulate once normalised p by Python's sum.  The
        # two laws lie within a few ulps and draw the same indices here.
        gen = np.random.default_rng(11)
        w = next(w for w in (gen.random(9) for _ in range(1000)) if np.sum(w) != sum(w.tolist()))
        _same_as_choice(w, range(1000))
        _same_as_choice(w, range(1000), total=sum(w.tolist()))
        by_python_sum = (w / sum(w.tolist())).cumsum()
        by_python_sum /= by_python_sum[-1]
        assert np.allclose(sampling.law(w), by_python_sum, rtol=0, atol=8 * np.finfo(float).eps)

    def test_law_needs_positive_weight(self):
        # Generator.choice raised on the NaN p of an all-zero law too
        with pytest.raises(ValueError):
            sampling.law([0.0, 0.0])


class TestStackedLaws:
    def test_rows_equal_single_laws(self):
        # bit for bit, for every row length up to the 64 of a wide law
        gen = np.random.default_rng(17)
        for k in range(2, 65):
            w = gen.random((50, k))
            w[gen.random((50, k)) < 0.3] = 0.0
            w[:, 0] += w.sum(axis=1) == 0
            stack = sampling.law(w)
            for row, cdf in zip(w, stack):
                assert cdf.tobytes() == sampling.law(row).tobytes()

    def test_a_zero_row_refuses_the_stack(self):
        with pytest.raises(ValueError):
            sampling.law([[0.2, 0.8], [0.0, 0.0]])

    def test_draws_match_searchsorted_on_cdf_values(self):
        # a double placed exactly on a cdf value, or on either side of it,
        # draws the index searchsorted(side="right") finds in that row
        gen = np.random.default_rng(19)
        w = gen.random((200, 7))
        w[gen.random((200, 7)) < 0.3] = 0.0
        w[:, 0] += w.sum(axis=1) == 0
        stack = sampling.law(w)
        for shift in (-1, 0, 1):
            picks = zip(stack, gen.integers(0, 7, 200))
            u = [np.nextafter(cdf[j], cdf[j] + shift) for cdf, j in picks]
            got = sampling.draws(stack, [_Double(x) for x in u])
            want = [cdf.searchsorted(x, side="right") for cdf, x in zip(stack, u)]
            assert got.tolist() == want

    def test_each_row_takes_one_double_of_its_own_generator(self):
        # the same index and the same generator state as `draw` row by row,
        # for a stack of laws and for one law shared by every row
        w = np.random.default_rng(23).random((100, 5))
        for cdf in (sampling.law(w), sampling.law(w[0])):
            gens = [np.random.default_rng([1, i]) for i in range(100)]
            refs = [np.random.default_rng([1, i]) for i in range(100)]
            got = sampling.draws(cdf, gens)
            rows = cdf if cdf.ndim == 2 else [cdf] * 100
            assert got.tolist() == [sampling.draw(row, ref) for row, ref in zip(rows, refs)]
            assert [g.bit_generator.state for g in gens] == [r.bit_generator.state for r in refs]
