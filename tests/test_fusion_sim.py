"""Fusion-tree simulator tests: moves, braids, and the qutrit protocols."""

import functools
import math
import operator
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3double import category, sampling
from s3double import fusion_sim as fsim
from s3double.category import ALL_PAIRS, U_PAIRS, U_PERP1_PAIRS, U_PERP2_PAIRS, default_category

OMEGA = np.exp(2j * np.pi / 3)


def random_amps(rng, pairs):
    return {p: rng.normal() + 1j * rng.normal() for p in pairs}


def random_qutrit(rng, pairs=ALL_PAIRS):
    """A random normalised pair vector as a batch of one, the stack the
    protocols take."""
    return fsim.qutrit_vector(random_amps(rng, pairs))


def random_tree(rng, pairs=ALL_PAIRS):
    """A random four-D fusion tree, the state the F-move engine takes."""
    return fsim.qutrit_state(random_amps(rng, pairs))


def amplitudes(arr):
    """{pairs: amplitude} over the nonzero entries of one pair vector ((x, y)
    keys) or one merged pair matrix ((x1, y1, x2, y2) keys)."""
    return {
        sum((ALL_PAIRS[i] for i in index), ()): v
        for index, v in np.ndenumerate(arr)
        if v
    }


def rngs(n, *key):
    """One generator per trial, seeded by (trial, *key)."""
    return [np.random.default_rng([i, *key]) for i in range(n)]


def batch(arr, n):
    """n copies of a batch of one."""
    return np.repeat(arr, n, axis=0)


def pair_matrix(amps):
    """Normalised merged pair matrix from {(x1, y1, x2, y2): amplitude}."""
    mat = np.zeros((len(ALL_PAIRS), len(ALL_PAIRS)), dtype=complex)
    for (x1, y1, x2, y2), v in amps.items():
        mat[ALL_PAIRS.index((x1, y1)), ALL_PAIRS.index((x2, y2))] = v
    return mat / np.linalg.norm(mat)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestStates:
    def test_qutrit_basis(self):
        st9 = random_tree(np.random.default_rng(0))
        assert len(st9.amps) == 9
        assert abs(st9.norm() - 1) < 1e-12

    def test_rejects_inadmissible_pair(self):
        with pytest.raises(fsim.FusionError):
            fsim.qutrit_state({("D", "D"): 1})

    def test_validate_catches_bad_vertex(self):
        bad = fsim.FusionState(("D",) * 4, fsim.QUTRIT_SHAPE, "G", {("A", "A", "G"): 1})
        with pytest.raises(fsim.FusionError):
            bad.validate()

    @pytest.mark.parametrize("slot", range(6))
    def test_validate_reads_every_vertex_of_a_deep_tree(self, slot):
        # the merged tree is valid; corrupting any one internal label (other
        # than the root) leaves an inadmissible vertex
        good = fsim.FusionState(
            ("D",) * 8, fsim.TWO_QUTRIT_SHAPE, "G", {("A", "G", "G", "G", "A", "G", "G"): 1.0}
        ).validate()
        ((labeling, amp),) = good.amps.items()
        bad = list(labeling)
        bad[slot] = "D" if labeling[slot] != "D" else "A"
        broken = fsim.FusionState(good.leaves, good.shape, "G", {tuple(bad): amp})
        with pytest.raises(fsim.FusionError, match="inadmissible vertex"):
            broken.validate()

    @pytest.mark.parametrize(
        "shape", [fsim.QUTRIT_SHAPE, fsim.TWO_QUTRIT_SHAPE, fsim.left_comb_shape(5)]
    )
    def test_node_index_follows_postorder(self, shape):
        state = fsim.FusionState((), shape, "G", {})
        assert state.nodes[-1] == shape
        for i, node in enumerate(state.nodes):
            assert state.node_index(node) == i
            assert all(state.node_index(child) < i for child in node if isinstance(child, tuple))
        with pytest.raises(ValueError):
            state.node_index((0, 7))


U_VEC = fsim.qutrit_vector({("A", "G"): 1.0, ("G", "A"): 1.0j})
MERGED = np.outer(U_VEC, U_VEC)[None]

# protocol: (a call on one stack of pair arrays, a well-shaped argument, a
# wrongly shaped one)
PROTOCOL_CALLS = {
    "measure_MA": (lambda a: fsim.measure_MA(a, rngs(len(a))), U_VEC, U_VEC[:, :8]),
    "measure_MU": (lambda a: fsim.measure_MU(a, rngs(len(a))), U_VEC, U_VEC[0]),
    "merge_left": (lambda a: fsim.merge_qutrits(a, U_VEC, rngs(1)), U_VEC, U_VEC[:, :8]),
    "merge_right": (lambda a: fsim.merge_qutrits(U_VEC, a, rngs(1)), U_VEC, MERGED),
    "split_qutrit": (lambda a: fsim.split_qutrit(a, rngs(len(a))), MERGED, U_VEC),
    "factor_halves": (fsim.factor_halves, MERGED, MERGED[0]),
}


class TestPairArrays:
    """The protocols take and return stacks of pair arrays in ALL_PAIRS order."""

    def test_vector_normalises_as_the_tree_does(self):
        # bit for bit: NumPy's complex division would differ in the last bit
        amps = [random_amps(np.random.default_rng(seed), ALL_PAIRS) for seed in range(20)]
        rows = []
        for one in amps:
            tree = fsim.qutrit_state(one)
            rows.append([tree.amps[pair + ("G",)] for pair in ALL_PAIRS])
            assert fsim.qutrit_vector(one).tolist() == rows[-1:]
        # a stack from amplitude columns normalises each row as it would alone
        columns = {pair: [one[pair] for one in amps] for pair in ALL_PAIRS}
        assert fsim.qutrit_vector(columns).tolist() == rows

    def test_vector_rejects_pair_outside_the_qutrit_space(self):
        with pytest.raises(fsim.FusionError, match="not an internal pair"):
            fsim.qutrit_vector({("D", "D"): 1})
        with pytest.raises(fsim.FusionError, match="zero state"):
            fsim.qutrit_vector({("A", "G"): 0})

    @pytest.mark.parametrize("name", sorted(PROTOCOL_CALLS))
    def test_wrong_shape_rejected(self, name):
        call, good, bad = PROTOCOL_CALLS[name]
        call(good)
        with pytest.raises(fsim.FusionError, match="shape"):
            call(bad)

    def test_one_generator_per_trial(self):
        with pytest.raises(fsim.FusionError, match="generators"):
            fsim.measure_MU(batch(U_VEC, 3), rngs(2))
        with pytest.raises(fsim.FusionError, match="generators"):
            fsim.merge_qutrits(U_VEC, U_VEC, rngs(2))

    def test_outputs_are_normalised_pair_arrays(self):
        before = U_VEC.copy()
        rng = [np.random.default_rng(1)]
        merged = fsim.merge_qutrits(U_VEC, U_VEC, rng)
        split = fsim.split_qutrit(merged.states, rng)
        outs = [fsim.measure_MA(U_VEC, rng).states, fsim.measure_MU(U_VEC, rng).states]
        outs += [merged.states, split.states, *fsim.factor_halves(split.states)]
        for out, shape in zip(outs, [(9,), (9,), (9, 9), (9, 9), (9,), (9,)]):
            assert out.shape == (1,) + shape
            assert abs(np.linalg.norm(out) - 1) < 1e-12
        # no protocol writes into its input
        assert np.array_equal(U_VEC, before)


def python_normalized(arr):
    """The per-entry Python form of `fsim._normalized`, kept as its oracle:
    Python's `abs(v) ** 2` per entry, a row's squares added left to right
    (Python's `sum` up to 3.11), then Python's complex / float per entry."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    size = math.prod(arr.shape[1:])
    squares = [abs(v) ** 2 for v in arr.ravel().tolist()]
    rows = [squares[i : i + size] for i in range(0, len(squares), size)]
    norms = np.sqrt([functools.reduce(operator.add, row) for row in rows])
    if not norms.all():
        raise fsim.FusionError("cannot normalize the zero state")
    norms = norms.reshape((-1,) + (1,) * (arr.ndim - 1))
    return (arr.view(float) / norms + 0.0).view(complex)


def polar_stack(rng, shape, log_row, log_entry):
    """Complex entries of uniform phase and modulus 10 ** (r + e), r drawn
    per row from the interval `log_row` and e per entry from `log_entry`."""
    row = rng.uniform(*log_row, size=shape[:1] + (1,) * (len(shape) - 1))
    return 10.0 ** (row + rng.uniform(*log_entry, size=shape)) * np.exp(
        2j * np.pi * rng.random(shape)
    )


class TestNormalized:
    """`_normalized` is the per-entry Python form bit for bit."""

    @pytest.mark.parametrize("shape", [(2000, 9), (300, 9, 9)])
    def test_bits_equal_the_python_form(self, shape):
        rng = np.random.default_rng(len(shape))
        stacks = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            # moduli 1e-150 to 1e150, within a row and from row to row; rows
            # of alike moduli are where the order of the additions shows
            polar_stack(rng, shape, (0, 0), (-150, 150)),
            polar_stack(rng, shape, (-148, 148), (-2, 2)),
        ]
        # exact zeros and -0.0 in either part, the amplitudes factor_halves
        # prunes; no row is all zero
        signed = polar_stack(rng, shape, (-100, 100), (-1, 1)).view(float)
        signed[rng.random(signed.shape) < 0.3] = 0.0
        signed[rng.random(signed.shape) < 0.3] = -0.0
        signed.reshape(len(signed), -1)[:, 0] = 1.0
        stacks.append(signed.view(complex))
        for arr in stacks:
            assert fsim._normalized(arr).tobytes() == python_normalized(arr).tobytes()

    def test_a_zero_row_refuses_the_stack(self):
        arr = np.ones((3, 9), dtype=complex)
        arr[1] = -0.0
        with pytest.raises(fsim.FusionError, match="zero state"):
            fsim._normalized(arr)


class TestFMove:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_norm_preserved_and_invertible(self, seed):
        rng = np.random.default_rng(seed)
        st0 = random_tree(rng)
        moved = fsim.f_move(st0, ((0, 1), (2, 3)))
        assert abs(moved.norm() - 1) < 1e-12
        back = fsim.f_move(moved, (0, (1, (2, 3))))
        assert back.shape == st0.shape
        assert max(abs(back.amps.get(k, 0) - v) for k, v in st0.amps.items()) < 1e-12

    def test_vacuum_vertex_is_identity(self):
        data = default_category()
        st0 = fsim.FusionState(("A", "G", "G"), ((0, 1), 2), "A", {("G", "A"): 1.0})
        moved = fsim.f_move(st0, ((0, 1), 2))
        assert moved.shape == (0, (1, 2))
        assert abs(moved.amps[("A", "A")] - 1) < 1e-12

    @pytest.mark.parametrize("internal,sign", [("A", 1.0), ("B", -1.0)])
    def test_three_g_expansion(self, internal, sign):
        # re-associating a three-G tree with Abelian internal label exposes
        # the (1/2, 1/2, +-1/sqrt(2)) decomposition
        st0 = fsim.FusionState(
            ("G", "G", "G"), ((0, 1), 2), "G", {(internal, "G"): 1.0}
        )
        moved = fsim.f_move(st0, ((0, 1), 2))
        amps = {k[0]: v for k, v in moved.amps.items()}
        assert abs(amps["A"] - 0.5) < 1e-12
        assert abs(amps["B"] - 0.5) < 1e-12
        assert abs(amps["G"] - sign / np.sqrt(2)) < 1e-12

    def test_left_comb_conversion(self):
        rng = np.random.default_rng(7)
        st0 = random_tree(rng)
        comb, moves = fsim.to_left_comb(st0)
        assert comb.shape == fsim.left_comb_shape(4)
        assert len(moves) >= 1
        assert abs(comb.norm() - 1) < 1e-12
        back = fsim.f_move(comb, comb.shape)
        assert back.shape == st0.shape
        assert max(abs(back.amps.get(k, 0) - v) for k, v in st0.amps.items()) < 1e-12

    def test_leaf_vertex_rejected(self):
        st0 = random_tree(np.random.default_rng(0))
        with pytest.raises(fsim.FusionError):
            fsim.f_move(st0, (0, 1))
        with pytest.raises(fsim.FusionError):
            fsim.f_move(st0, (1, 2))


class TestBraid:
    def test_vacuum_braid_is_identity(self):
        st0 = fsim.FusionState(("A", "G"), (0, 1), "G", {("G",): 1.0})
        out = fsim.braid(st0, 0)
        assert abs(out.amps[("G",)] - 1) < 1e-12

    def test_double_exchange_b_around_g(self):
        data = default_category()
        phase = data.r_symbol("B", "G", "G") * data.r_symbol("G", "B", "G")
        assert abs(phase - 1) < 1e-12
        st0 = fsim.FusionState(("B", "G"), (0, 1), "G", {("G",): 1.0})
        out = fsim.braid(fsim.braid(st0, 0), 0)
        assert abs(out.amps[("G",)] - 1) < 1e-12

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_braid_inverse(self, seed):
        rng = np.random.default_rng(seed)
        st0 = random_tree(rng)
        out = fsim.braid(fsim.braid(st0, 0, over=True), 0, over=False)
        assert max(abs(out.amps[k] - v) for k, v in st0.amps.items()) < 1e-12

    def test_non_adjacent_rejected(self):
        st0 = random_tree(np.random.default_rng(0))
        with pytest.raises(fsim.FusionError):
            fsim.braid(st0, 1)  # leaves 1,2 are not siblings in the pair tree


class TestMeasureMA:
    def test_pure_AG_always_A(self):
        st0 = fsim.qutrit_vector({("A", "G"): 1.0})
        out = fsim.measure_MA(batch(st0, 25), rngs(25))
        assert out.tags == ("A",) * 25
        for state in out.states:
            assert abs(abs(np.vdot(st0, state)) - 1) < 1e-12

    def test_superposition_statistics(self):
        st0 = fsim.qutrit_vector({("A", "G"): 1.0, ("G", "G"): 1.0})
        n = 4000
        hits = fsim.measure_MA(batch(st0, n), rngs(n, 100)).tags.count("A")
        sigma = np.sqrt(n * 0.25)
        assert abs(hits - n / 2) < 3 * sigma

    def test_GG_projects_with_phase(self):
        st0 = fsim.qutrit_vector({("G", "G"): 1.0})
        out = fsim.measure_MA(batch(st0, 25), rngs(25))
        assert out.tags == ("Aprime",) * 25 and not any(out.timeouts)
        for state in out.states:
            assert abs(abs(np.vdot(st0, state)) - 1) < 1e-9

    def test_aprime_preserves_internal_superposition(self):
        st0 = fsim.qutrit_vector({("G", "G"): 1.0, ("G", "A"): 1.0j})
        for state in fsim.measure_MA(batch(st0, 25), rngs(25)).states:
            assert abs(abs(np.vdot(st0, state)) - 1) < 1e-9

    def test_requires_computational_support(self):
        # one trial outside the computational subspace refuses the batch
        st0 = np.concatenate([U_VEC, fsim.qutrit_vector({("C", "F"): 1.0})])
        with pytest.raises(fsim.FusionError):
            fsim.measure_MA(st0, rngs(2))


class TestMeasureMU:
    def test_pure_U_invariant(self):
        rng = np.random.default_rng(0)
        st0 = random_qutrit(rng, U_PAIRS)
        out = fsim.measure_MU(st0, [rng], max_rounds=8)
        assert out.tags == ("U",)
        assert out.transcripts == (("A",) * 8,)
        assert np.max(np.abs(out.states - st0)) < 1e-12

    def test_perp_round_statistics(self):
        st0 = fsim.qutrit_vector({("F", "C"): 1.0})
        n = 4000
        out = fsim.measure_MU(batch(st0, n), rngs(n, 5), max_rounds=1)
        hits = [transcript[0] for transcript in out.transcripts].count("B")
        sigma = np.sqrt(n * 0.75 * 0.25)
        assert abs(hits - 0.75 * n) < 3 * sigma

    def test_all_A_suppression(self):
        # conditioned on an all-A transcript, U-perp amplitudes pick up
        # exactly (-1/2)^n
        amps = {("A", "G"): 1.0, ("C", "F"): 1.0, ("H", "F"): 1.0}
        st0 = fsim.qutrit_vector(amps)
        for n in (1, 3, 6):
            out = fsim.measure_MU(batch(st0, 50), rngs(50), max_rounds=n)
            if "U" not in out.tags:
                pytest.fail(f"no all-A transcript found for n={n}")
            state = out.states[out.tags.index("U")]
            ratio_u = state[ALL_PAIRS.index(("A", "G"))]
            for key in (("C", "F"), ("H", "F")):
                ratio = state[ALL_PAIRS.index(key)] / ratio_u
                assert abs(ratio - (-0.5) ** n) < 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_two_B_restores_perp_projection(self, seed):
        rng = np.random.default_rng(seed)
        st0 = random_qutrit(rng)
        out = fsim.measure_MU(st0, [rng])
        if out.tags != ("Uperp",):
            return
        assert out.transcripts[0].count("B") == 2
        perp = {
            k: v
            for k, v in amplitudes(st0[0]).items()
            if k in U_PERP1_PAIRS + U_PERP2_PAIRS
        }
        target = fsim.qutrit_vector(perp)
        assert abs(abs(np.vdot(target, out.states)) - 1) < 1e-9


class TestMergeSplit:
    def test_merge_direct_G_probability(self):
        u = fsim.qutrit_vector({("A", "G"): 1.0})
        n = 4000
        out = fsim.merge_qutrits(batch(u, n), batch(u, n), rngs(n, 9))
        direct = sum(t[0] == ("root-fusion", "G") for t in out.transcripts)
        sigma = np.sqrt(n * 0.25)
        assert abs(direct - n / 2) < 3 * sigma

    def test_merge_preserves_logical_content(self):
        init = np.random.default_rng(10)
        L = np.concatenate([random_qutrit(init, U_PAIRS) for _ in range(50)])
        R = np.concatenate([random_qutrit(init, U_PAIRS) for _ in range(50)])
        out = fsim.merge_qutrits(L, R, rngs(50, 10))
        assert out.tags == ("merged",) * 50
        assert out.states.shape == (50, len(ALL_PAIRS), len(ALL_PAIRS))
        for left, right, state in zip(L, R, out.states):
            merged = amplitudes(state)
            for (x1, y1), a in amplitudes(left).items():
                for (x2, y2), b in amplitudes(right).items():
                    ratio = merged[x1, y1, x2, y2] / (a * b)
                    assert abs(abs(ratio) - 1) < 1e-9

    def test_split_success_statistics(self):
        u = fsim.qutrit_vector({("A", "G"): 1.0})
        merged = fsim.merge_qutrits(u, u, rngs(1, 11)).states
        n = 4000
        rounds = fsim.split_qutrit(batch(merged, n), rngs(n, 11)).trial_rounds
        # success within one round happens with probability 1/2
        hits = rounds.count(1)
        sigma = np.sqrt(n * 0.25)
        assert abs(hits - n / 2) < 3 * sigma

    def test_split_timeout_outcome(self):
        u = fsim.qutrit_vector({("A", "G"): 1.0})
        merged = fsim.merge_qutrits(u, u, rngs(1)).states
        out = fsim.split_qutrit(batch(merged, 200), rngs(200), max_rounds=1)
        assert any(out.timeouts)
        for tag, timed_out, state in zip(out.tags, out.timeouts, out.states):
            assert (tag == "timeout") == timed_out
            # a timed-out trial leaves its input as it came
            assert not timed_out or np.array_equal(state, merged[0])

    def test_round_trip_and_internal_B_harmless(self):
        init = np.random.default_rng(12)
        L = np.concatenate([random_qutrit(init, U_PAIRS) for _ in range(200)])
        R = np.concatenate([random_qutrit(init, U_PAIRS) for _ in range(200)])
        trial = rngs(200, 12)
        split = fsim.split_qutrit(fsim.merge_qutrits(L, R, trial).states, trial)
        assert not any(split.timeouts)
        assert set(split.tags) == {"split-A", "split-B"}
        for before, after in zip((L, R), fsim.factor_halves(split.states)):
            for va, vb in zip(before, after):
                assert abs(abs(np.vdot(va, vb)) - 1) < 1e-9

    def test_merge_then_MA_on_each_half(self):
        L = fsim.qutrit_vector({("A", "G"): 1.0})
        R = fsim.qutrit_vector({("G", "A"): 1.0})
        trial = rngs(20, 13)
        merged = fsim.merge_qutrits(batch(L, 20), batch(R, 20), trial)
        l2, r2 = fsim.factor_halves(fsim.split_qutrit(merged.states, trial).states)
        assert fsim.measure_MA(l2, trial).tags == ("A",) * 20
        assert fsim.measure_MA(r2, trial).tags == ("Aprime",) * 20


def batch_inputs(n):
    """Stacked inputs of n trials, trial i's drawn from its own generator."""
    init = rngs(n, 3)
    u, u2, full = (
        np.concatenate([random_qutrit(rng, pairs) for rng in init])
        for pairs in (U_PAIRS, U_PAIRS, ALL_PAIRS)
    )
    merged = fsim.merge_qutrits(u, u2, rngs(n, 4)).states
    return {"u": u, "u2": u2, "full": full, "merged": merged}


# protocol: its run on stacked inputs, generators and max_rounds
BATCH_RUNS = {
    "measure_MA": lambda x, trial, m: fsim.measure_MA(x["u"], trial, m),
    "measure_MU": lambda x, trial, m: fsim.measure_MU(x["full"], trial, m),
    "merge_qutrits": lambda x, trial, m: fsim.merge_qutrits(x["u"], x["u2"], trial),
    "split_qutrit": lambda x, trial, m: fsim.split_qutrit(x["merged"], trial, m),
    "factor_halves": lambda x, trial, m: fsim.factor_halves(x["merged"]),
}
BATCH_CASES = [
    (name, m)
    for name in sorted(BATCH_RUNS)
    for m in ((1, 2, 64) if name in ("measure_MA", "measure_MU", "split_qutrit") else (64,))
]


def per_trial(out):
    """One comparable record per trial of a batch: tag, transcript, rounds,
    timeout and the state's bytes (both halves' bytes for factor_halves)."""
    if isinstance(out, tuple):
        return [tuple(half.tobytes() for half in halves) for halves in zip(*out)]
    states = [state.tobytes() for state in out.states]
    return list(zip(out.tags, out.transcripts, out.trial_rounds, out.timeouts, states))


def batch_mismatches(name, max_rounds, n=200):
    """Trials whose record or final generator state differs between one
    batch of n and n batches of one."""
    x, together, alone = batch_inputs(n), rngs(n), rngs(n)
    run = BATCH_RUNS[name]
    batched = per_trial(run(x, together, max_rounds))
    singles = [
        per_trial(run({k: v[i : i + 1] for k, v in x.items()}, [rng], max_rounds))[0]
        for i, rng in enumerate(alone)
    ]
    return [
        i
        for i in range(n)
        if batched[i] != singles[i]
        or together[i].bit_generator.state != alone[i].bit_generator.state
    ]


class TestBatchEqualsSingles:
    """A batch of trials is those trials run one at a time, bit for bit."""

    @pytest.mark.parametrize("name,max_rounds", BATCH_CASES)
    def test_batch_equals_batches_of_one(self, name, max_rounds):
        assert batch_mismatches(name, max_rounds) == []

    @pytest.mark.parametrize("name", ["measure_MA", "measure_MU", "merge_qutrits", "split_qutrit"])
    def test_rotated_generators_are_caught(self, name, monkeypatch):
        # the mutant: every trial draws its double from the next trial's
        # generator (a batch of one is left as it was)
        draws = sampling.draws
        monkeypatch.setattr(sampling, "draws", lambda cdf, gens: draws(cdf, gens[1:] + gens[:1]))
        assert batch_mismatches(name, 64, n=20)

    def test_rounds_is_the_batch_total(self):
        x, m = batch_inputs(50), 64
        for name in ("measure_MA", "measure_MU", "merge_qutrits", "split_qutrit"):
            out = BATCH_RUNS[name](x, rngs(50), m)
            assert all(type(r) is int for r in out.trial_rounds)
            assert type(out.rounds) is int and out.rounds == sum(out.trial_rounds)


# ---------------------------------------------------------------------------
# Reference: the per-round dict loops the Kraus tables replaced, one trial
# per call; the protocols run each as a batch of one


# the one-trial record the loops return
RefOutcome = namedtuple("RefOutcome", "tag transcript state rounds timed_out", defaults=(False,))


def _ref_sample(rng, labels, weights):
    w = np.array(weights, dtype=float)
    w = w / w.sum()
    return labels[rng.choice(len(labels), p=w)]


def ref_measure_MA(state, rng, max_rounds=64):
    data = default_category()
    amps = amplitudes(state)
    i_aa = category.interferometry_amplitude("A", "D", "A")
    i_gg = category.interferometry_amplitude("G", "D", "G")
    p_a = sum(abs(v) ** 2 for (x, y), v in amps.items() if x == "A") * abs(i_aa) ** 2
    p_g = sum(abs(v) ** 2 for (x, y), v in amps.items() if x == "G") * abs(i_gg) ** 2
    transcript = []
    w = _ref_sample(rng, ["A", "G"], [p_a, p_g])
    transcript.append(("interfere", w))
    if w == "A":
        post = {k: v * i_aa for k, v in amps.items() if k[0] == "A"}
        return RefOutcome("A", tuple(transcript), fsim.qutrit_vector(post), 1)
    amps = {k: v * i_gg for k, v in amps.items() if k[0] == "G"}
    e_parity = 0
    rounds = 1
    f_d = np.conj(data.f_entry("G", "D", "D", "G", "D", "G"))
    f_e = np.conj(data.f_entry("G", "D", "D", "G", "E", "G"))
    while rounds < max_rounds:
        fuse = _ref_sample(rng, ["D", "E"], [abs(f_d) ** 2, abs(f_e) ** 2])
        transcript.append(("fuse", fuse))
        if fuse == "E":
            sign = data.f_entry("B", "D", "D", "G", "E", "G")
            amps = {
                (x, y): v * sign * data.f_entry("B", "G", y, "G", "G", "G")
                for (x, y), v in amps.items()
            }
            e_parity ^= 1
        if e_parity == 0:
            return RefOutcome(
                "Aprime", tuple(transcript), fsim.qutrit_vector(amps), rounds
            )
        amps = {k: v * i_gg for k, v in amps.items()}
        transcript.append(("interfere", "G"))
        rounds += 1
    return RefOutcome(
        "Aprime", tuple(transcript), fsim.qutrit_vector(amps), rounds, timed_out=True
    )


def ref_measure_MU(state, rng, max_rounds=64):
    amps = amplitudes(state)
    transcript = []
    b_count = 0
    for rounds in range(1, max_rounds + 1):
        branches = {}
        for w in ("A", "B"):
            branches[w] = {
                k: v * category.u_measurement_amplitude(k[0], k[1], "H", w)
                for k, v in amps.items()
            }
        weights = [sum(abs(v) ** 2 for v in branches[w].values()) for w in ("A", "B")]
        w = _ref_sample(rng, ["A", "B"], weights)
        transcript.append(w)
        amps = {k: v for k, v in branches[w].items() if abs(v) > fsim.PRUNE_TOL}
        if w == "B":
            b_count += 1
            if b_count == 2:
                return RefOutcome(
                    "Uperp", tuple(transcript), fsim.qutrit_vector(amps), rounds
                )
        if b_count == 0 and rounds == max_rounds:
            return RefOutcome(
                "U", tuple(transcript), fsim.qutrit_vector(amps), rounds
            )
    return RefOutcome(
        "Uperp", tuple(transcript), fsim.qutrit_vector(amps), max_rounds, timed_out=True
    )


def ref_merge_qutrits(stateL, stateR, rng):
    data = default_category()
    ampsL = amplitudes(stateL)
    ampsR = amplitudes(stateR)
    transcript = []
    phase = 1.0 + 0j
    outcome = _ref_sample(
        rng,
        ["A", "B", "G"],
        [category.fusion_probability("G", "G", c) for c in ("A", "B", "G")],
    )
    transcript.append(("root-fusion", outcome))
    if outcome != "G":
        coeff = {
            X: np.conj(data.f_entry("G", "G", "G", "G", X, outcome))
            for X in ("A", "B", "G")
        }
        i_aa = category.interferometry_amplitude("A", "D", "A")
        i_ba = category.interferometry_amplitude("B", "D", "A")
        i_gg = category.interferometry_amplitude("G", "D", "G")
        w_a = abs(coeff["A"] * i_aa) ** 2 + abs(coeff["B"] * i_ba) ** 2
        w_g = abs(coeff["G"] * i_gg) ** 2
        X = _ref_sample(rng, ["A", "G"], [w_a, w_g])
        transcript.append(("interferometer", X))
        if X == "A":
            res = np.array([coeff["A"] * i_aa, coeff["B"] * i_ba])
            res = res / np.linalg.norm(res)
            col = np.array(
                [np.conj(data.f_entry("G", "G", "G", "G", e, "G")) for e in ("A", "B")]
            )
            col = col / np.linalg.norm(col)
            overlap = np.vdot(col, res)
            assert abs(abs(overlap) - 1) < 1e-12
            phase *= overlap
            transcript.append(("pair-fusion", "G"))
        else:
            phase *= coeff["G"] * i_gg / abs(coeff["G"] * i_gg)
            ab = _ref_sample(rng, ["A", "B"], [0.5, 0.5])
            transcript.append(("left-fusion", ab))
            transcript.append(("abelian-fusion", "G"))
    merged = {
        (x1, y1, x2, y2): phase * ampsL[x1, y1] * ampsR[x2, y2]
        for (x1, y1) in ampsL
        for (x2, y2) in ampsR
    }
    return RefOutcome(
        "merged", tuple(transcript), pair_matrix(merged), 1
    )


def ref_split_qutrit(state, rng, max_rounds=64):
    amps = amplitudes(state)
    p_succ = category.fusion_probability("G", "G", "G")
    transcript = []
    for rounds in range(1, max_rounds + 1):
        outcome = _ref_sample(rng, ["G", "AB"], [p_succ, 1 - p_succ])
        transcript.append(("split-attempt", outcome))
        if outcome == "G":
            internal = _ref_sample(rng, ["A", "B"], [0.5, 0.5])
            transcript.append(("internal", internal))
            return RefOutcome(
                f"split-{internal}", tuple(transcript), pair_matrix(amps), rounds
            )
    return RefOutcome("timeout", tuple(transcript), state, max_rounds, timed_out=True)


def assert_same_outcome(out, ref, rng, ref_rng):
    """A batch of one against the one-trial record of a reference loop."""
    assert (out.tags, out.transcripts, out.trial_rounds, out.timeouts) == (
        (ref.tag,), (ref.transcript,), (ref.rounds,), (ref.timed_out,)
    )
    # the loops' vectors come from qutrit_vector, a batch of one already
    ref_states = ref.state if ref.state.ndim == out.states.ndim else ref.state[None]
    assert out.states.shape == ref_states.shape
    assert np.max(np.abs(out.states - ref_states)) < 1e-12
    # the same draws in the same order
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestReferenceLoops:
    """The table-driven protocols agree with the per-round dict loops."""

    @pytest.mark.parametrize("max_rounds", [1, 2, 64])
    def test_measure_MA(self, max_rounds):
        for seed in range(200):
            st0 = random_qutrit(np.random.default_rng([seed, 0]), U_PAIRS)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = fsim.measure_MA(st0, [rng], max_rounds)
            ref = ref_measure_MA(st0[0], ref_rng, max_rounds)
            assert_same_outcome(out, ref, rng, ref_rng)

    @pytest.mark.parametrize("max_rounds", [1, 8, 64])
    def test_measure_MU(self, max_rounds):
        for seed in range(200):
            st0 = random_qutrit(np.random.default_rng([seed, 1]))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = fsim.measure_MU(st0, [rng], max_rounds)
            ref = ref_measure_MU(st0[0], ref_rng, max_rounds)
            assert_same_outcome(out, ref, rng, ref_rng)

    def test_merge_and_split(self):
        for seed in range(200):
            init = np.random.default_rng([seed, 2])
            L, R = random_qutrit(init, U_PAIRS), random_qutrit(init, U_PAIRS)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            merged = fsim.merge_qutrits(L, R, [rng])
            assert_same_outcome(merged, ref_merge_qutrits(L[0], R[0], ref_rng), rng, ref_rng)
            max_rounds = (1, 2, 64)[seed % 3]
            out = fsim.split_qutrit(merged.states, [rng], max_rounds)
            ref = ref_split_qutrit(merged.states[0], ref_rng, max_rounds)
            assert_same_outcome(out, ref, rng, ref_rng)

    def test_tables_are_built_once(self, monkeypatch):
        calls = []
        original = category.u_measurement_amplitude
        monkeypatch.setattr(
            category, "u_measurement_amplitude", lambda *a: calls.append(a) or original(*a)
        )
        # built afresh here, and dropped again so no other test reads tables
        # built through the counting wrapper
        category.qutrit_tables.cache_clear()
        try:
            rng = np.random.default_rng(3)
            for _ in range(20):
                fsim.measure_MU(random_qutrit(rng), [rng])
        finally:
            category.qutrit_tables.cache_clear()
        assert len(calls) == len(fsim.ALL_PAIRS) * len(category.MU_OUTCOMES)


class TestSerialization:
    def test_record_is_deterministic(self):
        u = fsim.qutrit_vector({("A", "G"): 1.0, ("G", "G"): 1.0})
        a = fsim.measure_MA(u, [np.random.default_rng(4)])
        b = fsim.measure_MA(u, [np.random.default_rng(4)])
        assert (a.tags, a.transcripts, a.trial_rounds, a.timeouts) == (
            b.tags, b.transcripts, b.trial_rounds, b.timeouts
        )
        assert np.array_equal(a.states, b.states)
