"""Batch-runner subcommands: exit codes, JSON-lines output, reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from s3double import cli, qec
from s3double import lattice as lat


def run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines()]


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, out, err = run([], capsys)
        assert code == 2 and not out
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(["definitely-not-a-command"], capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(["verify-category", "--bogus"], capsys)
        assert code == 2

    def test_stochastic_commands_require_seed(self, capsys):
        for argv in (
            ["move-stats", "--anyon", "C"],
            ["ribbon-demo", "--anyon", "C"],
            ["measure-ma"],
            ["measure-mu"],
            ["merge-split"],
            ["qec-cycle"],
        ):
            code, _, _ = run(argv, capsys)
            assert code == 2, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure-ma", "--trials", "0"],
            ["measure-mu", "--trials", "0"],
            ["measure-mu", "--trials", "-3"],
            ["merge-split", "--trials", "0"],
            ["ribbon-demo", "--anyon", "D", "--trials", "0"],
            ["move-stats", "--anyon", "C", "--trials", "0"],
            ["move-stats", "--anyon", "C", "--rounds", "0"],
            ["ground-state", "--width", "0"],
            ["ground-state", "--height", "-1"],
            ["qec-cycle", "--width", "0"],
            ["qec-cycle", "--height", "0", "--microscopic"],
            ["qec-cycle", "--rounds", "0"],
        ],
    )
    def test_counts_and_sizes_must_be_positive(self, argv, capsys):
        # zero trials or rounds would emit a vacuous pass or no record at all
        code, out, err = run(argv + ["--seed", "1"], capsys)
        assert code == 2 and not out
        assert "positive integer" in err

    @pytest.mark.parametrize("p", ["1.5", "-0.1", "nan", "inf"])
    def test_qec_cycle_rejects_an_error_rate_outside_0_1(self, p, capsys):
        code, out, err = run(["qec-cycle", "--p", p, "--seed", "1"], capsys)
        assert code == 2 and not out
        assert "probability" in err

    @pytest.mark.parametrize("blocks", ["1", "4", "5"])
    def test_blocks_without_a_reference_code(self, blocks, capsys):
        # only the lengths of the reference qutrit codes can run
        code, out, err = run(["concat-cc", "--blocks", blocks], capsys)
        assert code == 2 and not out
        assert "invalid choice" in err

    def test_fault_demo_needs_distance_three(self, capsys):
        # the length-3 code has distance 1, so no fault on it is correctable
        for site in ("0", "2"):
            code, out, err = run(["concat-cc", "--blocks", "3", "--error-site", site], capsys)
            assert code == 2 and not out
            assert "distance >= 3" in err

    @pytest.mark.parametrize("blocks", ["3", "9"])
    def test_blocks_with_a_reference_code(self, blocks, capsys):
        code, out, _ = run(["concat-cc", "--blocks", blocks], capsys)
        assert code == 0
        assert out == (
            f'{{"blocks": {blocks}, "check": "logical-conjugation", '
            '"deviation": 1.1102230246251565e-16, "pass": true, "seed": 0}\n'
        )


class TestRecords:
    def test_verify_category_passes(self, capsys):
        code, out, _ = run(["verify-category", "--seed", "1"], capsys)
        recs = records(out)
        assert code == 0 and len(recs) == 2
        assert all(r["pass"] and r["seed"] == 1 for r in recs)
        assert {r["check"] for r in recs} == {"consistency", "gauge-invariant-oracle"}
        oracle = recs[1]
        assert (oracle["f_entries"], oracle["r_entries"]) == (2948, 116)

    def test_ground_state_records(self, capsys):
        code, out, _ = run(["ground-state", "--width", "2", "--height", "1"], capsys)
        recs = records(out)
        assert code == 0
        assert sum(r["check"] == "vacuum" for r in recs) == 2
        assert recs[-1]["check"] == "charge-measurement" and recs[-1]["pass"]

    def test_move_stats_carries_analytic_reference(self, capsys):
        code, out, _ = run(
            ["move-stats", "--anyon", "B", "--rounds", "2", "--trials", "150", "--seed", "4"],
            capsys,
        )
        recs = records(out)
        assert code == 0 and len(recs) == 2
        for rec in recs:
            assert rec["analytic"] == 1.0 and rec["empirical"] == 1.0

    def test_syndrome_table_rows(self, capsys):
        code, out, _ = run(["syndrome-table"], capsys)
        recs = records(out)
        assert code == 0 and len(recs) == 12
        by_key = {(r["kind"], r["orientation"]): r for r in recs}
        assert by_key[("XhZh", "h")]["letters"] == ["F", "G", "C"]
        assert by_key[("XhZh", "v")]["letters"] == ["F", "H", "C"]
        assert by_key[("X", "h")]["s3_distribution"] == [["A", 1 / 3], ["C", 2 / 3]]

    def test_qec_cycle_round_records(self, capsys):
        code, out, _ = run(
            ["qec-cycle", "--width", "4", "--height", "4", "--p", "0.01",
             "--rounds", "2", "--seed", "11"],
            capsys,
        )
        recs = records(out)
        assert code == 0 and len(recs) == 2
        assert [r["round"] for r in recs] == [0, 1]

    def test_qec_cycle_flags_too_many_decoder_pairs(self, capsys, monkeypatch):
        monkeypatch.setattr(qec, "decode_greedy", lambda config: [((0, 0), (1, 0), [])])
        code, out, _ = run(
            ["qec-cycle", "--width", "4", "--height", "4", "--p", "0",
             "--rounds", "1", "--seed", "11"],
            capsys,
        )
        (rec,) = records(out)
        assert rec["syndrome"] == [] and len(rec["actions"]) == 1
        assert code == 1 and rec["pass"] is False

    def test_concat_cc_toy_and_fault_demo(self, capsys):
        code, out, _ = run(["concat-cc", "--blocks", "3"], capsys)
        assert code == 0 and records(out)[0]["deviation"] < 1e-12
        code, out, _ = run(
            ["concat-cc", "--blocks", "9", "--error-site", "2", "--error-kind", "Zh"],
            capsys,
        )
        assert code == 0 and records(out)[0]["uncorrectable"] == 0

    def test_concat_cc_rejects_unplaceable_fault(self, capsys):
        for extra in (
            ["--after-block", "9"],
            ["--after-block", "-1"],
            ["--error-site", "-1"],
            ["--error-site", "9"],
            ["--error-kind", "foo"],
        ):
            code, out, _ = run(["concat-cc", "--blocks", "9", "--error-site", "4"] + extra, capsys)
            assert code == 2 and not out, extra

    def test_circuit_equivalence(self, capsys):
        code, out, _ = run(["circuit-equivalence"], capsys)
        _, again, _ = run(["circuit-equivalence"], capsys)
        recs = records(out)
        assert code == 0 and out == again
        assert sorted((r["anyon"], r["orientation"]) for r in recs) == [
            (a, o) for a in "ABCDEFGH" for o in "hv"
        ]
        for r in recs:
            assert r["pass"] and r["choi_distance"] < 1e-9, r
            assert set(r["non_clifford"]) <= {"CC"}, r

    def test_orthonormality(self, capsys):
        code, out, _ = run(["orthonormality"], capsys)
        rec = records(out)[0]
        assert code == 0 and rec["operators_per_ribbon"] == 36


class TestPinnedProtocolOutput:
    """Records at --seed 3 as the per-round dict loops printed them; the
    Kraus tables draw the same outcomes in the same order.  The lattice
    records are those printed when the ribbon and K coefficients were still
    computed from the centralizer loops in the lattice module; the anyon C
    and E records, when a mixed ribbon still walked once per (u, v) branch.
    The three-round move-stats records are those printed when C/F/G/H and
    D/E each had a hand-written decision tree."""

    @pytest.mark.parametrize(
        "argv,line",
        [
            (
                ["measure-mu", "--trials", "50"],
                '{"check": "subspace-measurement", "mean_rounds": 18.44, "pass": true, '
                '"seed": 3, "tags": {"U": 13, "Uperp": 37}, "timeouts": 0, "trials": 50}',
            ),
            (
                ["measure-ma", "--trials", "750"],
                '{"check": "interferometric-charge-measurement", "mean_rounds": 1.744, '
                '"pass": true, "seed": 3, "tags": {"A": 246, "Aprime": 504}, '
                '"timeouts": 0, "trials": 750}',
            ),
        ],
    )
    def test_measurement_records_are_byte_identical(self, argv, line, capsys):
        code, out, _ = run(argv + ["--seed", "3"], capsys)
        assert code == 0 and out == line + "\n"

    @pytest.mark.parametrize(
        "argv,lines",
        [
            (
                ["move-stats", "--anyon", "D", "--rounds", "1", "--trials", "100"],
                [
                    '{"analytic": 0.11111111111111116, "anyon": "D", "empirical": 0.06, '
                    '"n": 1, "pass": true, "seed": 3, "trials": 100, "z": -1.6263455967290605}',
                ],
            ),
            (
                ["ribbon-demo", "--anyon", "G", "--trials", "20"],
                [
                    '{"anyon": "G", "check": "pair-creation", "deviations": 0, "pass": true, '
                    '"seed": 3, "trials": 20}',
                ],
            ),
            (
                ["qec-cycle", "--microscopic", "--width", "3", "--height", "1", "--p", "0.1",
                 "--rounds", "3"],
                [
                    '{"actions": [[[0, 0], [1, 0], false]], "check": "qec-round", "errors": 2, '
                    '"fidelity": 0.0, "pass": true, "residual": 2, "round": 0, "seed": 3, '
                    '"syndrome": [[[0, 0], "E"], [[1, 0], "B"]]}',
                    '{"actions": [[[0, 0], [1, 0], false]], "check": "qec-round", "errors": 2, '
                    '"fidelity": 0.0, "pass": true, "residual": 3, "round": 1, "seed": 3, '
                    '"syndrome": [[[0, 0], "C"], [[1, 0], "D"], [[2, 0], "F"]]}',
                    '{"actions": [[[0, 0], [1, 0], false]], "check": "qec-round", "errors": 0, '
                    '"fidelity": 0.0, "pass": true, "residual": 3, "round": 2, "seed": 3, '
                    '"syndrome": [[[0, 0], "C"], [[1, 0], "E"], [[2, 0], "F"]]}',
                ],
            ),
            (
                ["move-stats", "--anyon", "C", "--rounds", "1", "--trials", "100"],
                [
                    '{"analytic": 0.5, "anyon": "C", "empirical": 0.42, "n": 1, "pass": true, '
                    '"seed": 3, "trials": 100, "z": -1.6000000000000003}',
                ],
            ),
            (
                ["ribbon-demo", "--anyon", "E", "--trials", "20"],
                [
                    '{"anyon": "E", "check": "pair-creation", "deviations": 0, "pass": true, '
                    '"seed": 3, "trials": 20}',
                ],
            ),
            (
                # printed when every trial still built its own mixed D ribbon
                ["ribbon-demo", "--anyon", "D", "--trials", "100"],
                [
                    '{"anyon": "D", "check": "pair-creation", "deviations": 0, "pass": true, '
                    '"seed": 3, "trials": 100}',
                ],
            ),
        ],
        ids=[
            "move-stats", "ribbon-demo", "qec-cycle", "move-stats-C", "ribbon-demo-E",
            "ribbon-demo-D-100",
        ],
    )
    def test_lattice_records_are_byte_identical(self, argv, lines, capsys):
        code, out, _ = run(argv + ["--seed", "3"], capsys)
        assert code == 0 and out == "".join(line + "\n" for line in lines)

    # (analytic, empirical, z) for n = 1, 2, 3 at 100 trials; the two-dimensional
    # anyons draw the same outcomes, so C, F, G and H print the same numbers
    THREE_ROUNDS = {
        "CFGH": [
            (0.5, 0.46, -0.7999999999999996),
            (0.75, 0.76, 0.23094010767585052),
            (0.875, 0.91, 1.058300524425837),
        ],
        "E": [
            (0.11111111111111116, 0.09, -0.6717514421272216),
            (0.5555555555555556, 0.55, -0.1118033988749891),
            (0.7777777777777778, 0.81, 0.7750576015460318),
        ],
    }

    @pytest.mark.parametrize("anyon", "CEFGH")
    def test_three_round_move_stats_are_byte_identical(self, anyon, capsys):
        (rows,) = [v for k, v in self.THREE_ROUNDS.items() if anyon in k]
        lines = [
            f'{{"analytic": {ana!r}, "anyon": "{anyon}", "empirical": {emp!r}, '
            f'"n": {n}, "pass": true, "seed": 3, "trials": 100, "z": {z!r}}}\n'
            for n, (ana, emp, z) in enumerate(rows, 1)
        ]
        code, out, _ = run(
            ["move-stats", "--anyon", anyon, "--rounds", "3", "--trials", "100",
             "--seed", "3"],
            capsys,
        )
        assert code == 0 and out == "".join(lines)

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["--width", "40", "--height", "40", "--p", "0.01", "--rounds", "5"],
                "a21b91c6611a78cf4726feb90f7bf3b85c181c5235fded5bb1f88dd80b1797b3",
            ),
            (
                ["--width", "8", "--height", "8", "--p", "0.05", "--rounds", "3"],
                "f09d0fa11632a5377f5033ab1990e80609116d33c2140c1add095874fbf7af7e",
            ),
        ],
        ids=["40x40", "8x8"],
    )
    def test_phenomenological_records_are_byte_identical(self, argv, digest, capsys):
        # SHA-256 of the stdout printed while the cycle still sampled through
        # rng.choice and the decoder sorted Python tuples
        code, out, _ = run(["qec-cycle"] + argv + ["--seed", "3"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["ground-state", "--width", "3", "--height", "1"],
                "905d41f4488e420737fff3b6059d9753a027fb4f8f592f2cff26af3269112420",
            ),
            (
                ["move-stats", "--anyon", "C", "--rounds", "2", "--trials", "100"],
                "845c67491d7433db50e799dbfdd62d06164bf33894abdcd23f616cd74e94865b",
            ),
            (
                ["move-stats", "--anyon", "D", "--rounds", "2", "--trials", "100"],
                "64f51f06fec37cd381b56ab3bbf71d56e853c51a050a1402dc6fe93e45c3f814",
            ),
            (
                ["ribbon-demo", "--anyon", "D", "--trials", "20"],
                "110e41302c66d49db27855fcd153ada5b6554f0a352909f792b6a095c81b67b2",
            ),
            (
                ["qec-cycle", "--microscopic", "--width", "3", "--height", "1", "--p", "0.05",
                 "--rounds", "2"],
                "b8132f09b8bbc04072780b333a47fb944143dce432065ba6808464cb1b7b5122",
            ),
            (
                ["qec-cycle", "--microscopic", "--width", "2", "--height", "2", "--p", "0"],
                "0ad78b42d32dd5d05e3773a19b0a7837840f92adfc766faaa34bbb0b5dc85ba1",
            ),
            (
                ["circuit-equivalence"],
                "e15b1426911e3abfbf9dc4911d9111b646ae735ae91b02e5bcc39dd87ebb3462",
            ),
            (
                ["orthonormality"],
                "27be44fc00dc16e6f852161b2f070b9401672b88fa07693b55b063d4531e7a1f",
            ),
            (
                ["concat-cc", "--blocks", "9", "--error-site", "4"],
                "6bb31a94770da967e855401f1bfb40bfdbc6bde976c60d7417138c345a09c01a",
            ),
            # the next three print deviations that depend on the order in
            # which concat_inner sums the branches
            (
                ["concat-cc", "--blocks", "3"],
                "b1e0e536ba5e56956a9da49a2943ca4c679177d2d66ac4a3a1bc817fe13193a9",
            ),
            (
                ["concat-cc", "--blocks", "9", "--error-site", "2", "--error-kind", "Zh"],
                "7c698d370ed91fab6efc346e0200a74ec5a0efa992feb5a69abb0122f110d726",
            ),
            (
                ["concat-cc", "--blocks", "9", "--error-site", "5", "--error-kind", "XhZh",
                 "--after-block", "6"],
                "25c4bb940d1d27c01a89953b00294a4afacc244785ade8c5fe91cd8e387cbf40",
            ),
        ],
        ids=[
            "ground-state", "move-stats-C", "move-stats-D", "ribbon-demo-D",
            "qec-microscopic-3x1", "qec-microscopic-2x2", "circuit-equivalence",
            "orthonormality", "concat-cc", "concat-cc-3", "concat-cc-Zh", "concat-cc-XhZh-6",
        ],
    )
    def test_lattice_circuit_and_code_records_are_byte_identical(self, argv, digest, capsys):
        # SHA-256 of the stdout printed while the lattice, the circuit register
        # and the code register each kept their own sparse type and key
        code, out, _ = run(argv + ["--seed", "3"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["measure-ma", "--trials", "200"],
                "f9c6b668eb64d556ae671b57431e6e50b8b72e21213ee0fff89731002ebed827",
            ),
            (
                ["measure-mu", "--trials", "50"],
                "ed79625300418c4a1a4720584095cf33db459a295979e88a3123cb015bf2a72d",
            ),
            (
                ["merge-split", "--trials", "125"],
                "05bc5ca60d316d7c0fe593118cb243da9a029dff3b55a4f45179266291c841f9",
            ),
        ],
        ids=["measure-ma", "measure-mu", "merge-split"],
    )
    def test_fusion_tree_records_are_byte_identical(self, argv, digest, capsys):
        # SHA-256 of the stdout printed while fusion_sim drew every outcome
        # with Generator.choice
        code, out, _ = run(argv + ["--seed", "3"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["measure-ma", "--trials", "750"],
                "ebb724ab2cfc544dc9b39e241dd346934e44e597251373c48c05f84b7218ff6f",
            ),
            (
                ["measure-mu", "--trials", "50"],
                "36b89329d0bdaadd1e2f4ef5ddcd9216f7cdfbed40ce42f2d53ea3fe24a35926",
            ),
            (
                ["merge-split", "--trials", "125"],
                "0db62acae2d38774a3576e98e2a7ae065a3422bc4cda86b2d20ae87693c3dd06",
            ),
        ],
        ids=["measure-ma", "measure-mu", "merge-split"],
    )
    def test_fusion_tree_records_at_a_second_seed(self, argv, digest, capsys):
        # SHA-256 of the stdout printed at --seed 11 while every trial ran
        # as its own protocol call
        code, out, _ = run(argv + ["--seed", "11"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_merge_split_record(self, capsys):
        code, out, _ = run(["merge-split", "--trials", "125", "--seed", "3"], capsys)
        (rec,) = records(out)
        assert code == 0
        assert set(rec) == {"check", "min_fidelity", "pass", "seed", "trials"}
        assert rec["check"] == "merge-split-round-trip" and rec["pass"] is True
        assert rec["seed"] == 3 and rec["trials"] == 125
        assert 1 - 1e-12 <= rec["min_fidelity"] <= 1 + 1e-12


class TestErrors:
    def test_resource_bound_is_explained(self, capsys):
        code, out, _ = run(["ground-state", "--width", "3", "--height", "3"], capsys)
        recs = records(out)
        assert code == 1
        assert recs[-1]["error"] == "ResourceError" and not recs[-1]["pass"]

    def test_trial_floor_is_explained(self, capsys):
        code, out, _ = run(
            ["move-stats", "--anyon", "C", "--trials", "10", "--seed", "1"], capsys
        )
        recs = records(out)
        assert code == 1 and recs[-1]["error"] == "ProtocolError"


class TestReproducibility:
    def test_byte_identical_output(self, capsys):
        argv = ["ribbon-demo", "--anyon", "D", "--trials", "10", "--seed", "21"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2 and out1

    def test_output_file_and_summary(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        code, out, err = run(
            ["orthonormality", "--output", str(path), "--summary"], capsys
        )
        assert code == 0 and not out
        assert "orthonormality" in err and "PASS" in err
        assert records(path.read_text())[0]["pass"]


@pytest.fixture
def opened_tables(monkeypatch):
    """Every LawTable that cli.run opens, in order."""
    tables = []
    law_table = lat.law_table

    @contextlib.contextmanager
    def spy():
        with law_table() as table:
            tables.append(table)
            yield table

    monkeypatch.setattr(lat, "law_table", spy)
    return tables


class TestLawTable:
    """cli.run opens one law table per command, closes it whatever the
    command does, and prints what the same handler prints with no table."""

    @staticmethod
    def _untabled(argv):
        args = cli.build_parser().parse_args(argv)
        stream = io.StringIO()
        assert lat._TABLE is None
        cli.COMMANDS[args.command](args, cli._Emitter(stream, args.seed, False))
        return stream.getvalue()

    @pytest.mark.parametrize(
        "argv,skips",
        [
            (["move-stats", "--anyon", "C", "--rounds", "3", "--trials", "100"], False),
            (["move-stats", "--anyon", "D", "--rounds", "3", "--trials", "100"], False),
            (["move-stats", "--anyon", "F", "--rounds", "3", "--trials", "100"], False),
            (["ribbon-demo", "--anyon", "D", "--trials", "40"], False),
            (["ribbon-demo", "--anyon", "E", "--trials", "40"], False),
            # noisy rounds reach states above the term bound
            (["qec-cycle", "--microscopic", "--width", "3", "--height", "1", "--p", "0.1"], True),
        ],
        ids=["move-stats-C", "move-stats-D", "move-stats-F", "ribbon-demo-D", "ribbon-demo-E",
             "qec-cycle"],
    )
    def test_records_equal_an_untabled_run(self, argv, skips, opened_tables, capsys):
        for seed in ("1", "2", "5"):
            _, out, _ = run(argv + ["--seed", seed], capsys)
            assert out and out == self._untabled(argv + ["--seed", seed]), seed
        assert len(opened_tables) == 3 and lat._TABLE is None
        assert sum(t.hits for t in opened_tables) > 0
        assert (sum(t.skipped for t in opened_tables) > 0) == skips

    def test_table_closes_when_a_command_raises(self, opened_tables, capsys, monkeypatch):
        # a ProtocolError becomes an error record; an AnnihilationError
        # escapes cli.run
        code, out, _ = run(["move-stats", "--anyon", "C", "--trials", "10", "--seed", "1"], capsys)
        assert code == 1 and records(out)[-1]["error"] == "ProtocolError"
        assert len(opened_tables) == 1 and lat._TABLE is None
        seen = []

        def annihilated(state, site):
            seen.append(lat._TABLE)
            raise lat.AnnihilationError("no support")

        monkeypatch.setattr(lat, "charge_law", annihilated)
        with pytest.raises(lat.AnnihilationError):
            cli.run(["ribbon-demo", "--anyon", "D", "--trials", "5", "--seed", "1"])
        assert len(seen) == 1 and seen[0] is opened_tables[1] and lat._TABLE is None


class TestParser:
    def test_parser_is_built_once(self, capsys):
        # a usage error between two runs leaves the cached parser as it was
        cli.build_parser.cache_clear()
        argv = ["measure-mu", "--trials", "5", "--seed", "2"]
        first = run(argv, capsys)
        assert first[0] == 0 and first[1]
        assert run(["measure-mu", "--trials", "0", "--seed", "2"], capsys)[0] == 2
        assert run(argv, capsys) == first
        assert cli.build_parser.cache_info().misses == 1


class TestDependencies:
    def test_package_runs_without_scipy(self):
        # a meta-path finder that refuses scipy stands in for an install
        # without it; every module is imported and one subcommand runs
        script = textwrap.dedent(
            """
            import importlib, pkgutil, sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} is not installed")

            sys.meta_path.insert(0, NoScipy())
            try:
                import scipy
            except ImportError:
                pass
            else:
                sys.exit("the finder did not block scipy")
            import s3double
            for mod in pkgutil.iter_modules(s3double.__path__):
                importlib.import_module("s3double." + mod.name)
            from s3double import cli
            sys.exit(cli.run(["verify-category"]))
            """
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert [json.loads(line)["pass"] for line in proc.stdout.splitlines()] == [True, True]
