"""Batch-runner subcommands: exit codes, JSON-lines output, reproducibility."""

import io
import json
import sys

import pytest

from s3double import cli, qec


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


class TestRecords:
    def test_verify_category_passes(self, capsys):
        code, out, _ = run(["verify-category", "--seed", "1"], capsys)
        recs = records(out)
        assert code == 0 and len(recs) == 2
        assert all(r["pass"] and r["seed"] == 1 for r in recs)
        assert {r["check"] for r in recs} == {"consistency", "gauge-invariant-oracle"}

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
    and E records, when a mixed ribbon still walked once per (u, v) branch."""

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
        ],
        ids=["move-stats", "ribbon-demo", "qec-cycle", "move-stats-C", "ribbon-demo-E"],
    )
    def test_lattice_records_are_byte_identical(self, argv, lines, capsys):
        code, out, _ = run(argv + ["--seed", "3"], capsys)
        assert code == 0 and out == "".join(line + "\n" for line in lines)

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
