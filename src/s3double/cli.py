"""Batch experiment runner: every protocol and verification as a seeded
subcommand with machine-readable JSON-lines output.

Identical (subcommand, flags, seed) invocations produce byte-identical
output; stochastic commands require an explicit --seed.  ribbon-demo,
measure-ma, measure-mu and merge-split derive one generator per trial from
(seed, trial index); move-stats and qec-cycle draw everything from one
generator seeded by --seed, as does ground-state's charge measurement
(--seed defaults to 0 there).  Exit code 0 means every emitted check
passed, 1 flags a failed check or an explained resource bound, and 2 is a
usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import category
from . import circuits as cir
from . import concat_code as cc
from . import fusion_sim as fsim
from . import lattice as lat
from . import protocols as pro
from . import qec
from .algebra import ANYONS
from .category import U_PAIRS

STOCHASTIC = {
    "move-stats",
    "ribbon-demo",
    "measure-ma",
    "measure-mu",
    "merge-split",
    "qec-cycle",
}


class _Emitter:
    def __init__(self, stream, seed, summary):
        self.stream = stream
        self.seed = seed
        self.summary = summary
        self.records = 0
        self.failures = 0

    def __call__(self, record, passed=True):
        record = dict(record)
        record["seed"] = self.seed
        record["pass"] = bool(passed)
        self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.records += 1
        if not passed:
            self.failures += 1

    def digest(self, name):
        if self.summary:
            status = "PASS" if self.failures == 0 else f"FAIL ({self.failures})"
            print(
                f"{name}: {self.records} record(s), seed {self.seed}, {status}",
                file=sys.stderr,
            )


def _positive_int(text):
    """argparse type of every count and size: a count or size <= 0 would run
    nothing and emit a vacuous pass, so it is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _probability(text):
    """argparse type of an error rate: NaN or a value outside [0, 1] is a usage error."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}")
    return value


def _check_fault_blocks(parser, args):
    """Usage error for a concat-cc fault outside the --blocks blocks, or on a
    code of distance below 3, checked after parsing, since it depends on two
    flags."""
    for flag, value in (("--error-site", args.error_site), ("--after-block", args.after_block)):
        if value is not None and not 0 <= value < args.blocks:
            parser.error(f"{flag} must lie in 0..{args.blocks - 1}, got {value}")
    if args.error_site is not None and cc.default_qutrit_code(args.blocks).distance < 3:
        parser.error(f"--error-site needs distance >= 3, which --blocks {args.blocks} lacks")


def _trial_rngs(args):
    """One generator per trial, seeded by (--seed, trial index)."""
    return [np.random.default_rng([args.seed, trial]) for trial in range(args.trials)]


def _random_states(rngs, pairs):
    """A stack of random states over `pairs`, one per generator: each draws
    the real and imaginary parts of every pair in turn."""
    amps = np.array([rng.standard_normal(2 * len(pairs)) for rng in rngs]).view(complex)
    return fsim.qutrit_vector(dict(zip(pairs, amps.T)))


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_verify_category(args, emit):
    report = category.verify_consistency(category.default_category())
    emit({"check": "consistency", **dataclasses.asdict(report)}, report.passes())
    oracle = category.derive_gauge_invariants()
    emit(
        {
            "check": "gauge-invariant-oracle",
            "dimensions": oracle.dim_residual,
            "magnitudes": oracle.magnitude_residual,
            "monodromy": oracle.monodromy_residual,
            "twists": oracle.twist_residual,
            "f_entries": oracle.f_entries,
            "r_entries": oracle.r_entries,
        },
        oracle.passes(),
    )


def _cmd_ground_state(args, emit):
    lattice = lat.Lattice(args.width, args.height)
    gs = lat.ground_state(lattice)
    for site in lattice.sites:
        p_vac = float(lat.apply_K(gs, site, "A").norm() ** 2)
        emit(
            {"check": "vacuum", "site": list(site), "p_vacuum": p_vac},
            abs(p_vac - 1) < 1e-10,
        )
    cfg, _ = lat.measure_MK(gs, np.random.default_rng(args.seed))
    emit(
        {"check": "charge-measurement", "nontrivial": sorted(lat.nontrivial(cfg))},
        not lat.nontrivial(cfg),
    )


def _cmd_move_stats(args, emit):
    rng = np.random.default_rng(args.seed)
    for rec in pro.success_statistics(args.anyon, args.rounds, args.trials, rng):
        emit(rec, abs(rec["z"]) < 3)


def _cmd_ribbon_demo(args, emit):
    lattice = lat.Lattice(3, 1)
    # every trial applies the same ribbon to the same ground state, and the
    # command's law table walks it once
    gs, rib = lat.ground_state(lattice), lat.shortest_h(lattice, (0, 0))
    expected = {} if args.anyon == "A" else {(0, 0): args.anyon, (1, 0): args.anyon}
    deviations = 0
    for rng in _trial_rngs(args):
        cfg, _ = lat.measure_MK(lat.apply_anyon_ribbon(gs, rib, args.anyon, rng), rng)
        if lat.nontrivial(cfg) != expected:
            deviations += 1
    emit(
        {
            "check": "pair-creation",
            "anyon": args.anyon,
            "trials": args.trials,
            "deviations": deviations,
        },
        deviations == 0,
    )


def _cmd_circuit_equivalence(args, emit):
    geometries = {
        "h": (lat.Lattice(1, 1), lambda L: lat.shortest_h(L, (0, 0))),
        "v": (lat.Lattice(1, 2), lambda L: lat.shortest_v(L, (0, 1))),
    }
    for anyon in ANYONS:
        for orientation, (lattice, make) in sorted(geometries.items()):
            rib = make(lattice)
            circ = cir.build_ribbon_circuit(anyon, orientation)
            dist = cir.check_equivalence(
                circ, cir.ribbon_operator_kraus(lattice, rib, anyon)
            )
            non_clifford = circ.non_clifford_kinds()
            emit(
                {
                    "check": "ribbon-channel",
                    "anyon": anyon,
                    "orientation": orientation,
                    "choi_distance": dist,
                    "non_clifford": non_clifford,
                },
                dist < 1e-9 and set(non_clifford) <= {"CC"},
            )


def _measurement_tags(args, emit, measure, pairs, check):
    """Run `measure` on a random state over `pairs` per trial, all trials as
    one batch, and emit the tag counts."""
    rngs = _trial_rngs(args)
    out = measure(_random_states(rngs, pairs), rngs)
    timeouts = sum(out.timeouts)
    emit(
        {
            "check": check,
            "trials": args.trials,
            "tags": {tag: out.tags.count(tag) for tag in sorted(set(out.tags))},
            "mean_rounds": out.rounds / args.trials,
            "timeouts": timeouts,
        },
        timeouts == 0,
    )


def _cmd_measure_ma(args, emit):
    _measurement_tags(args, emit, fsim.measure_MA, U_PAIRS, "interferometric-charge-measurement")


def _cmd_measure_mu(args, emit):
    _measurement_tags(args, emit, fsim.measure_MU, fsim.ALL_PAIRS, "subspace-measurement")


def _cmd_merge_split(args, emit):
    rngs = _trial_rngs(args)
    left, right = _random_states(rngs, U_PAIRS), _random_states(rngs, U_PAIRS)
    split = fsim.split_qutrit(fsim.merge_qutrits(left, right, rngs).states, rngs)
    ran = ~np.array(split.timeouts)
    # per row: np.vdot and np.linalg.norm call BLAS, whose sums a batched
    # product would round differently, and the record prints these bits
    fidelities = [
        float(abs(np.vdot(va, vb)) / (np.linalg.norm(va) * np.linalg.norm(vb)))
        for before, after in zip((left[ran], right[ran]), fsim.factor_halves(split.states[ran]))
        for va, vb in zip(before, after)
    ]
    worst = 0.0 if any(split.timeouts) else min([1.0, *fidelities])
    emit(
        {
            "check": "merge-split-round-trip",
            "trials": args.trials,
            "min_fidelity": worst,
        },
        worst >= 1 - 1e-9,
    )


def _cmd_syndrome_table(args, emit):
    lattice = lat.Lattice(2, 2)
    gs = lat.ground_state(lattice)
    edges = {"h": lattice.h_edge(0, 1), "v": lattice.v_edge(1, 0)}
    for kind in qec.PAULI_KINDS:
        for orientation, edge in sorted(edges.items()):
            table = qec.SYNDROME_H if orientation == "h" else qec.SYNDROME_V
            st = qec.inject_pauli(gs, edge, kind).normalized()
            sites = qec.syndrome_sites(lattice, edge)
            verified = True
            for slot, (site, letter) in enumerate(zip(sites, table[kind])):
                marg = float(lat.apply_K(st, site, letter).norm() ** 2)
                if slot == 2 and kind in qec.S3_MIX:
                    want = dict(qec.S3_MIX[kind])[letter]
                else:
                    want = 1.0
                verified = verified and abs(marg - want) < 1e-10
            emit(
                {
                    "check": "pauli-syndrome",
                    "kind": kind,
                    "orientation": orientation,
                    "letters": list(table[kind]),
                    "s3_distribution": (
                        [[a, p] for a, p in qec.S3_MIX[kind]]
                        if kind in qec.S3_MIX
                        else None
                    ),
                },
                verified,
            )


def _cmd_qec_cycle(args, emit):
    noise = qec.NoiseModel(args.p)
    rng = np.random.default_rng(args.seed)
    if args.microscopic:
        target = lat.ground_state(lat.Lattice(args.width, args.height))
    else:
        target = (args.width, args.height)
    reports, _ = qec.qec_cycle(target, noise, args.rounds, rng)
    for rec in reports:
        rec = dict(rec)
        rec["check"] = "qec-round"
        # the greedy decoder pairs each syndrome site at most once
        emit(rec, len(rec["actions"]) <= len(rec["syndrome"]) // 2)


def _cmd_concat_cc(args, emit):
    if args.error_site is not None:
        report = cc.fault_tolerance_demo(
            args.blocks, args.error_site, args.error_kind, args.after_block
        )
        report = dict(report)
        ok = report.pop("ok")
        report["check"] = "fault-tolerant-logical-conjugation"
        emit(report, ok)
    else:
        dev, _ = cc.verify_logical_action(args.blocks)
        emit(
            {
                "check": "logical-conjugation",
                "blocks": args.blocks,
                "deviation": dev,
            },
            dev < 1e-9,
        )


def _cmd_orthonormality(args, emit):
    report = lat.verify_orthonormality()
    emit({"check": "ribbon-orthonormality", **dataclasses.asdict(report)}, report.passes())


COMMANDS = {
    "verify-category": _cmd_verify_category,
    "ground-state": _cmd_ground_state,
    "move-stats": _cmd_move_stats,
    "ribbon-demo": _cmd_ribbon_demo,
    "circuit-equivalence": _cmd_circuit_equivalence,
    "measure-ma": _cmd_measure_ma,
    "measure-mu": _cmd_measure_mu,
    "merge-split": _cmd_merge_split,
    "syndrome-table": _cmd_syndrome_table,
    "qec-cycle": _cmd_qec_cycle,
    "concat-cc": _cmd_concat_cc,
    "orthonormality": _cmd_orthonormality,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="s3double",
        description="Seeded batch runner for the S3 quantum double simulator",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, **extra):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=name in STOCHASTIC, default=0)
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--summary", action="store_true")
        return p

    add("verify-category")
    p = add("ground-state")
    p.add_argument("--width", type=_positive_int, default=2)
    p.add_argument("--height", type=_positive_int, default=1)
    p = add("move-stats")
    p.add_argument("--anyon", required=True, choices=ANYONS)
    p.add_argument("--rounds", type=_positive_int, default=5)
    p.add_argument("--trials", type=_positive_int, default=10000)
    p = add("ribbon-demo")
    p.add_argument("--anyon", required=True, choices=ANYONS)
    p.add_argument("--trials", type=_positive_int, default=100)
    add("circuit-equivalence")
    p = add("measure-ma")
    p.add_argument("--trials", type=_positive_int, default=200)
    p = add("measure-mu")
    p.add_argument("--trials", type=_positive_int, default=200)
    p = add("merge-split")
    p.add_argument("--trials", type=_positive_int, default=100)
    add("syndrome-table")
    p = add("qec-cycle")
    p.add_argument("--width", type=_positive_int, default=8)
    p.add_argument("--height", type=_positive_int, default=8)
    p.add_argument("--p", type=_probability, default=1e-3)
    p.add_argument("--rounds", type=_positive_int, default=3)
    p.add_argument("--microscopic", action="store_true")
    p = add("concat-cc")
    p.add_argument("--blocks", type=int, choices=cc.QUTRIT_CODES, default=3)
    p.add_argument("--error-site", type=int, default=None)
    p.add_argument("--error-kind", choices=cc.ERROR_KINDS, default="Xh")
    p.add_argument("--after-block", type=int, default=1)
    add("orthonormality")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "concat-cc":
            _check_fault_blocks(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    stream = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    emit = _Emitter(stream, args.seed, args.summary)
    try:
        with lat.law_table():
            COMMANDS[args.command](args, emit)
    except (lat.ResourceError, qec.QECError, cc.CodeError, pro.ProtocolError) as exc:
        emit({"error": type(exc).__name__, "message": str(exc)}, False)
    finally:
        emit.digest(args.command)
        if args.output:
            stream.close()
    return 0 if emit.failures == 0 else 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
