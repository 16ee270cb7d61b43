"""Adaptive single-site anyon movement on the lattice.

Moving a non-Abelian anyon one site works by creating a short pair toward the
target and fusing at the source, retrying adaptively on non-vacuum outcomes.
One decision tree, read off the fusion rules in move_step, serves every
non-Abelian anyon; Abelian anyons move deterministically.  The C/F/G/H types
succeed with probability 1 - (1/2)^n after n rounds and the D/E types with
1 - (8/9)(1/2)^(n-1).  Every operation touches only the source and target
sites, never the distant partner anyon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from .algebra import ANYON_TABLE, ANYONS, fusion_outcomes

# closed-form success curves only; move_step reads its tree off _FUSION
C_LIKE = ("C", "F", "G", "H")
D_LIKE = ("D", "E")
_FUSION = {(a, b): frozenset(fusion_outcomes(a, b)) for a in ANYONS for b in ANYONS}
_B_TIMES = {a: fusion_outcomes("B", a)[0] for a in ANYONS}
DEFAULT_BUDGET = 32


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class MovePlan:
    anyon: str
    source: tuple
    target: tuple
    max_rounds: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.anyon not in ANYONS:
            raise ProtocolError(f"unknown anyon {self.anyon!r}")
        dx = abs(self.source[0] - self.target[0])
        dy = abs(self.source[1] - self.target[1])
        if (dx, dy) not in ((1, 0), (0, 1)):
            raise ProtocolError("source and target must share a shortest ribbon")


@dataclass(frozen=True)
class MoveResult:
    success: bool
    rounds: int
    transcript: tuple  # (site, outcome) per M_K measurement
    state: lat.LatticeState


def connecting_ribbon(lattice: lat.Lattice, a, b) -> lat.Ribbon:
    """Shortest ribbon whose two ends sit at the adjacent sites a and b."""
    (ax, ay), (bx, by) = a, b
    if (bx, by) == (ax + 1, ay):
        return lat.shortest_h(lattice, a)
    if (ax, ay) == (bx + 1, by):
        return lat.shortest_h(lattice, b)
    if (bx, by) == (ax, ay - 1):
        return lat.shortest_v(lattice, a)
    if (ax, ay) == (bx, by - 1):
        return lat.shortest_v(lattice, b)
    raise ProtocolError(f"sites {a} and {b} are not adjacent")


def step_support(lattice: lat.Lattice, source, target):
    """Edges any single move step may act on (locality bound)."""
    edges = set()
    for site in (source, target):
        edges.update(lattice.plaquette_edges(site))
        edges.update(e for e, _ in lattice.star(site))
    rib = connecting_ribbon(lattice, source, target)
    edges.update(t.edge for t in rib.triangles)
    return edges


@lat.tabled
def _b_ribbon(state, rib):
    """The B ribbon's one branch, normalized and read-only, kept in the law
    table like the laws."""
    u = ANYON_TABLE["B"].basis[0]
    post = lat.anyon_ribbon_branch(state, rib, "B", u, u).normalized()
    post.digits.setflags(write=False)
    post.amps.setflags(write=False)
    return post


def _abelian_fixup(state, rib, s, t, rng, transcript):
    """Apply the shortest B ribbon and fuse both ends (deterministic)."""
    state = _b_ribbon(state, rib)
    out_s, state = lat.measure_site(state, s, rng)
    transcript.append((s, out_s))
    out_t, state = lat.measure_site(state, t, rng)
    transcript.append((t, out_t))
    return out_s, out_t, state


def _expect(site, want, got):
    if got != want:
        raise ProtocolError(f"expected {want} at {site}, measured {got}")


def move_step(state: lat.LatticeState, plan: MovePlan, rng) -> MoveResult:
    """Move the anyon at plan.source one site to plan.target.

    A stays put and B moves with one B ribbon.  Every other anyon alpha runs
    one decision tree read off the fusion rules.  Subroutine 1 applies an
    alpha ribbon and fuses the source: A succeeds, B is removed with a B
    ribbon, and any other outcome y of alpha x alpha becomes the ribbon label
    of subroutine 2 (y = alpha for C/F/G/H, y in C/F/G/H for D/E).  Each
    subroutine-2 pass applies a y ribbon and fuses the source: A or B ends in
    success after a B fix-up; y fuses the target, whose outcome must lie in
    {A, alpha} & (alpha x y) or be moved there by a B ribbon (B -> A for
    C/F/G/H, E <-> D for D/E); A returns to subroutine 1 and alpha repeats
    subroutine 2.  Any other outcome raises ProtocolError.
    """
    alpha = plan.anyon
    s, t = plan.source, plan.target
    rib = connecting_ribbon(state.lattice, s, t)
    transcript = []

    if alpha == "A":
        return MoveResult(True, 0, (), state)
    if alpha == "B":
        _, out_t, state = _abelian_fixup(state, rib, s, t, rng, transcript)
        if out_t != "B":
            raise ProtocolError(f"B move landed on {out_t}")
        return MoveResult(True, 1, tuple(transcript), state)

    rounds = 0
    y = None  # subroutine 1 while None, else the ribbon label of subroutine 2
    while rounds < plan.max_rounds:
        state = lat.apply_anyon_ribbon(state, rib, y or alpha, rng=rng)
        out, state = lat.measure_site(state, s, rng)
        transcript.append((s, out))
        rounds += 1
        if y is None and out not in _FUSION[alpha, alpha]:
            raise ProtocolError(f"unexpected source fusion {out}")
        if out in ("A", "B"):
            if out == "B":
                out_s, out_t, state = _abelian_fixup(state, rib, s, t, rng, transcript)
                _expect(s, "A", out_s)
            if y is not None:
                out_t, state = lat.measure_site(state, t, rng)
                transcript.append((t, out_t))
            if out == "B" or y is not None:
                _expect(t, alpha, out_t)
            return MoveResult(True, rounds, tuple(transcript), state)
        if y is None:
            y = out
            continue
        _expect(s, y, out)
        fused, state = lat.measure_site(state, t, rng)
        transcript.append((t, fused))
        allowed = {"A", alpha} & _FUSION[alpha, y]
        if fused not in allowed and _B_TIMES[fused] in allowed:
            out_s, out_t, state = _abelian_fixup(state, rib, s, t, rng, transcript)
            _expect(s, y, out_s)
            _expect(t, _B_TIMES[fused], out_t)
            fused = out_t
        if fused not in allowed:
            raise ProtocolError(f"unexpected target fusion {fused} at {t}")
        if fused == "A":
            y = None
    return MoveResult(False, rounds, tuple(transcript), state)


def move_path(
    state: lat.LatticeState,
    anyon: str,
    path,
    rng,
    max_rounds: int = DEFAULT_BUDGET,
) -> MoveResult:
    """Chain single-site moves along `path`; abort on the first failure."""
    path = list(path)
    transcript = []
    total_rounds = 0
    for a, b in zip(path, path[1:]):
        result = move_step(state, MovePlan(anyon, a, b, max_rounds), rng)
        transcript.extend(result.transcript)
        total_rounds += result.rounds
        state = result.state
        if not result.success:
            return MoveResult(False, total_rounds, tuple(transcript), state)
    return MoveResult(True, total_rounds, tuple(transcript), state)


def analytic_success(anyon: str, n: int) -> float:
    if anyon in ("A", "B"):
        return 1.0
    if anyon in C_LIKE:
        return 1.0 - 0.5 ** n
    if anyon in D_LIKE:
        return 1.0 - (8 / 9) * 0.5 ** (n - 1)
    raise ProtocolError(f"unknown anyon {anyon!r}")


def success_statistics(anyon: str, max_n: int, trials: int, rng) -> list:
    """Empirical vs analytic move-success curves on the 3x1 demo strip.

    Each trial creates a pair on (0,0)-(1,0) with the mixed ribbon on the
    ground state and moves the right anyon to (2,0) with round budget n;
    returns one record per n with the empirical rate, the closed-form rate,
    and the z-score.  Every trial starts from the same state, so the trials
    share their laws when a law_table() is open.
    """
    if trials < 100:
        raise ProtocolError("need at least 100 trials for statistics")
    lattice = lat.Lattice(3, 1)
    gs, rib = lat.ground_state(lattice), lat.shortest_h(lattice, (0, 0))
    # the adaptive protocol truncated at budget n is a prefix of the full
    # run, so one full run per trial yields the whole curve via the
    # rounds-to-success distribution
    plan = MovePlan(anyon, (1, 0), (2, 0), max_rounds=max_n)
    rounds_used = []
    for _ in range(trials):
        result = move_step(lat.apply_anyon_ribbon(gs, rib, anyon, rng), plan, rng)
        rounds_used.append(result.rounds if result.success else None)
    records = []
    for n in range(1, max_n + 1):
        wins = sum(1 for r in rounds_used if r is not None and r <= n)
        emp = wins / trials
        ana = analytic_success(anyon, n)
        sigma = np.sqrt(max(ana * (1 - ana), 1e-12) / trials)
        records.append(
            {
                "anyon": anyon,
                "n": n,
                "trials": trials,
                "empirical": emp,
                "analytic": ana,
                "z": (emp - ana) / sigma,
            }
        )
    return records
