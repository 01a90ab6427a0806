"""Suboptimal inner solver for a fixed efficiency parameter.

For a fixed parameter ``e`` the task is to maximize R(p) - e*P(p) subject to
the mask/budget boxes, one serving head per user, at most l_max users per
subcarrier, the streaming minimum rates and the cancellation-order
conditions.  The machinery:

* every rate log2(1+z) is lower-bounded by alpha*log2(z) + beta, tight at a
  reference SINR, which makes the objective concave in log-powers;
* the cancellation condition keeps its own-channel terms and linearizes the
  subtracted cross-channel product term at the round's reference point
  (difference-of-convex step; the gradient is taken in log-power coordinates
  where that term is a sum of exponentials, so the tangent underestimates it);
* the resulting concave program is handled through its Lagrangian: multipliers
  follow projected subgradient steps, powers follow the closed-form
  stationarity solution, clamped to the spectral mask.

Every sweep is Jacobi style: power and multiplier updates read one frozen
snapshot per iteration.  The per-RRH budget multipliers are solved to
complementary slackness inside each sweep, by a safeguarded Newton solve
warm-started from the previous sweep (the deep interference-limited regime
makes the plain fixed-point iteration scale-degenerate otherwise); the rate
and cancellation-order multipliers follow projected subgradients.  A sweep
runs on arrays of a few hundred entries, where numpy's fixed cost per call
rivals the arithmetic, so it keeps its calls few: each Newton step of the
budget solve computes every head's power sum in one vectorised pass and
then runs each head's control (bracket, target, step) on Python floats;
what holds for a whole start (each head's run of entries) or a whole
budget solve (the entries with no positive numerator) is computed once;
and the stop test's step size is formed only once it may stop.  Rounds
re-tighten the rate bound (and the linearization) at the current point; a
round that fails to improve the surrogate objective is rejected, which makes
both the recorded round objectives and the true objective nondecreasing
across rounds.

Every solve runs over exclusive seatings: each user on one head, at most
l_max users per subcarrier, seated entries at budget-scaled mask power (see
``greedy_init``).  The seating is held fixed through the sweeps by an
effective mask, so the head-selection and multiplexing constraints hold
exactly along the trajectory and need no multipliers.  Desk-scale instances
run several head assignments (all of them when there are few) and keep the
best result.

The rounds of several starts, of one problem or of many
(``ScaleSolver.solve_many``), run in lockstep as one batch: their entry
lists are laid end to end (``model.SeatedEntries.concat``), so each numpy
call of a sweep serves every start, and whatever a start decides (its round
tests, its stop tests, its sweep count) it decides on its own slices.  Every
sum over the joined list collects one start's values in its own order, so
each start follows exactly the trajectory it follows alone; a single solve
is a batch of its starts.

The seating also fixes which entries and which cancellation-order pairs
can carry power: every unseated entry stays at the log floor, and the pairs
are those whose two members share a seated (m, n), at most C(l_max, 2) per
(m, n) instead of K(K-1)/2.  Each start lists its E seated entries and
their pairs once (``model.seated_entries`` in ``_SolveContext.seat``), and
every round runs on flat (E,) and (L,) arrays: the bound refresh at the
entries' SINRs, the sweeps (the analysis, the budget-multiplier solve, the
closed-form update and its step test), and the round tests, which read the
surrogate objective and user rates that the analysis reads.  The (M, K, N)
iterate is built once per start, for its true objective (``model.surplus``)
and the repair.  The repair lists the pairs of its current support the same
way, and the feasibility check those of the powered entries.

Every interference sum comes from ``model``: the rounds' from the seated
entry list (its floor, and the adjoint same-head and other-head sums),
which reads no unseated entry, the streaming trim's and boost's rates from
the entry list of the repair's current support (``SeatedEntries.user_rates``),
and only the feasibility check's, the independent gate, from the dense
(M, K, N) rate chain.

The printed closed-form updates this solver descends from show inconsistent
index patterns in their pressure sums, so all terms here are derived directly
from the stationarity conditions of the log-domain Lagrangian; the test suite
cross-checks the vectorized sweep against an independent scalar evaluator.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import model
from .dinkelbach import InnerResult, check_inner_inputs
from .model import (LN2, ChannelState, NetworkConfig, PowerAllocation,
                    cross_interference)

_Z_FLOOR = 1e-300

# subgradient gains of the rate and cancellation-order multipliers: a
# full-scale violation moves a multiplier by this fraction of its useful size
_RATE_GAIN = 0.8
_SIC_GAIN = 0.6
# sweeps a round runs before its convergence test may stop it
_MIN_SWEEPS = 8
# instances with at most this many power entries run several starts: every
# head assignment when there are at most _MULTISTART_ASSIGNMENTS of them
# (M**K; the desk-scale oracle panel has at most 8), else the best-service
# and the peak-gain assignments
_MULTISTART_CELLS = 16
_MULTISTART_ASSIGNMENTS = 8
# relative precision of the per-head budget multiplier solved in every sweep
# (that of a 42-step bisection), and the cap on its power-sum evaluations
_BUDGET_RTOL = 2.0**-42
_BUDGET_MAX_EVALS = 100
# the streaming trim leaves each user this much (bits/s/Hz) above its minimum
# rate, in at most this many passes over the streaming users
_TRIM_MARGIN = 0.05
_TRIM_PASSES = 2


# ---------------------------------------------------------------------------
# concave rate bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleCoefficients:
    """Per-entry bound coefficients: alpha*log2(z) + beta <= log2(1+z)."""

    alpha: np.ndarray  # any shape, (E,) at a start's seated entries; in (0, 1]
    beta: np.ndarray   # the same shape, bits


def scale_coeffs(z0):
    """Bound coefficients tight at z0: alpha = z0/(1+z0),
    beta = log2(1+z0) - alpha*log2(z0).  z0 must be positive; entries without
    a meaningful reference SINR take the high-SIR pair instead."""
    z0 = np.asarray(z0, dtype=float)
    if np.any(z0 <= 0):
        raise ValueError("reference SINR must be positive; use the high-SIR "
                         "initialization (alpha=1, beta=0) for unset entries")
    alpha = z0 / (1.0 + z0)
    beta = np.log2(1.0 + z0) - alpha * np.log2(z0)
    if z0.ndim == 0:
        return float(alpha), float(beta)
    return alpha, beta


def coeffs_at(z: np.ndarray) -> ScaleCoefficients:
    """Re-tighten the bound at the SINRs z (any shape).  Entries with
    non-positive SINR fall back to the high-SIR pair."""
    ok = z > 0
    alpha, beta = scale_coeffs(np.where(ok, z, 1.0))
    return ScaleCoefficients(alpha=np.where(ok, alpha, 1.0),
                             beta=np.where(ok, beta, 0.0))


# ---------------------------------------------------------------------------
# dual state
# ---------------------------------------------------------------------------

@dataclass
class DualState:
    """Non-negative multipliers of the relaxed constraint families.

    xi      (M,)            per-RRH power budgets, solved to complementary
                            slackness in every sweep (``_budget_dual``)
    zeta    (K,)            streaming minimum rates (zero rows for elastic)
    zeta_t  (L,)            cancellation-order constraints, one per seated
                            pair of the start (``_SolveContext.pairs``)
    """

    xi: np.ndarray
    zeta: np.ndarray
    zeta_t: np.ndarray


@dataclass(frozen=True)
class StepRule:
    """Diminishing subgradient schedule step_v = gain/sqrt(v), one pre-scaled
    gain per subgradient multiplier family: a full-scale violation moves the
    multiplier by an O(gain) fraction of its useful magnitude.  Only the
    cancellation-order multipliers are capped (sic_cap): the rate residual
    is clipped to +-2*rate_scale in ``analyze``, so a rate multiplier grows
    by at most 1.6/sqrt(v) per sweep and needs no cap."""

    zeta_step: np.ndarray    # (K,)
    sic_step: np.ndarray     # (L,) one per seated pair
    sic_cap: float | np.ndarray  # (L,) in a batch, each pair its start's cap

    @staticmethod
    def at(v: int) -> float:
        return 1.0 / math.sqrt(max(v, 1))


@dataclass
class ConstraintSlacks:
    """Signed residuals (positive = violated) of the subgradient families."""

    rate: np.ndarray            # (K,) target minus surrogate rate, streaming rows
    sic: np.ndarray             # (L,) linearized margin residual per seated pair


def dual_update(duals: DualState, slacks: ConstraintSlacks, step: StepRule,
                v: int = 1) -> DualState:
    """One projected subgradient step: mu <- max(0, mu + step_v * residual).
    The cancellation-order multipliers are also capped at step.sic_cap; the
    rate multipliers are bounded by their clipped residual (``StepRule``).
    The budget multipliers xi pass through: the sweep solves them exactly."""
    damp = step.at(v)
    zeta = np.maximum(duals.zeta + damp * step.zeta_step * slacks.rate, 0.0)
    zeta_t = np.minimum(np.maximum(duals.zeta_t + damp * step.sic_step * slacks.sic, 0.0),
                        step.sic_cap)
    return DualState(xi=duals.xi, zeta=zeta, zeta_t=zeta_t)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

@dataclass
class PhaseTimes:
    """Seconds (perf_counter) charged to one problem of a solve in each
    phase: the time spent on the problem alone, plus, for every lockstep
    step of the batched rounds (``_run_rounds``), the step's time divided by
    the members it advanced."""

    setup: float = 0.0        # context, starts and the warm-start check
    rounds: float = 0.0       # bound and linearization refresh, round tests
    analyze: float = 0.0      # per-sweep analysis (``_SolveContext.analyze``)
    budget: float = 0.0       # budget multipliers (``_budget_dual``)
    sweep: float = 0.0        # closed-form power update and its step test
    dual_update: float = 0.0  # rate and cancellation-order multipliers
    repair_sic: float = 0.0   # cancellation-order repair and budget rescale
    trim: float = 0.0         # streaming trim
    boost: float = 0.0        # streaming boost
    check: float = 0.0        # check_feasibility and the returned objective

    def add(self, phase: str, seconds: float) -> None:
        setattr(self, phase, getattr(self, phase) + seconds)

    def lap(self, phase: str, since: float) -> float:
        """Charge the time since ``since`` to ``phase``; returns now."""
        now = time.perf_counter()
        self.add(phase, now - since)
        return now

    def total(self) -> float:
        return sum(vars(self).values())


@dataclass
class SolveStats:
    rounds: int = 0
    total_sweeps: int = 0
    round_objectives: list = field(default_factory=list)  # surrogate per round
    true_objective: float = float("nan")
    fixed_point_residual: float = float("nan")  # |p - update(p)| / p_max at exit
    infeasible_reason: str | None = None
    # the phases' total plus an even share of the solve's uncharged time, so
    # the wall times of one ``solve_many`` call sum to its duration
    wall_time: float = 0.0
    # head solves of the budget multiplier that found no xi within the budget
    budget_unbracketed: int = 0
    phases: PhaseTimes = field(default_factory=PhaseTimes)


def _closed_form(num: np.ndarray, den: np.ndarray, mask: np.ndarray,
                 floor: float) -> np.ndarray:
    """Vector form of the scalar updates: num/den clamped to the mask, mask on
    a non-positive denominator, and a tiny positive floor instead of an exact
    zero so log-domain quantities stay defined."""
    pos = den > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(pos, num / np.where(pos, den, 1.0), mask)
    raw = np.where(num <= 0, 0.0, raw)
    return np.maximum(np.minimum(raw, mask), floor)  # raw >= 0 here


def _budget_power_sum(num: np.ndarray, den_rest: np.ndarray, mask: np.ndarray,
                      head: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-head power S(xi), the sum of the closed-form powers of the head's
    entries at budget multipliers xi (as ``_closed_form`` without its
    floor), and dS/dxi, the right derivative: -sum of num/(den_rest + xi)**2
    over the entries that sit at or below their mask.  The entries are
    flat, each on head ``head``; num and mask must be zero where the
    closed form's numerator is non-positive (``_budget_dual`` zeroes them
    once per solve), so those entries add exact zeros to both sums.  Its
    divisions can divide by zero and overflow, so it runs with those
    warnings off (in ``_budget_dual``)."""
    d = den_rest + xi[head]
    pos = d > 0
    raw = num / d     # read only where d > 0; an overflow sits at the mask
    slope = raw / d
    p = np.where(pos, np.minimum(raw, mask), mask)
    free = pos & (raw <= mask)
    return (np.bincount(head, weights=p, minlength=xi.size),
            -np.bincount(head, weights=np.where(free, slope, 0.0), minlength=xi.size))


def _budget_dual(num: np.ndarray, den_rest: np.ndarray, mask: np.ndarray,
                 head: np.ndarray, budget: np.ndarray, warm: np.ndarray | None = None,
                 stats: "SolveStats | list[SolveStats] | None" = None) -> np.ndarray:
    """Per-RRH budget multipliers solved to complementary slackness: the
    smallest xi >= 0 with S(xi) = sum of clip(num/(den_rest + xi), 0, mask)
    over the head's entries <= budget, to relative precision _BUDGET_RTOL,
    from the feasible side.  The entries are flat, each on head ``head``.

    S is continuous and nonincreasing, and convex between the points where an
    entry leaves its mask, so a safeguarded Newton solve runs on each head
    from warm (the previous sweep's solution, else 0).  Each evaluation
    computes S and its slope for every head at once (``_budget_power_sum``);
    the heads' roots are independent, so each head's iteration is then
    carried on Python floats.  Each step keeps a bracket [lo, hi] of
    evaluated points over and within the budget.  A Newton target outside
    it, or (once bracketed) one that does not at least halve the previous
    step, or a zero slope, is replaced by growth while no point within the
    budget is known, else by bisection, which first tries xi = 0 while no
    point over the budget is known.  Targets are nudged by a quarter of the
    tolerance toward the far side of the root, so the last two steps close
    the bracket from both sides.  A head whose bracket has closed keeps its
    xi, so its control is not run again, and returns its upper end once
    every head's has.

    A head that already fits at xi = 0 returns 0.  A head that ends the
    _BUDGET_MAX_EVALS evaluations with no point within its budget returns
    its largest evaluated xi and is counted in ``stats.budget_unbracketed``,
    or, when stats is a list (one per head, as a batch passes its members'),
    in its own head's."""
    off = num <= 0  # powered off at every xi
    num, mask = np.where(off, 0.0, num), np.where(off, 0.0, mask)
    limit = budget.tolist()
    x = [0.0] * len(limit) if warm is None else np.maximum(warm, 0.0).tolist()
    lo = [-math.inf] * len(limit)   # largest xi seen over the budget
    hi = [math.inf] * len(limit)    # smallest xi seen within it
    step = [math.inf] * len(limit)
    up, down = 1.0 + 0.25 * _BUDGET_RTOL, 1.0 - 0.25 * _BUDGET_RTOL
    open_heads = range(len(limit))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_BUDGET_MAX_EVALS):
            s, ds = _budget_power_sum(num, den_rest, mask, head, np.array(x))
            s, ds = s.tolist(), ds.tolist()
            still_open = []
            for m in open_heads:
                s_m, ds_m, x_m = s[m], ds[m], x[m]
                over = s_m > limit[m]
                if over:
                    lo[m] = max(lo[m], x_m)
                else:
                    hi[m] = min(hi[m], x_m)
                lo_m, hi_m = lo[m], hi[m]
                floor = max(lo_m, 0.0)
                if floor >= (1.0 - _BUDGET_RTOL) * hi_m:  # false while hi = inf
                    continue  # closed for good: lo and hi only tighten
                still_open.append(m)
                unbracketed = hi_m == math.inf
                if unbracketed:
                    x_next = max(8.0 * lo_m, 1.0)
                else:
                    x_next = 0.0 if lo_m < 0 else 0.5 * (lo_m + hi_m)
                if ds_m != 0.0:
                    target = (x_m - (s_m - limit[m]) / ds_m) * (up if over else down)
                    if floor < target < hi_m and (unbracketed
                                                  or abs(target - x_m) <= 0.5 * step[m]):
                        x_next = target
                step[m] = abs(x_next - x_m)
                x[m] = x_next
            if not still_open:
                return np.array(hi)
            open_heads = still_open
    unbracketed = [h == math.inf for h in hi]
    if isinstance(stats, list):
        for head_stats, missed in zip(stats, unbracketed):
            head_stats.budget_unbracketed += missed
    elif stats is not None:
        stats.budget_unbracketed += sum(unbracketed)
    return np.array([l if h == math.inf else h for l, h in zip(lo, hi)])


@dataclass
class _Snapshot:
    num: np.ndarray
    den: np.ndarray
    slacks: ConstraintSlacks


class ScaleSolver:
    """Fixed-parameter inner solver; plugs into the fractional-programming
    outer loop."""

    def solve_fixed_e(self, ch: ChannelState, cfg: NetworkConfig, e: float,
                      warm_start: PowerAllocation | None = None) -> InnerResult:
        return self.solve_many([(ch, cfg, e, warm_start)])[0]

    def solve_many(self, problems: Sequence[tuple[ChannelState, NetworkConfig, float,
                                                  PowerAllocation | None]]
                   ) -> list[InnerResult]:
        """Several fixed-parameter solves, one per (ch, cfg, e, warm_start),
        as one batch: every start of every problem is a member of one
        lockstep run of the rounds (``_run_rounds``); then each problem
        keeps its best start, which is repaired and checked on its own.
        Each result equals that of a solve of the problem alone, bit for
        bit.  Its ``stats.phases`` hold the time spent on the problem alone
        plus its members' shares of the lockstep steps."""
        t0 = t = time.perf_counter()
        solves = []
        for ch, cfg, e, warm_start in problems:
            check_inner_inputs(cfg, e, warm_start)
            stats = SolveStats()
            ctx = _SolveContext(ch, cfg, e)
            members = [_Member(ctx, p0, stats) for p0 in _starts(ctx, warm_start)]
            solves.append((ctx, warm_start, stats, members))
            t = stats.phases.lap("setup", t)
        _run_rounds([m for *_, members in solves for m in members])

        results = []
        t = time.perf_counter()
        for ctx, warm_start, stats, members in solves:
            result, t = _finish(ctx, warm_start, stats, members, t)
            results.append(result)
        charged = [res.stats.phases.total() for res in results]
        rest = (t - t0 - sum(charged)) / max(len(results), 1)
        for res, own in zip(results, charged):
            res.stats.wall_time = own + rest
        return results


def _starts(ctx: "_SolveContext", warm_start: PowerAllocation | None) -> list[np.ndarray]:
    """The (M, K, N) starts of one problem: the warm start, else every head
    assignment of a desk-scale instance (or its two best), else the greedy
    seating."""
    ch, cfg = ctx.ch, ctx.cfg
    if warm_start is not None:
        # repair keeps a start's seating, so it must already be exclusive
        seated = warm_start.p > ctx.p_floor
        if (np.any(seated.any(axis=2).sum(axis=0) > 1)
                or np.any(seated.sum(axis=1) > cfg.l_max)):
            raise ValueError("a warm start must seat each user on one head and "
                             "at most l_max users per subcarrier")
        return [np.clip(warm_start.p, ctx.p_floor, cfg.p_mask)]
    if ch.gamma.size <= _MULTISTART_CELLS:
        if cfg.n_rrh ** cfg.n_users <= _MULTISTART_ASSIGNMENTS:
            assignments = itertools.product(range(cfg.n_rrh), repeat=cfg.n_users)
        else:
            assignments = [None, np.argmax(ch.gamma.max(axis=2), axis=0)]
        return [greedy_init(cfg, ch, heads) for heads in assignments]
    return [greedy_init(cfg, ch)]


def _finish(ctx: "_SolveContext", warm_start: PowerAllocation | None, stats: SolveStats,
            members: list["_Member"], t: float) -> tuple[InnerResult, float]:
    """One problem after its rounds: the best start by true objective (the
    first of equals), repaired and checked, and never worse than a feasible
    warm start.  Charges its time to ``stats`` from ``t``; returns the
    result and the time it ended."""
    ch, cfg, e = ctx.ch, ctx.cfg, ctx.e
    times = stats.phases
    best, best_val = None, -np.inf
    for member in members:
        val = model.surplus(PowerAllocation(p=member.p_end), ch, cfg, e)
        if val > best_val:
            best, best_val = member, val
    stats.round_objectives = best.round_objs
    stats.rounds = len(best.round_objs)
    stats.fixed_point_residual = best.residual
    t = times.lap("rounds", t)

    alloc = PowerAllocation(p=ctx.repair(best.p_end, times))
    t = time.perf_counter()
    feasible = model.check_feasibility(alloc, ch, cfg, ctx.min_rates).ok
    report = model.energy_efficiency(alloc, ch, cfg)

    # never return something worse than a feasible warm start
    if warm_start is not None:
        warm_report = model.energy_efficiency(warm_start, ch, cfg)
        if ((not feasible or report.surplus(e) < warm_report.surplus(e))
                and model.check_feasibility(warm_start, ch, cfg, ctx.min_rates).ok):
            alloc, report, feasible = warm_start.copy(), warm_report, True
    if feasible:
        status = "ok"
        stats.true_objective = report.surplus(e)
    else:
        status = "infeasible"
        stats.infeasible_reason = "repair could not meet the streaming rates"
    return InnerResult(alloc, status, stats, report), times.lap("check", t)


def _run_rounds(members: list["_Member"]) -> None:
    """Approximation rounds for every member, each over its own seating.  A
    seating (entries above the floor) is held fixed: every other entry stays
    at the floor, so the rounds carry the seated entries and their pairs
    alone, and the (M, K, N) iterate is built once, at the end.  The bound is
    re-tightened at each round's start, and a round whose sweeps lose
    surrogate value is rejected, which also keeps the true objective
    nondecreasing.

    The members' sweeps run in lockstep on their entry lists laid end to end
    (``_Batch``), so one analysis, budget solve, closed-form update and
    multiplier step serves them all; everything a member decides it decides
    on its own slices: the bound refresh and linearization, the round test,
    both stop tests and its sweep count.  A member leaves the batch when its
    rounds end, and each follows exactly the trajectory of a batch of its
    own.  Sets each member's ``p_end``, ``round_objs`` and ``residual``."""
    if not members:
        return
    t = time.perf_counter()
    batch = _Batch(members)
    t = batch.lap("setup", t)
    while True:
        for i, member in enumerate(batch.members):
            if member.v == 0:
                batch.load_round(i, member.begin_round(batch.p[batch.spans["entry"][i]]))
                t = member.stats.phases.lap("rounds", t)
        snap = batch.analyze(batch.p, batch.duals, batch.coeffs, batch.lin)
        t = batch.lap("analyze", t)
        xi = _budget_dual(snap.num, snap.den, batch.mask, batch.entries.head,
                          batch.budget, batch.duals.xi, batch.head_stats)
        t = batch.lap("budget", t)
        p_next = batch.sweep(snap, xi)
        for member in batch.members:
            member.v += 1
            member.stats.total_sweeps += 1
        settled = batch.settled(p_next)
        t = batch.lap("sweep", t)
        batch.duals = dual_update(batch.duals, snap.slacks, batch.step_rule_now(), 1)
        batch.duals.xi = xi
        t = batch.lap("dual_update", t)
        batch.p = p_next

        ended = []
        for i, member in enumerate(batch.members):
            if settled[i] or member.v == member.ctx.cfg.tolerances.v_max:
                p_i = batch.p[batch.spans["entry"][i]]
                done = member.end_round(p_i)
                t = member.stats.phases.lap("rounds", t)
                if done:
                    t = member.finish(p_i, batch.duals_of(i), t)
                    ended.append(i)
        if ended:
            batch.settle()
            if len(ended) == len(batch.members):
                return
            batch = batch.without(ended)
            t = batch.lap("rounds", t)


class _Member:
    """One (context, start) pair of a batch of rounds: the problem's context
    seated on the start, the problem's stats, and the start's round state.
    (A plain class: a dataclass costs a millisecond at import.)"""

    def __init__(self, ctx: "_SolveContext", p0: np.ndarray, stats: SolveStats):
        self.ctx = ctx.seated(p0 > ctx.p_floor)
        self.stats = stats
        self.p0 = self.ctx.entries.take(p0)     # (E,) the start's seated powers
        self.z = self.ctx.entries.sinr(self.p0)  # (E,) where the next bound is tight
        self.coeffs: ScaleCoefficients | None = None
        self.p_round: np.ndarray | None = None  # (E,) the current round's start
        self.obj_round = 0.0                    # and its surrogate objective
        self.s = 0                              # the current round
        self.v = 0                              # its sweeps so far, 0 before it starts
        self.round_objs: list[float] = []
        self.p_end: np.ndarray | None = None    # (M, K, N) the end point, once done
        self.residual = float("nan")            # the fixed-point residual there

    def begin_round(self, p: np.ndarray) -> dict:
        """Re-tighten the bound at the round's start p (E,) and return the
        round's linearization."""
        self.coeffs = coeffs_at(self.z)
        lin = self.ctx.linearize(p)
        self.p_round = p
        self.obj_round, _ = self.ctx.surrogate(p, self.z, self.coeffs)
        return lin

    def end_round(self, p: np.ndarray) -> bool:
        """The round tests at the round's end point p (E,), a view of the
        batch's iterate, which a rejected round resets to the round's
        start.  True when the rounds end."""
        ctx = self.ctx
        tol = ctx.cfg.tolerances
        z_end = ctx.entries.sinr(p)
        obj, _ = ctx.surrogate(p, z_end, self.coeffs)
        if obj < self.obj_round:
            p[:] = self.p_round
            self.round_objs.append(self.obj_round)
            return True
        self.z = z_end
        self.round_objs.append(obj)
        eps2 = tol.varpi2_rel * ctx.cfg.p_max
        if self.s > 0 and np.all(ctx.head_max(np.abs(p - self.p_round)) < eps2):
            return True
        self.s += 1
        self.v = 0
        return self.s == tol.s_max

    def finish(self, p: np.ndarray, duals: DualState, t: float) -> float:
        """Fixed-point spot check at the end point p (E,): one more
        closed-form evaluation with the final multipliers must reproduce it.
        Charges its phases from ``t``; returns the time it ended."""
        ctx, times = self.ctx, self.stats.phases
        snap = ctx.analyze(p, duals, self.coeffs, ctx.linearize(p))
        t = times.lap("analyze", t)
        xi = _budget_dual(snap.num, snap.den, ctx.mask, ctx.entries.head,
                          ctx.cfg.p_max, duals.xi, self.stats)
        t = times.lap("budget", t)
        p_check = ctx.sweep(snap, xi)
        self.residual = float((ctx.head_max(np.abs(p_check - p)) / ctx.cfg.p_max).max())
        self.p_end = ctx.full(p)
        return times.lap("sweep", t)


class _Sweeps:
    """The per-sweep analysis over a flat entry list and its pairs: a
    seated context's (``_SolveContext``) or a batch's (``_Batch``).  Reads
    the (E,) ``mask``, ``p_floor``, ``weight`` and ``e_eta``, the (K,)
    ``elastic`` and ``min_rates``, and where each head's run of entries
    starts (``index_heads``)."""

    # fixed scale (bits/s/Hz): keeps the multiplier trajectory independent
    # of the traffic targets except where the constraint actually binds
    rate_scale = 10.0

    def index_heads(self) -> None:
        """The heads that seat an entry and where their runs start; the
        entries are in rising flat order, so each head's are one run."""
        ent = self.entries
        counts = np.bincount(ent.head, minlength=ent.n_heads)
        self.head_seated = np.flatnonzero(counts)
        self.head_start = (np.cumsum(counts) - counts)[self.head_seated]

    def head_max(self, x: np.ndarray) -> np.ndarray:
        """(M,) the largest of x (E,) >= 0 over each head's entries, 0 where
        a head has none."""
        out = np.zeros(self.entries.n_heads)
        out[self.head_seated] = np.maximum.reduceat(x, self.head_start)
        return out

    def analyze(self, p: np.ndarray, duals: DualState, coeffs: ScaleCoefficients,
                lin: dict) -> _Snapshot:
        """The closed-form update's numerator and denominator (without the
        budget multiplier) and the subgradient residuals at the seated
        powers p (E,), from the bound coefficients at the entries (E,) and
        the round's ``linearize``."""
        ent = self.entries

        floor, cross = ent.noise_floor(p)
        inv_floor = 1.0 / floor
        _, r_user = self.surrogate_rates(p * ent.gamma * inv_floor, coeffs)

        zeta_of = np.where(self.elastic, 1.0, duals.zeta)
        c_rate = self.weight * zeta_of[ent.user] * coeffs.alpha
        u = c_rate * inv_floor / LN2
        psi_same = ent.adjoint_same(u * ent.gamma)
        psi_cross = ent.adjoint_cross(u)

        num_sic = 0.0
        den_sic = 0.0
        pairs = self.pairs
        fs, fw = ent.strong, ent.weak
        sic_slack = np.zeros(len(pairs))
        if len(pairs):
            zt = duals.zeta_t
            p_s, p_w = p[fs], p[fw]
            bracket = pairs.bracket(cross[fs])

            # in a batch a member with zt all zero adds exact +0.0 terms
            if zt.any():
                den_sic = ent.from_pairs(zt * p_w * bracket, zt * p_s * bracket)
                # cross denominators: aggregate zt*p_s*p_w*g_w by strong user,
                # contract against the victim-side channels of other RRHs
                den_sic += ent.adjoint_cross(ent.from_pairs(zt * p_s * p_w * pairs.g_w))
                own_num = zt * lin["g_val"]
                b_term = ent.adjoint_cross(ent.from_pairs(None, zt * lin["gconst"]))
                num_sic = ent.from_pairs(own_num, own_num) + lin["p_lin"] * b_term

            # linearized residual for the multiplier update
            dlog = np.log(np.maximum(p, _Z_FLOOR)) - lin["log_p_lin"]
            h_cross = ent.cross(lin["p_lin"] * dlog)
            g_lin = (lin["g_val"] * (1.0 + dlog[fs] + dlog[fw])
                     + lin["gconst"] * h_cross[fw])
            sic_slack = p_s * p_w * bracket - g_lin

        num = c_rate / LN2 + num_sic
        # denominator without the budget multiplier: the sweep solves that
        # multiplier exactly (to complementary slackness), which
        # pins the iterate's scale; every other family stays on subgradients
        den = self.e_eta + psi_same + psi_cross + den_sic

        # clipped so an entirely unserved user cannot swing its multiplier by
        # hundreds of bits in one step
        rate = np.minimum(np.maximum(np.where(self.elastic, 0.0, self.min_rates - r_user),
                                     -2.0 * self.rate_scale), 2.0 * self.rate_scale)
        return _Snapshot(num=num, den=den, slacks=ConstraintSlacks(rate=rate, sic=sic_slack))

    def sweep(self, snap: _Snapshot, xi: np.ndarray) -> np.ndarray:
        """Closed-form update of the seated powers (E,) from one snapshot
        and budget multipliers."""
        return _closed_form(snap.num, snap.den + xi[self.entries.head], self.mask,
                            self.p_floor)

    def surrogate_rates(self, z: np.ndarray,
                        coeffs: ScaleCoefficients) -> tuple[np.ndarray, np.ndarray]:
        """The (E,) weighted surrogate entry rates at SINRs z (E,) and the
        (K,) user rates they sum to."""
        r_hat = self.weight * (coeffs.beta + coeffs.alpha * np.log2(np.maximum(z, _Z_FLOOR)))
        return r_hat, np.bincount(self.entries.user, weights=r_hat,
                                  minlength=self.entries.n_users)


class _Batch(_Sweeps):
    """The members of a lockstep run of rounds as one entry list: their
    seated contexts' lists laid end to end (``SeatedEntries.concat``) with
    their constants, and the state the sweeps carry: the iterate ``p``,
    the multipliers, the bound coefficients and the linearization.
    ``spans[kind][i]`` is member i's slice of an array over the entries,
    heads, users or pairs.  Every sum of the analysis collects one member's
    values in its own order, and everything else is elementwise, so each
    member's slice is what a batch of its own computes."""

    def __init__(self, members: list[_Member]):
        self.members = members
        self.spent = PhaseTimes()  # the batch's time, not yet split
        ctxs = [m.ctx for m in members]
        self.entries = model.SeatedEntries.concat([c.entries for c in ctxs])
        self.pairs = self.entries.pairs
        self.index_heads()
        sizes = {"entry": [len(c.entries) for c in ctxs],
                 "head": [c.entries.n_heads for c in ctxs],
                 "user": [c.entries.n_users for c in ctxs],
                 "pair": [len(c.pairs) for c in ctxs]}
        self.spans = {}
        for kind, counts in sizes.items():
            ends = np.cumsum(counts).tolist()
            self.spans[kind] = [slice(end - n, end) for n, end in zip(counts, ends)]

        def joined(get):
            return np.concatenate([get(c) for c in ctxs])

        self.mask, self.weight = joined(lambda c: c.mask), joined(lambda c: c.weight)
        self.e_eta = joined(lambda c: c.e_eta)
        self.p_floor = joined(lambda c: np.full(len(c.entries), c.p_floor))
        self.elastic, self.min_rates = joined(lambda c: c.elastic), joined(lambda c: c.min_rates)
        self.budget = joined(lambda c: c.cfg.p_max)
        self.eps1 = joined(lambda c: c.cfg.tolerances.varpi1_rel * c.cfg.p_max)
        self.first_head = np.cumsum([0] + sizes["head"][:-1])
        self.head_stats = [m.stats for m, n in zip(members, sizes["head"]) for _ in range(n)]
        self.zeta_step = joined(lambda c: c.step_rule.zeta_step)
        self.sic_step = joined(lambda c: c.step_rule.sic_step)
        self.sic_cap = joined(lambda c: np.full(len(c.pairs), c.step_rule.sic_cap))
        self.user_member = np.repeat(np.arange(len(members)), sizes["user"])
        self.pair_member = np.repeat(np.arange(len(members)), sizes["pair"])

        duals = [c.fresh_duals() for c in ctxs]
        self.p = np.concatenate([m.p0 for m in members])
        self.duals = DualState(xi=np.concatenate([d.xi for d in duals]),
                               zeta=np.concatenate([d.zeta for d in duals]),
                               zeta_t=np.concatenate([d.zeta_t for d in duals]))
        n_entries, n_pairs = len(self.entries), len(self.pairs)
        self.coeffs = ScaleCoefficients(alpha=np.empty(n_entries), beta=np.empty(n_entries))
        self.lin = {"p_lin": np.empty(n_entries), "log_p_lin": np.empty(n_entries),
                    "gconst": np.empty(n_pairs), "g_val": np.empty(n_pairs)}

    _LIN_KINDS = {"p_lin": "entry", "log_p_lin": "entry", "gconst": "pair", "g_val": "pair"}

    def load_round(self, i: int, lin: dict) -> None:
        """Member i's bound coefficients and linearization (``begin_round``)
        into its slices."""
        at = self.spans["entry"][i]
        coeffs = self.members[i].coeffs
        self.coeffs.alpha[at], self.coeffs.beta[at] = coeffs.alpha, coeffs.beta
        for key, kind in self._LIN_KINDS.items():
            self.lin[key][self.spans[kind][i]] = lin[key]

    def settled(self, p_next: np.ndarray) -> list[bool]:
        """Each member's sweep stop test: from its _MIN_SWEEPS-th sweep of a
        round, every head's largest step below varpi1 * p_max.  The steps
        are formed only once some member may stop."""
        may = [m.v >= _MIN_SWEEPS for m in self.members]
        if not any(may):
            return may
        below = self.head_max(np.abs(p_next - self.p)) < self.eps1
        each = np.logical_and.reduceat(below, self.first_head).tolist()
        return [a and b for a, b in zip(may, each)]

    def step_rule_now(self) -> StepRule:
        """The members' step rules with each member's damping at its own
        sweep v folded into its gains, for ``dual_update`` at v = 1 (a
        damping of exactly 1.0): damp * gain is the product the update
        forms first, so each member takes the step a batch of its own
        takes."""
        damp = np.array([StepRule.at(m.v) for m in self.members])
        return StepRule(zeta_step=damp[self.user_member] * self.zeta_step,
                        sic_step=damp[self.pair_member] * self.sic_step,
                        sic_cap=self.sic_cap)

    def duals_of(self, i: int) -> DualState:
        return DualState(xi=self.duals.xi[self.spans["head"][i]],
                         zeta=self.duals.zeta[self.spans["user"][i]],
                         zeta_t=self.duals.zeta_t[self.spans["pair"][i]])

    def without(self, ended: list[int]) -> "_Batch":
        """The batch of the other members, their state carried over."""
        kept = [i for i in range(len(self.members)) if i not in ended]
        out = _Batch([self.members[i] for i in kept])

        def carry(x, kind):
            return np.concatenate([x[self.spans[kind][i]] for i in kept])

        out.p = carry(self.p, "entry")
        out.duals = DualState(xi=carry(self.duals.xi, "head"),
                              zeta=carry(self.duals.zeta, "user"),
                              zeta_t=carry(self.duals.zeta_t, "pair"))
        out.coeffs = ScaleCoefficients(alpha=carry(self.coeffs.alpha, "entry"),
                                       beta=carry(self.coeffs.beta, "entry"))
        out.lin = {key: carry(self.lin[key], kind) for key, kind in self._LIN_KINDS.items()}
        return out

    def lap(self, phase: str, since: float) -> float:
        """Charge the time since ``since`` to ``phase`` of every member,
        in even shares (``settle``); returns now."""
        now = time.perf_counter()
        self.spent.add(phase, now - since)
        return now

    def settle(self) -> None:
        """Split the time charged to the batch evenly over its members."""
        for phase, seconds in vars(self.spent).items():
            for member in self.members:
                member.stats.phases.add(phase, seconds / len(self.members))
        self.spent = PhaseTimes()


class _SolveContext(_Sweeps):
    """Everything fixed for one problem of a solve, plus the vectorized
    per-sweep analysis over the entries of one start's seating and their
    pairs (``seat``), as flat (E,) and (L,) arrays; a new context seats
    nothing, and ``seated`` gives a copy per start."""

    def __init__(self, ch: ChannelState, cfg: NetworkConfig, e: float):
        self.ch = ch
        self.cfg = cfg
        self.e = e
        m_count, k_count, n_count = ch.gamma.shape
        self.shape = (m_count, k_count, n_count)
        self.elastic = cfg.elastic_mask()
        self.streaming = cfg.streaming_users()
        self.min_rates = cfg.min_rates()
        # pure log-domain safety: far below any noise floor so an 'off'
        # entry cannot register as interference
        self.p_floor = 1e-30 * cfg.max_mask

        # subgradient step calibration: relative slacks scaled into each
        # family's useful multiplier magnitude
        self.p_ref = 0.5 * float(cfg.p_max.mean()) / (k_count * n_count)
        self.den_scale = max(e * float(cfg.eta.max()), 1.0 / (LN2 * self.p_ref))
        # cross interference at mask power, which sets each pair's margin scale
        self.cross_at_mask = cross_interference(cfg.p_mask, ch)
        self.seat(np.zeros(self.shape, dtype=bool))

    # -- state builders -----------------------------------------------------
    def scale_at_mask(self, pairs: model.SupportPairs) -> np.ndarray:
        """(L,) each pair's margin scale (``pair_margins``) at mask power."""
        return model.pair_margins(pairs, self.cross_at_mask)[1] + 1e-300

    def seat(self, seating: np.ndarray) -> None:
        """Carry the entries of one start, those ``seating`` (bool (M, K, N))
        holds, and their pairs.  Sets ``entries`` and ``pairs``, the heads
        that seat an entry and where their runs of entries start, the
        entries' config constants and the ``step_rule`` over them."""
        cfg = self.cfg
        self.entries = ent = model.seated_entries(self.ch, seating)
        self.pairs = pairs = ent.pairs
        self.index_heads()
        self.mask = ent.take(cfg.p_mask)
        self.weight = cfg.weights[ent.head, ent.user]
        self.elastic_e = self.elastic[ent.user]
        # the amplifier's price of an entry's power; streaming power is free
        self.e_eta = self.e * cfg.eta[ent.head] * self.elastic_e
        scale = self.scale_at_mask(pairs)
        mask_s, mask_w = self.mask[ent.strong], self.mask[ent.weak]
        self.step_rule = StepRule(
            zeta_step=np.full(self.shape[1], _RATE_GAIN / self.rate_scale),
            sic_step=(_SIC_GAIN * self.den_scale
                      / (self.p_ref * scale**2 * mask_s * mask_w + 1e-300)),
            sic_cap=cfg.tolerances.dual_cap * self.den_scale / self.p_ref,
        )

    def seated(self, seating: np.ndarray) -> "_SolveContext":
        """A copy of this context seated on ``seating`` (``seat``), sharing
        the problem's constants, so that several starts can run at once."""
        out = object.__new__(_SolveContext)
        vars(out).update(vars(self))
        out.seat(seating)
        return out

    def full(self, p: np.ndarray) -> np.ndarray:
        """The (M, K, N) iterate of the seated powers p (E,): the floor
        everywhere else."""
        out = np.full(self.shape, self.p_floor)
        out.reshape(-1)[self.entries.flat] = p
        return out

    def fresh_duals(self) -> DualState:
        m_count, k_count, _ = self.shape
        zeta = np.zeros(k_count)
        zeta[self.streaming] = 1.0  # unit rate pressure from the start
        return DualState(xi=np.zeros(m_count), zeta=zeta,
                         zeta_t=np.zeros(len(self.pairs)))

    def linearize(self, p_lin: np.ndarray) -> dict:
        """Tangent constants of the subtracted cross-product term for every
        seated pair, at the round's reference point p_lin (E,)."""
        ent = self.entries
        c_w = ent.cross(p_lin)[ent.weak]
        gconst = self.pairs.g_s * p_lin[ent.strong] * p_lin[ent.weak]
        return {"p_lin": p_lin, "log_p_lin": np.log(np.maximum(p_lin, _Z_FLOOR)),
                "gconst": gconst, "g_val": gconst * c_w}

    # -- surrogate objective ---------------------------------------------------
    def surrogate(self, p: np.ndarray, z: np.ndarray,
                  coeffs: ScaleCoefficients) -> tuple[float, np.ndarray]:
        """The surrogate objective, rate bound minus e times power, and the
        (K,) weighted surrogate user rates at the seated powers p (E,) with
        SINRs z (E,) and the bound coefficients at the entries."""
        r_hat, r_user = self.surrogate_rates(z, coeffs)
        objective = float(np.sum(np.where(self.elastic_e, r_hat, 0.0))
                          - self.e * self.cfg.static_power() - np.dot(self.e_eta, p))
        return objective, r_user

    # -- repair -----------------------------------------------------------------
    def repair(self, p: np.ndarray, times: PhaseTimes) -> np.ndarray:
        """Project the converged iterate onto the hard constraint set: drop
        sub-threshold powers, restore the cancellation order, rescale to the
        budgets, then lift streaming users back to their minimum rates.  The
        iterate's support lies inside its start's exclusive seating (every
        unseated entry sits at the log floor), so one head per user and the
        per-subcarrier user limit already hold.  Whether the result meets
        the streaming rates is left to ``model.check_feasibility``."""
        cfg, ch = self.cfg, self.ch
        t = time.perf_counter()
        q = p.copy()
        q[q <= cfg.binarization_threshold] = 0.0

        self._repair_sic(q)
        scale = np.minimum(1.0, cfg.p_max / np.maximum(q.sum(axis=(1, 2)), 1e-300))
        q *= scale[:, None, None]
        self._repair_sic(q)
        t = times.lap("repair_sic", t)

        if self.streaming:
            banned = np.zeros_like(q, dtype=bool)
            for _ in range(4):
                # streaming transmit power is free in the power model, so its
                # only cost is interference and budget: shave any service
                # excess first so one lifted user cannot starve the next
                _trim_streaming(q, ch, cfg, self.min_rates)
                t = times.lap("trim", t)
                q, ok = _boost_streaming(q, ch, cfg, self.min_rates, banned)
                t = times.lap("boost", t)
                removed = self._repair_sic(q)
                t = times.lap("repair_sic", t)
                banned |= removed
                if ok and not removed.any():
                    break
            _trim_streaming(q, ch, cfg, self.min_rates)
            t = times.lap("trim", t)
            # a trim moves the cross interference at other heads, which can
            # turn a cancellation margin positive
            self._repair_sic(q)
            times.lap("repair_sic", t)
        return q

    def _repair_sic(self, q: np.ndarray) -> np.ndarray:
        """Silence one side of any active pair whose cancellation margin is
        positive, preferring to drop an elastic partner over a streaming one;
        iterates because removals change the cross interference.  Returns the
        mask of cells zeroed.  The pairs are those of q's support on entry:
        removals only shrink it."""
        cfg = self.cfg
        removed = np.zeros_like(q, dtype=bool)
        pairs = model.support_pairs(self.ch, q > 0)
        band = 0.5 * cfg.tolerances.c14_rel_tol * self.scale_at_mask(pairs)
        # drop the weak side unless only the strong side is elastic
        e_s, e_w = pairs.sides(np.broadcast_to(self.elastic[:, None], self.shape))
        drop = np.where(e_s & ~e_w, pairs.strong, pairs.weak)
        for _ in range(cfg.n_users + 1):
            omega, _ = model.pair_margins(pairs, cross_interference(q, self.ch))
            q_s, q_w = pairs.sides(q)
            bad = (q_s > 0) & (q_w > 0) & (omega > band)
            if not bad.any():
                return removed
            q.flat[drop[bad]] = 0.0
            removed.flat[drop[bad]] = True
        return removed


def service_scores(cfg: NetworkConfig, ch: ChannelState) -> np.ndarray:
    """(M, K) serving quality of each head for each user: mean achievable
    rate at mask power against full-load interference from every other head.
    Ranks a distant user toward the high-power node even when a low-power
    head offers a marginally larger raw gain that its own SINR cannot use."""
    per_sub = (cfg.p_max / cfg.n_subcarriers)[:, None, None]
    cross = model.other_heads(per_sub * ch.gamma)  # full-load rx from the others
    sinr = cfg.p_mask * ch.gamma / (ch.sigma + cross)
    return np.log2(1.0 + sinr).mean(axis=2)


def greedy_init(cfg: NetworkConfig, ch: ChannelState,
                heads: Sequence[int] | None = None) -> np.ndarray:
    """Exclusive starting seating: each user on one head, heads[k] when given
    and otherwise the head that serves it best under full-load interference;
    every streaming user gets one seat on its best subcarrier that still has
    a free seat (its rate is a constraint, not the objective; the repair
    widens it when one seat is short, and seats it when none was free);
    elastic users fill every remaining seat, strongest assigned gain first.
    Seated entries start at mask power rescaled into the budget, everything
    else at the log floor."""
    m_count, k_count, n_count = ch.gamma.shape
    floor = 1e-30 * cfg.max_mask
    best = (np.argmax(service_scores(cfg, ch), axis=0) if heads is None
            else np.asarray(heads))
    active = np.zeros((m_count, k_count, n_count), dtype=bool)

    for k in cfg.streaming_users():
        m = int(best[k])
        free = active[m].sum(axis=0) < cfg.l_max  # (N,)
        if free.any():
            active[m, k, int(np.argmax(np.where(free, ch.gamma[m, k, :], -np.inf)))] = True

    elastic = cfg.elastic_mask()
    for m in range(m_count):
        mine = np.nonzero((best == m) & elastic)[0]
        if mine.size == 0:
            continue
        order = np.argsort(ch.gamma[m, mine, :], axis=0)[::-1]  # (|mine|, N)
        for n in range(n_count):
            seats = cfg.l_max - int(active[m, :, n].sum())
            if seats > 0:
                active[m, mine[order[:seats, n]], n] = True

    p = np.where(active, cfg.p_mask, floor)
    scale = np.minimum(1.0, cfg.p_max / np.maximum(p.sum(axis=(1, 2)), 1e-300))
    return np.maximum(p * scale[:, None, None], floor)


def _trim_streaming(p: np.ndarray, ch: ChannelState, cfg: NetworkConfig,
                    min_rates: np.ndarray) -> None:
    """Scale each streaming user's powers down until its rate sits just above
    its minimum.  Trimming only removes interference, so every other user's
    rate can only rise.  The rates are read on one entry list of p's support,
    which the trim keeps, since it only scales.  In the repair each user sits
    on one head, so its own powers stay out of its floor: with z its SINRs,
    scaling its powers by s gives the rate w_k @ log2(1 + s*z) exactly."""
    ent = model.seated_entries(ch, p > 0)
    p_e = ent.take(p)
    weight = cfg.weights[ent.head, ent.user]
    users = [(k, np.flatnonzero(ent.user == k)) for k in cfg.streaming_users()]
    for _ in range(_TRIM_PASSES):
        trimmed = False
        for k, mine in users:
            if mine.size == 0:
                continue
            z, w = ent.sinr(p_e)[mine], weight[mine]
            target = min_rates[k] + _TRIM_MARGIN
            if w @ np.log2(1.0 + z) <= target:
                continue
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if w @ np.log2(1.0 + mid * z) >= target:
                    hi = mid
                else:
                    lo = mid
            if hi < 1.0:
                p_e[mine] *= hi
                trimmed = True
        if not trimmed:
            break
    p.flat[ent.flat] = p_e


def _boost_streaming(p: np.ndarray, ch: ChannelState, cfg: NetworkConfig,
                     min_rates: np.ndarray, banned: np.ndarray) -> tuple[np.ndarray, bool]:
    """Raise streaming users' powers until each meets its minimum rate.

    Water-fills each deficient user's serving RRH, best-channel subcarriers
    first, bounded by the spectral mask and the RRH budget.  A subcarrier can
    be claimed only if the user already sits on it, a seat is free, or the
    weakest occupant is elastic (which is then displaced); cells in ``banned``
    (for example removed by the cancellation-order repair) are never used.
    When the budget runs out, elastic powers on the same RRH are shrunk to
    make headroom; a user whose serving head is exhausted is moved wholesale
    to its next-best head.  Every rate is read on an entry list
    (``seated_entries``) that holds every powered cell.  Returns (powers,
    success)."""
    streaming = cfg.streaming_users()
    elastic = cfg.elastic_mask()
    tol = cfg.tolerances.c13_rate_tol
    m_count, k_count, n_count = p.shape
    scores = service_scores(cfg, ch)
    tried: dict[int, set] = {k: set() for k in streaming}

    def rates_at(ent: model.SeatedEntries | None = None) -> np.ndarray:
        """(K,) the user rates at p, read on ent, else on the list of p > 0."""
        if ent is None:
            ent = model.seated_entries(ch, p > 0)
        return ent.user_rates(ent.take(p), cfg.weights)

    def fill(k: int, m: int) -> float:
        """Water-fill user k on head m; returns k's rate after.  The fill
        powers, evicts and shrinks only cells of its entry list: the powered
        ones and k's row on head m."""
        support = p > 0
        support[m, k, :] = True
        ent = model.seated_entries(ch, support)
        for n in np.argsort(ch.gamma[m, k, :])[::-1]:
            if banned[m, k, n]:
                continue
            occupants = np.nonzero(p[m, :, n] > 0)[0]
            if p[m, k, n] <= 0 and len(occupants) >= cfg.l_max:
                movable = [u for u in occupants if elastic[u]]
                if not movable:
                    continue
                evict = min(movable, key=lambda u: p[m, u, n])
                p[m, evict, n] = 0.0
            headroom = cfg.p_max[m] - p[m].sum()
            if headroom <= 1e-15 * cfg.p_max[m]:
                shrink = elastic & (np.arange(k_count) != k)
                p[m, shrink, :] *= 0.85
                headroom = cfg.p_max[m] - p[m].sum()
            delta = min(cfg.p_mask[m, k, n] - p[m, k, n], headroom)
            if delta <= 1e-12 * cfg.p_mask[m, k, n]:
                continue
            p[m, k, n] += delta
            if rates_at(ent)[k] >= min_rates[k] - tol * 0.5:
                break
        return rates_at(ent)[k]

    min_gain = 0.05  # bits/s/Hz a round must deliver to count as progress
    for _ in range(4 * len(streaming) + 4):
        rates = rates_at()
        deficits = np.where(elastic, 0.0, min_rates - rates)
        deficient = [k for k in streaming if deficits[k] > tol * 0.5]
        if not deficient:
            return p, True
        any_progress = False
        for i, k in enumerate(sorted(deficient, key=lambda k: -deficits[k])):
            # nothing has moved since the round's rates until the first fill
            rate0 = rates[k] if i == 0 else rates_at()[k]
            totals = p.sum(axis=2)
            m = (int(np.argmax(totals[:, k])) if totals[:, k].max() > 0
                 else int(np.argmax(scores[:, k])))
            tried[k].add(m)
            rate1 = fill(k, m)
            if rate1 >= min_rates[k] - tol * 0.5 or rate1 > rate0 + min_gain:
                any_progress = True
                continue
            # this head cannot serve the user (crumbs only): move it
            # wholesale to the best untried head (one head per user always)
            others = [mm for mm in np.argsort(scores[:, k])[::-1]
                      if mm not in tried[k]]
            if others:
                p[:, k, :] = 0.0
                tried[k].add(int(others[0]))
                rate2 = fill(k, int(others[0]))
                if rate2 >= min_rates[k] - tol * 0.5 or rate2 > rate0 + min_gain:
                    any_progress = True
        if not any_progress:
            return p, False
    rates = rates_at()
    ok = bool(np.all(rates[streaming] >= min_rates[streaming] - tol))
    return p, ok
