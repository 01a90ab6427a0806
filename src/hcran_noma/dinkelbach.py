"""Fractional-programming outer loop.

Maximizing the ratio R(p)/P(p) is equivalent to driving the parametric
surplus max_p R(p) - e*P(p) to zero: the surplus is strictly decreasing in e,
non-negative at any achievable ratio, and zero exactly at the optimum.  The
loop starts at e = 0, solves the subtractive problem with a pluggable inner
solver, updates e to the achieved ratio, and stops once the surplus falls
inside the tolerance band (or a configured iteration cap is hit).

Because each iteration is warm-started from the previous allocation and the
inner solver never returns a point worse than its warm start, the recorded e
values increase strictly until termination.

``solve_many`` runs the same loop on several instances at once: each round
advances every unfinished instance by one inner solve, all of them in one
``solve_many`` call of the inner solver, which may batch them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import model
from .model import ChannelState, EnergyReport, NetworkConfig, PowerAllocation
from .model import surplus  # noqa: F401  (re-exported to the package)


class InfeasibleProblemError(RuntimeError):
    """The streaming constraints cannot be met by any allocation."""


@dataclass
class InnerResult:
    """One fixed-parameter solve: the allocation and its one evaluation."""

    allocation: PowerAllocation
    status: str     # "ok" | "infeasible"
    stats: object   # the solver's own record, with ``infeasible_reason``
    report: EnergyReport  # rate, power and ratio of ``allocation``


class InnerSolver(Protocol):
    """Fixed-parameter subproblem solver: maximize R(p) - e*P(p) over the
    constraint set, starting from warm_start when given."""

    def solve_fixed_e(self, ch: ChannelState, cfg: NetworkConfig, e: float,
                      warm_start: PowerAllocation | None = None) -> InnerResult: ...

    def solve_many(self, problems: list[tuple[ChannelState, NetworkConfig, float,
                                                  PowerAllocation | None]]
                   ) -> list[InnerResult]:
        """``solve_fixed_e`` on each (ch, cfg, e, warm_start), with the same
        results; only ``dinkelbach.solve_many`` needs it."""
        ...


def check_inner_inputs(cfg: NetworkConfig, e: float,
                       warm_start: PowerAllocation | None) -> None:
    """Reject, before an inner solve starts, an efficiency parameter that is
    not finite and non-negative, and a warm start that is not an (M, K, N)
    array of finite, non-negative powers."""
    model.check_parameter(e)
    if warm_start is None:
        return
    p = warm_start.p
    if p.shape != cfg.p_mask.shape:
        raise ValueError(f"the warm start has shape {p.shape}, "
                         f"expected {cfg.p_mask.shape}")
    if not np.all((0.0 <= p) & (p < np.inf)):  # also rejects NaN
        raise ValueError("the warm start's powers must be finite and non-negative")


@dataclass(frozen=True)
class DinkelbachIteration:
    e: float                 # parameter used for this inner solve
    surplus: float           # R(p_i) - e_i * P(p_i)
    inner_stats: object


@dataclass
class DinkelbachTrace:
    iterations: list[DinkelbachIteration] = field(default_factory=list)
    final_e: float = 0.0
    final_allocation: PowerAllocation | None = None
    final_report: EnergyReport | None = None  # of final_allocation
    # "converged" | "cap" | "stalled", or from ``solve_many`` "infeasible"
    # where ``solve`` raises InfeasibleProblemError
    status: str = "converged"
    # the stats of the inner solve that found no allocation, if one did
    failed_stats: object = None

    @property
    def e_values(self) -> list[float]:
        return [it.e for it in self.iterations]


class _Outer:
    """One instance's outer loop, fed one inner result at a time."""

    def __init__(self, ch: ChannelState, cfg: NetworkConfig):
        self.ch, self.cfg = ch, cfg
        self.trace = DinkelbachTrace()
        self.e = 0.0
        self.last: InnerResult | None = None
        self.done = False

    def warm_start(self) -> PowerAllocation | None:
        return None if self.last is None else self.last.allocation

    def take(self, result: InnerResult) -> None:
        """Record the inner solve at the current e, then end the loop or
        move e to the achieved ratio."""
        trace, tol = self.trace, self.cfg.tolerances
        self.done = True
        if result.status != "ok":
            trace.failed_stats = result.stats
            trace.status = "infeasible" if self.last is None else "stalled"
            return
        self.last = result
        s = result.report.surplus(self.e)
        trace.iterations.append(DinkelbachIteration(e=self.e, surplus=s,
                                                    inner_stats=result.stats))
        if s <= tol.xi:
            trace.status = "converged"
        elif result.report.ee <= self.e:
            # no measurable ratio improvement; the surplus says otherwise only
            # through numerical noise
            trace.status = "stalled"
        elif len(trace.iterations) == tol.outer_max:
            trace.status = "cap"
        else:
            self.e = result.report.ee
            self.done = False

    def finish(self) -> DinkelbachTrace:
        if self.last is not None:
            self.trace.final_allocation = self.last.allocation
            self.trace.final_report = self.last.report
            self.trace.final_e = self.last.report.ee
        return self.trace


def solve(ch: ChannelState, cfg: NetworkConfig, inner: InnerSolver) -> DinkelbachTrace:
    """Run the parametric iteration e_{i+1} = R(p_i)/P(p_i) until the surplus
    drops below the configured tolerance.  R(p_i) and P(p_i) are read from
    the inner result's report, so the loop evaluates nothing itself.

    Raises InfeasibleProblemError when the very first inner solve (e = 0, no
    warm start) reports infeasibility: no allocation meets the streaming
    constraints.  A cap hit returns the best allocation found, flagged.
    """
    run = _Outer(ch, cfg)
    while not run.done:
        run.take(inner.solve_fixed_e(ch, cfg, run.e, warm_start=run.warm_start()))
    if run.trace.status == "infeasible":
        raise InfeasibleProblemError(
            "inner solver found no feasible allocation at e="
            f"{run.e:g}: {run.trace.failed_stats.infeasible_reason}")
    return run.finish()


def solve_many(instances: list[tuple[ChannelState, NetworkConfig]],
               inner: InnerSolver) -> list[DinkelbachTrace]:
    """``solve`` on several (ch, cfg) instances in lockstep: each round runs
    the next inner solve of every unfinished instance, each at its own e, in
    one ``inner.solve_many`` call.  Each trace equals ``solve``'s on its
    instance; where ``solve`` raises InfeasibleProblemError the trace has
    status "infeasible" and no final allocation."""
    runs = [_Outer(ch, cfg) for ch, cfg in instances]
    active = runs
    while active:
        results = inner.solve_many([(run.ch, run.cfg, run.e, run.warm_start())
                                    for run in active])
        for run, result in zip(active, results):
            run.take(result)
        active = [run for run in active if not run.done]
    return [run.finish() for run in runs]
