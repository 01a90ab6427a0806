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
    status: str = "converged"  # "converged" | "cap" | "stalled"

    @property
    def e_values(self) -> list[float]:
        return [it.e for it in self.iterations]


def solve(ch: ChannelState, cfg: NetworkConfig, inner: InnerSolver) -> DinkelbachTrace:
    """Run the parametric iteration e_{i+1} = R(p_i)/P(p_i) until the surplus
    drops below the configured tolerance.  R(p_i) and P(p_i) are read from
    the inner result's report, so the loop evaluates nothing itself.

    Raises InfeasibleProblemError when the very first inner solve (e = 0, no
    warm start) reports infeasibility: no allocation meets the streaming
    constraints.  A cap hit returns the best allocation found, flagged.
    """
    tol = cfg.tolerances
    trace = DinkelbachTrace()
    e = 0.0
    last: InnerResult | None = None

    for _ in range(tol.outer_max):
        result = inner.solve_fixed_e(
            ch, cfg, e, warm_start=None if last is None else last.allocation)
        if result.status != "ok":
            if last is None:
                raise InfeasibleProblemError(
                    "inner solver found no feasible allocation at e="
                    f"{e:g}: {result.stats.infeasible_reason}")
            trace.status = "stalled"
            break
        last = result
        s = result.report.surplus(e)
        trace.iterations.append(DinkelbachIteration(e=e, surplus=s,
                                                    inner_stats=result.stats))
        if s <= tol.xi:
            trace.status = "converged"
            break
        if result.report.ee <= e:
            # no measurable ratio improvement; the surplus says otherwise only
            # through numerical noise
            trace.status = "stalled"
            break
        e = result.report.ee
    else:
        trace.status = "cap"

    trace.final_allocation, trace.final_report = last.allocation, last.report
    trace.final_e = last.report.ee
    return trace
