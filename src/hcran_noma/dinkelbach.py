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

from . import model
from .model import ChannelState, NetworkConfig, PowerAllocation, surplus


class InfeasibleProblemError(RuntimeError):
    """The streaming constraints cannot be met by any allocation."""


class InnerSolver(Protocol):
    """Fixed-parameter subproblem solver: maximize R(p) - e*P(p) over the
    constraint set, starting from warm_start when given."""

    def solve_fixed_e(self, ch: ChannelState, cfg: NetworkConfig, e: float,
                      warm_start: PowerAllocation | None = None): ...


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
    status: str = "converged"  # "converged" | "cap" | "stalled"

    @property
    def e_values(self) -> list[float]:
        return [it.e for it in self.iterations]


def solve(ch: ChannelState, cfg: NetworkConfig, inner: InnerSolver) -> DinkelbachTrace:
    """Run the parametric iteration e_{i+1} = R(p_i)/P(p_i) until the surplus
    drops below the configured tolerance.

    Raises InfeasibleProblemError when the very first inner solve (e = 0, no
    warm start) reports infeasibility: no allocation meets the streaming
    constraints.  A cap hit returns the best allocation found, flagged.
    """
    tol = cfg.tolerances
    trace = DinkelbachTrace()
    e = 0.0
    warm: PowerAllocation | None = None

    for i in range(tol.outer_max):
        result = inner.solve_fixed_e(ch, cfg, e, warm_start=warm)
        if result.status != "ok":
            if warm is None:
                raise InfeasibleProblemError(
                    "inner solver found no feasible allocation at e="
                    f"{e:g}: {getattr(result.stats, 'infeasible_reason', None)}")
            trace.status = "stalled"
            break
        warm = result.allocation
        s = surplus(warm, ch, cfg, e)
        trace.iterations.append(DinkelbachIteration(e=e, surplus=s,
                                                    inner_stats=result.stats))
        report = model.energy_efficiency(warm, ch, cfg)
        if s <= tol.xi:
            trace.final_e = report.ee
            trace.final_allocation = warm
            trace.status = "converged"
            return trace
        if report.ee <= e:
            # no measurable ratio improvement; the surplus says otherwise only
            # through numerical noise
            trace.status = "stalled"
            break
        e = report.ee
    else:
        trace.status = "cap"

    if warm is None:
        raise InfeasibleProblemError("inner solver produced no allocation")
    trace.final_e = model.energy_efficiency(warm, ch, cfg).ee
    trace.final_allocation = warm
    return trace
