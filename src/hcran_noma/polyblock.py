"""Global oracle for the fixed-parameter problem: branch-and-bound in power
space over the exclusive seatings.

A seating puts user k on one head h_k, on every subcarrier, with every other
entry fixed at 0, so the one-serving-head constraint (C10) holds by
construction, and so does the multiplexing limit (C11) whenever K <= l_max.
On a seating, each seated entry's rate is a difference of increasing
functions of the power tensor, log2(sigma + I + p*gamma) - log2(sigma + I),
so the objective R(p) - e*P(p) is f+(p) - f-(p) with

    f+ = sum w*log2(sigma + I + p*gamma),  f- = sum w*log2(sigma + I) + e*P(p)

summed over the seated elastic entries.  Every point of a box [a, b] is worth
at most f+(b) - f-(a) (the difference-of-monotonic bound of Tuy, SIAM J.
Optim. 11(2), 2000; Bjornson & Jorswieck, Found. Trends Commun. Inf. Theory
9(2-3), 2013).  One best-first heap holds the root box [0, mask] of every
head assignment, so its top bound certifies the optimum over all of them.

A box is dropped when no point in it can be feasible: its lower corner
already exceeds a head's budget, a streaming user's rate bound over the box
is short of its minimum, both members of a pair carry power everywhere in it
while their cancellation margin stays positive, or (for K > l_max) its lower
corner powers more than l_max users on one (m, n).  A popped box is split at
the geometric mean of its widest coordinate in log scale, and its lower
corner is tried as an incumbent.

This oracle is for desk-scale instances: the heap starts with M**K boxes, so
solves with more head assignments than _MAX_SEATINGS are refused.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from . import model
from .dinkelbach import InnerResult, check_inner_inputs
from .model import ChannelState, ConfigError, NetworkConfig, PowerAllocation

# head assignments (M**K) above which no certificate is attempted
_MAX_SEATINGS = 4096
# stop once the certified gap is below this share of max(|incumbent|, 1)
_EPS_REL = 1e-4
# lower end of a coordinate's log-width, relative to its mask, while its
# lower corner is still 0
_LOG_FLOOR = 1e-9


class _Boxes:
    """Bound and pruning tests of one instance, for a batch of boxes given by
    their corners a, b (B, M, K, N); off-seat entries are 0 in both."""

    def __init__(self, ch: ChannelState, cfg: NetworkConfig, e: float):
        self.ch, self.cfg, self.e = ch, cfg, e
        self.elastic = cfg.elastic_mask()
        self.streaming = cfg.streaming_users()
        self.min_rates = cfg.min_rates()
        self.pairs = model.support_pairs(ch, np.ones(ch.gamma.shape, dtype=bool))

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bound, alive), both (B,)."""
        ch, cfg, tol = self.ch, self.cfg, self.cfg.tolerances
        (floor_a, floor_b), (cross_a, cross_b) = model.noise_floor(np.stack([a, b]), ch)
        w = cfg.weights[None, :, :, None] * (b > 0)
        plus = np.einsum("bmkn->bk", w * np.log2(floor_b + b * ch.gamma))
        rate = plus - np.einsum("bmkn->bk", w * np.log2(floor_a))  # (B, K)
        dyn = a[:, :, self.elastic, :].sum(axis=(2, 3)) @ cfg.eta
        bound = rate[:, self.elastic].sum(axis=1) - self.e * (cfg.static_power() + dyn)

        alive = np.all(a.sum(axis=(2, 3)) <= cfg.p_max * (1 + tol.box_rel_tol), axis=1)
        if self.streaming:
            short = self.min_rates[self.streaming] - tol.c13_rate_tol
            alive &= np.all(rate[:, self.streaming] >= short, axis=1)
        pairs = self.pairs
        a_s, a_w = pairs.sides(a)
        low = pairs.bracket(pairs.sides(cross_a)[0]) - pairs.g_s * pairs.sides(cross_b)[1]
        _, scale_hi = model.pair_margins(pairs, cross_b)
        alive &= ~np.any((a_s > 0) & (a_w > 0) & (low > tol.c14_rel_tol * scale_hi),
                         axis=1)
        if cfg.n_users > cfg.l_max:
            alive &= np.all((a > 0).sum(axis=2) <= cfg.l_max, axis=(1, 2))
        return bound, alive


@dataclass
class PolyStats:
    gap: float = float("nan")            # certified gap, upper_bound - objective
    upper_bound: float = float("nan")    # over every exclusive seating;
                                         # -inf when every box was pruned
    iterations: int = 0                  # popped boxes
    dim: int = 0                         # entries of one seating, K*N
    true_objective: float = float("nan")
    infeasible_reason: str | None = None


class DimensionGuardError(ConfigError):
    """Instance too large for the global oracle."""


class PolyblockSolver:
    """Global inner solver for desk-scale instances.  max_iter caps the
    popped boxes; max_dim guards one seating's K*N entries unless
    allow_high_dim is set."""

    def __init__(self, max_iter: int = 3000, max_dim: int = 24,
                 allow_high_dim: bool = False):
        self.max_iter = max_iter
        self.max_dim = max_dim
        self.allow_high_dim = allow_high_dim

    def solve_fixed_e(self, ch: ChannelState, cfg: NetworkConfig, e: float,
                      warm_start: PowerAllocation | None = None) -> InnerResult:
        check_inner_inputs(cfg, e, warm_start)
        m_count, k_count, n_count = ch.gamma.shape
        stats = PolyStats(dim=k_count * n_count)
        if m_count ** k_count > _MAX_SEATINGS:
            raise DimensionGuardError(
                f"{m_count}**{k_count} head assignments exceed the oracle's "
                f"limit of {_MAX_SEATINGS}")
        if stats.dim > self.max_dim and not self.allow_high_dim:
            raise DimensionGuardError(
                f"seating dimension {stats.dim} exceeds the guard "
                f"({self.max_dim}); pass allow_high_dim=True to override")

        boxes = _Boxes(ch, cfg, e)
        best_p, best_val, best_report = None, -np.inf, None

        def offer(p: np.ndarray) -> None:
            nonlocal best_p, best_val, best_report
            alloc = PowerAllocation(p=p)
            report = model.energy_efficiency(alloc, ch, cfg)
            val = report.surplus(e)
            if val > best_val and model.check_feasibility(alloc, ch, cfg).ok:
                best_p, best_val, best_report = p.copy(), val, report

        heap: list = []
        order = itertools.count()  # ties pop first-pushed first

        def push(a: np.ndarray, b: np.ndarray) -> None:
            bound, alive = boxes.evaluate(a, b)
            for i in np.nonzero(alive & (bound > best_val))[0]:
                heapq.heappush(heap, (-float(bound[i]), next(order), a[i], b[i]))

        if warm_start is not None:
            offer(warm_start.p)
        heads = np.array(list(itertools.product(range(m_count), repeat=k_count)))
        seated = heads[:, None, :, None] == np.arange(m_count)[None, :, None, None]
        roots = np.where(seated, cfg.p_mask, 0.0)
        push(np.zeros_like(roots), roots)

        floor = _LOG_FLOOR * cfg.p_mask
        while heap and stats.iterations < self.max_iter:
            if -heap[0][0] <= best_val + _EPS_REL * max(abs(best_val), 1.0):
                break
            _, _, a, b = heapq.heappop(heap)
            stats.iterations += 1
            offer(a)
            lo = np.maximum(a, floor)
            ratio = np.where(b > 0, b / lo, 0.0)  # log-width, exponentiated
            i = np.unravel_index(np.argmax(ratio), ratio.shape)
            mid = np.sqrt(lo[i] * b[i])
            b_left, a_right = b.copy(), a.copy()
            b_left[i] = a_right[i] = mid
            push(np.stack([a, a_right]), np.stack([b_left, b]))

        stats.upper_bound = max(-heap[0][0] if heap else -np.inf, best_val)
        if best_p is None:
            stats.infeasible_reason = ("no feasible point within the box budget"
                                       if heap else "every box was pruned")
            alloc = model.zeros_like_alloc(cfg)
            return InnerResult(alloc, "infeasible", stats,
                               model.energy_efficiency(alloc, ch, cfg))
        stats.true_objective = best_val
        stats.gap = stats.upper_bound - best_val
        return InnerResult(PowerAllocation(p=best_p), "ok", stats, best_report)
