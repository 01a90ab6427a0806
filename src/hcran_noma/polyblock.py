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

The bound and the tests read a box's two corners only.  The lower corner
gives sum w*log2(floor(a)), the dynamic power, the budget and l_max tests
and its side of each pair's margin; the upper corner gives
sum w*log2(floor(b) + b*gamma) and the other side.  The weights
w = weights*(b > 0) are the same for every box of one seating, since a
split never empties a coordinate.  A split's left child [a, b'] keeps its
parent's lower corner and its right child [a', b] the upper one, so each
corner's data is computed once and each split adds two corners.  When the
top box's children are not known yet, those of up to _BATCH top boxes are
computed in one batch (one noise_floor call) and stored on them.  Pops then
replay the one-box loop exactly: the stop test before each pop, the popped
box's lower corner offered, its stored children pushed if their bound beats
the incumbent as it stands then, max_iter counting pops.  A child depends on
its parent alone, so computing it ahead changes no number.  Since the
incumbent never falls, a lower corner is offered once: a left child keeps
its parent's, every root has the zero corner, and seatings that share a
user's head can split to the same corner.  A new one is tried exactly
(energy_efficiency and check_feasibility) only when its batched surplus,
within rounding of the exact one, can beat the incumbent.

This oracle is for desk-scale instances: the heap starts with M**K boxes, so
solves with more head assignments than _MAX_SEATINGS are refused.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

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
# top boxes whose children one batch computes; on the oracle panel the
# batch count stops falling past 16 while unused splits keep growing
_BATCH = 16
# a lower corner is tried exactly only when its batched surplus is within
# this share of max(|surplus|, 1) of the incumbent or above it; the batched
# surplus is within rounding of the exact one, far inside this band
_SCREEN_REL = 1e-9


def _unexpanded_tops(heap: list, count: int) -> list:
    """The boxes without children among the heap's top count, best first;
    the heap's pop order is unchanged, its keys being distinct."""
    tops = [heapq.heappop(heap) for _ in range(min(count, len(heap)))]
    for entry in tops:
        heapq.heappush(heap, entry)
    return [box for _, _, box in tops if box.children is None]


class _Lower(NamedTuple):
    """Data of lower corners a, one row per corner, read by the bound and
    the pruning tests of every box with that lower corner."""

    minus: np.ndarray    # (B, K) sum of w*log2(floor(a)), w the box's seating weights
    dyn: np.ndarray      # (B,) amplifier power of the elastic users
    ok: np.ndarray       # (B,) within every head's budget and the l_max limit
    powered: np.ndarray  # (B, L) both members of the pair carry power
    bracket: np.ndarray  # (B, L) kept part of each pair's margin at a
    screen: np.ndarray   # (B,) R(a) - e*P(a), within rounding of model.surplus


class _Upper(NamedTuple):
    """Data of upper corners b, one row per corner."""

    plus: np.ndarray     # (B, K) sum of w*log2(floor(b) + b*gamma)
    weak: np.ndarray     # (B, L) g_s times the cross interference at the weak member
    scale: np.ndarray    # (B, L) scale of each pair's margin at b


def _gather(rows):
    """One corner batch of rows (batch, j) of other corner batches."""
    return type(rows[0][0])(*(np.array([batch[f][j] for batch, j in rows])
                              for f in range(len(rows[0][0]))))


def _concat(first, second):
    """Two corner batches as one, first's rows first."""
    return type(first)(*map(np.concatenate, zip(first, second)))


class _Box:
    """A box [a, b] on one seating, its corners' data as (batch, row), and
    its children once they are computed: (bound, box) of those no test
    prunes, left before right."""

    __slots__ = ("a", "b", "low", "up", "children")

    def __init__(self, a, b, low, up):
        self.a, self.b, self.low, self.up = a, b, low, up
        self.children = None


class _Corners:
    """Bound, pruning tests and split of one instance.  A box's bound and
    tests read the data of its two corners only, and the two children of a
    split each keep one corner of their parent, so every corner's data is
    computed once, for a batch of corners at a time."""

    def __init__(self, ch: ChannelState, cfg: NetworkConfig, e: float):
        self.ch, self.cfg, self.e = ch, cfg, e
        self.elastic = cfg.elastic_mask()
        self.streaming = cfg.streaming_users()
        self.short = cfg.min_rates()[self.streaming] - cfg.tolerances.c13_rate_tol
        self.static = cfg.static_power()
        self.pairs = model.support_pairs(ch, np.ones(ch.gamma.shape, dtype=bool))
        self.floor = _LOG_FLOOR * cfg.p_mask

    def corners(self, a: np.ndarray, b: np.ndarray) -> tuple[_Lower, _Upper]:
        """Data of lower corners a and upper corners b, both (B, M, K, N),
        row i of each on the seating b[i] > 0; off-seat entries are 0."""
        ch, cfg, pairs = self.ch, self.cfg, self.pairs
        both = np.stack([a, b])
        (floor_a, floor_b), (cross_a, cross_b) = model.noise_floor(both, ch)
        w = cfg.weights[None, :, :, None] * (b > 0)
        # one matmul over both corners' rows: numpy gives a single row to a
        # dot kernel whose sum can differ in the last bit
        dyn = (both[:, :, :, self.elastic, :].sum(axis=(3, 4)).reshape(-1, len(cfg.eta))
               @ cfg.eta)[:len(a)]
        ok = np.all(a.sum(axis=(2, 3)) <= cfg.p_max * (1 + cfg.tolerances.box_rel_tol), axis=1)
        if cfg.n_users > cfg.l_max:
            ok &= np.all((a > 0).sum(axis=2) <= cfg.l_max, axis=(1, 2))
        a_s, a_w = pairs.sides(a)
        rate = np.einsum("mk,bmkn->bk", cfg.weights, np.log2(1.0 + a * ch.gamma / floor_a))
        low = _Lower(minus=np.einsum("bmkn->bk", w * np.log2(floor_a)), dyn=dyn, ok=ok,
                     powered=(a_s > 0) & (a_w > 0),
                     bracket=pairs.bracket(pairs.sides(cross_a)[0]),
                     screen=rate[:, self.elastic].sum(axis=1) - self.e * (self.static + dyn))
        up = _Upper(plus=np.einsum("bmkn->bk", w * np.log2(floor_b + b * ch.gamma)),
                    weak=pairs.g_s * pairs.sides(cross_b)[1],
                    scale=model.pair_margins(pairs, cross_b)[1])
        return low, up

    def evaluate(self, low: _Lower, up: _Upper) -> tuple[np.ndarray, np.ndarray]:
        """(bound, alive), both (B,), of the boxes with these corners."""
        tol = self.cfg.tolerances
        rate = up.plus - low.minus  # (B, K)
        bound = rate[:, self.elastic].sum(axis=1) - self.e * (self.static + low.dyn)
        # a powered pair whose cancellation margin stays positive over the box
        broken = low.powered & (low.bracket - up.weak > tol.c14_rel_tol * up.scale)
        alive = low.ok & ~np.any(broken, axis=1)
        if self.streaming:
            alive &= np.all(rate[:, self.streaming] >= self.short, axis=1)
        return bound, alive

    def expand(self, parents: list[_Box]) -> None:
        """Split each parent at the geometric mean of its widest coordinate
        in log scale and store its children on it.  The left child keeps the
        parent's lower corner, the right one its upper corner, so one batch
        computes the two new corners of every split."""
        count = len(parents)
        a, b = np.array([x.a for x in parents]), np.array([x.b for x in parents])
        lo = np.maximum(a, self.floor).reshape(count, -1)
        flat_b = b.reshape(count, -1)
        ratio = np.where(flat_b > 0, flat_b / lo, 0.0)  # log-width, exponentiated
        rows, i = np.arange(count), np.argmax(ratio, axis=1)
        mid = np.sqrt(lo[rows, i] * flat_b[rows, i])
        b_left, a_right = b.copy(), a.copy()
        b_left.reshape(count, -1)[rows, i] = mid
        a_right.reshape(count, -1)[rows, i] = mid
        new_low, new_up = self.corners(a_right, b_left)
        bound, alive = self.evaluate(
            _concat(_gather([x.low for x in parents]), new_low),
            _concat(new_up, _gather([x.up for x in parents])))
        for j, parent in enumerate(parents):
            left = _Box(parent.a, b_left[j], parent.low, (new_up, j))
            right = _Box(a_right[j], parent.b, (new_low, j), parent.up)
            parent.children = [(float(bound[c]), child) for c, child
                               in ((j, left), (count + j, right)) if alive[c]]


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
        if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
                or max_iter < 0):
            raise ConfigError(f"max_iter must be a non-negative whole number of "
                              f"boxes, got {max_iter!r}")
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

        corners = _Corners(ch, cfg, e)
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

        if warm_start is not None:
            offer(warm_start.p)
        heads = np.array(list(itertools.product(range(m_count), repeat=k_count)))
        seated = heads[:, None, :, None] == np.arange(m_count)[None, :, None, None]
        roots = np.where(seated, cfg.p_mask, 0.0)
        zeros = np.zeros_like(roots)
        low, up = corners.corners(zeros, roots)
        bound, alive = corners.evaluate(low, up)
        for i in np.nonzero(alive & (bound > best_val))[0]:
            box = _Box(zeros[i], roots[i], (low, i), (up, i))
            heapq.heappush(heap, (-float(bound[i]), next(order), box))

        # Replays the one-box loop: pop the top box, offer its lower corner,
        # push its children that beat the incumbent.  A box's children depend
        # on the box alone, so they are computed ahead, a batch of top boxes
        # at a time.  The incumbent never falls, so a lower corner offered or
        # screened out before cannot change it and is skipped.
        tried: set[bytes] = set()
        while heap and stats.iterations < self.max_iter:
            if -heap[0][0] <= best_val + _EPS_REL * max(abs(best_val), 1.0):
                break
            if heap[0][2].children is None:
                pops_left = self.max_iter - stats.iterations
                corners.expand(_unexpanded_tops(heap, min(_BATCH, pops_left)))
            _, _, box = heapq.heappop(heap)
            stats.iterations += 1
            key = box.a.tobytes()
            if key not in tried:
                tried.add(key)
                lows, j = box.low
                screen = float(lows.screen[j])
                if screen > best_val - _SCREEN_REL * max(abs(screen), 1.0):
                    offer(box.a)
            for child_bound, child in box.children:
                if child_bound > best_val:
                    heapq.heappush(heap, (-child_bound, next(order), child))

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

    def solve_many(self, problems: list[tuple[ChannelState, NetworkConfig, float,
                                              PowerAllocation | None]]
                   ) -> list[InnerResult]:
        """``solve_fixed_e`` on each (ch, cfg, e, warm_start) in turn: the
        branch-and-bound has nothing to share between problems."""
        return [self.solve_fixed_e(*problem) for problem in problems]
