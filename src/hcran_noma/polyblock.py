"""Global oracle for the fixed-parameter problem via monotonic optimization.

The subtractive objective R(p) - e*P(p) is a difference of increasing
functions of the power tensor: the log of each user's signal-plus-floor grows
with every power, and so does the log of the floor alone.  Splitting both the
objective and the non-monotone constraints this way, and buying out each
decreasing part with a box-bounded auxiliary variable, yields a canonical
monotonic program: maximize an increasing function over the intersection of a
downward-closed (normal) set and an upward-closed (co-normal) set inside a
hyper-rectangle.

The polyblock algorithm maintains a finite vertex set whose union of boxes
covers the feasible region.  Each step projects the best vertex onto the
normal set's upper boundary along the ray from the origin (bisection), tries
the projected point as an incumbent, and replaces the vertex with its
coordinate-wise reductions.  The best vertex value is a certified upper
bound, so the incumbent carries an optimality gap at every step.

This oracle is for desk-scale instances: the vertex count grows with
dimension, so solves are refused above a dimension guard by default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import model
from .model import (ChannelState, NetworkConfig, PowerAllocation,
                    cross_interference)

# bisection steps of each projection onto the normal set's boundary
_BISECT_ITER = 40
# live vertices kept; the lowest-bound ones beyond this are evicted
_VERTEX_CAP = 5000
# PolyblockSolver's stop: certified gap below this share of the objective's
# range over the box
_EPS_REL = 1e-2


@dataclass
class CanonicalProblem:
    """Max of an increasing objective over the intersection of a normal set
    and a co-normal set within [0, box].

    lift, when given, maps a normal-set point to a dominating normal-set
    point with the auxiliary coordinates raised to their largest admissible
    values (never decreases the objective).  vertex_bound, when given, is any
    valid upper bound on the objective over the feasible points dominated by
    a vertex; the solver ranks and prunes vertices by
    min(objective, vertex_bound), which tightens the certificate when the raw
    objective ignores coupling constraints between coordinates."""

    box: np.ndarray
    objective: Callable[[np.ndarray], float]
    in_normal: Callable[[np.ndarray], bool]
    in_conormal: Callable[[np.ndarray], bool]
    lift: Callable[[np.ndarray], np.ndarray] | None = None
    vertex_bound: Callable[[np.ndarray], float] | None = None


@dataclass
class PolyblockResult:
    status: str               # "optimal" | "budget" | "infeasible"
    point: np.ndarray | None  # best feasible point found
    value: float              # objective at that point (-inf when none)
    upper_bound: float        # certified bound from the live vertex set
    gap: float
    iterations: int
    evicted: bool             # vertex-cap evictions occurred: the gap remains
                              # a valid bound but may no longer shrink to eps


def project(problem: CanonicalProblem, vertex: np.ndarray) -> tuple[np.ndarray, float]:
    """Boundary point of the normal set along the ray 0 -> vertex.

    Returns (point, lam) with point = lam * vertex, lam the largest scale kept
    inside the normal set, found by bisection to 2^-_BISECT_ITER resolution.
    A vertex already inside the set projects to itself."""
    if problem.in_normal(vertex):
        return vertex.copy(), 1.0
    lo, hi = 0.0, 1.0
    if not problem.in_normal(np.zeros_like(vertex)):
        raise ValueError("the origin must belong to the normal set")
    for _ in range(_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if problem.in_normal(mid * vertex):
            lo = mid
        else:
            hi = mid
    return lo * vertex, lo


def polyblock_solve(problem: CanonicalProblem, eps: float,
                    max_iter: int = 3000,
                    initial: tuple[np.ndarray, float] | None = None,
                    trace: list | None = None) -> PolyblockResult:
    """Run the outer-approximation loop until the certified gap drops below
    eps or the iteration budget runs out.

    initial, when given, seeds the incumbent with a known feasible point.
    trace, when given, collects (iteration, upper bound, incumbent) rows."""
    box = np.asarray(problem.box, dtype=float)

    def bound_of(y: np.ndarray) -> float:
        b = problem.objective(y)
        if problem.vertex_bound is not None:
            b = min(b, problem.vertex_bound(y))
        return b

    verts: list[np.ndarray] = [box.copy()]
    fvals: list[float] = [bound_of(box)]
    inc_point: np.ndarray | None = None
    inc_val = -np.inf
    if initial is not None:
        inc_point, inc_val = initial[0].copy(), float(initial[1])
    evicted = False
    tiny = 1e-14 * (1.0 + np.abs(box))

    iterations = 0
    for iterations in range(1, max_iter + 1):
        if not verts:
            # outer approximation exhausted: every pruned region had its bound
            # at or below inc_val + eps, so the incumbent is eps-optimal
            if inc_point is None:
                return PolyblockResult("infeasible", None, -np.inf, -np.inf,
                                       0.0, iterations, evicted)
            return PolyblockResult("optimal", inc_point, inc_val,
                                   inc_val + eps, eps, iterations, evicted)
        i_best = int(np.argmax(fvals))
        bound = fvals[i_best]
        if trace is not None:
            trace.append((iterations, bound, inc_val))
        if bound <= inc_val + eps:
            return PolyblockResult("optimal", inc_point, inc_val, bound,
                                   max(bound - inc_val, 0.0), iterations, evicted)
        v = verts.pop(i_best)
        fvals.pop(i_best)
        if not problem.in_conormal(v):
            continue  # improper: no co-normal point fits under this vertex
        x, _ = project(problem, v)
        candidate = problem.lift(x) if problem.lift is not None else x
        if problem.in_conormal(candidate):
            val = problem.objective(candidate)
            if val > inc_val:
                inc_val, inc_point = val, candidate.copy()
        for i in np.nonzero(x < v - tiny)[0]:
            child = v.copy()
            child[i] = x[i]
            fc = bound_of(child)
            if fc <= inc_val + eps or not problem.in_conormal(child):
                continue
            verts.append(child)
            fvals.append(fc)
        if len(verts) > _VERTEX_CAP:
            order = np.argsort(fvals)[::-1][:_VERTEX_CAP]
            verts = [verts[j] for j in order]
            fvals = [fvals[j] for j in order]
            evicted = True

    bound = max(fvals) if fvals else inc_val
    status = "budget" if inc_point is not None else "infeasible"
    return PolyblockResult(status, inc_point, inc_val, bound,
                           max(bound - inc_val, 0.0), iterations, evicted)


# ---------------------------------------------------------------------------
# canonical form of the fixed-parameter allocation problem
# ---------------------------------------------------------------------------

class NomaCanonical:
    """Canonical monotonic form of max R(p) - e*P(p) over the relaxed
    constraint set, with translation back to power allocations.

    Coordinates: the flattened power tensor, one objective slack (buying out
    the decreasing part of the objective), one rate slack when streaming
    users exist, and one slack per retained cancellation constraint.
    Cancellation pairs whose margin is provably non-positive over the whole
    box are dropped together with their slack coordinate."""

    def __init__(self, ch: ChannelState, cfg: NetworkConfig, e: float):
        if e < 0:
            raise ValueError("the efficiency parameter must be non-negative")
        self.ch, self.cfg, self.e = ch, cfg, e
        m_count, k_count, n_count = ch.gamma.shape
        self.shape = (m_count, k_count, n_count)
        self.n_p = m_count * k_count * n_count
        self.elastic = cfg.elastic_mask()
        self.streaming = cfg.streaming_users()
        self.min_rates = cfg.min_rates()
        self.ell = cfg.l_max + 1

        strong_idx, weak_idx = ch.pairs
        # keep a pair only if its margin can turn positive somewhere in the box
        cm_s = ch.strong_side(cross_interference(cfg.p_mask, ch))
        can_violate = model.sic_bracket(ch, cm_s) > 0
        km, kq, kn = np.nonzero(can_violate)
        self.sic_m = km
        self.sic_n = kn
        self.sic_strong = strong_idx[km, kq, kn]
        self.sic_weak = weak_idx[km, kq, kn]
        self.n_sic = km.size

        self.has_rate_slack = bool(self.streaming)
        self.dim = self.n_p + 1 + int(self.has_rate_slack) + self.n_sic

        mask = cfg.p_mask
        self.q_minus_mask = self._q_minus(mask)
        self.q_minus_zero = self._q_minus(np.zeros(self.shape))
        self.s1_hi = self.q_minus_mask - self.q_minus_zero
        if self.has_rate_slack:
            self.qt_minus_mask = self._qt_minus(mask)
            self.qt_minus_zero = self._qt_minus(np.zeros(self.shape))
            self.s2_hi = self.qt_minus_mask - self.qt_minus_zero
        self.sic_plus_mask = self._sic_plus(mask)

        parts = [mask.ravel(), np.array([self.s1_hi])]
        if self.has_rate_slack:
            parts.append(np.array([self.s2_hi]))
        parts.append(self.sic_plus_mask)
        self.box = np.concatenate(parts)
        # membership tolerance, proportional to each bound's magnitude
        self._tol = 1e-9

    # -- coordinate helpers ---------------------------------------------------
    def power_of(self, y: np.ndarray) -> np.ndarray:
        return y[:self.n_p].reshape(self.shape)

    def split(self, y: np.ndarray):
        s1 = y[self.n_p]
        s2 = y[self.n_p + 1] if self.has_rate_slack else None
        s3 = y[self.n_p + 1 + int(self.has_rate_slack):]
        return self.power_of(y), s1, s2, s3

    # -- increasing building blocks -------------------------------------------
    def _floors(self, p: np.ndarray) -> np.ndarray:
        same = np.einsum("mikn,min->mkn", self.ch.stronger, p)
        return self.ch.sigma + self.ch.gamma * same + cross_interference(p, self.ch)

    # Every log term is normalized by its entry's noise power.  This shifts
    # the increasing and decreasing parts by the same constant (differences
    # are untouched) but keeps both anchored at zero for the zero allocation,
    # which shrinks the slack coordinate's box by hundreds of bits and with it
    # the bound the vertex set has to grind down.

    def _q_plus(self, p: np.ndarray) -> float:
        lifted = np.log2((self._floors(p) + p * self.ch.gamma) / self.ch.sigma)
        return float(np.sum(lifted[:, self.elastic, :]
                            * self.cfg.weights[:, self.elastic, None]))

    def _q_minus(self, p: np.ndarray) -> float:
        logs = np.log2(self._floors(p) / self.ch.sigma)
        dyn = p[:, self.elastic, :].sum(axis=(1, 2))
        power = self.cfg.static_power() + float(np.dot(self.cfg.eta, dyn))
        return float(np.sum(logs[:, self.elastic, :]
                            * self.cfg.weights[:, self.elastic, None])
                     + self.e * power)

    def _per_user_qs(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        floors = self._floors(p)
        plus = np.einsum("mk,mkn->k", self.cfg.weights,
                         np.log2((floors + p * self.ch.gamma) / self.ch.sigma))
        minus = np.einsum("mk,mkn->k", self.cfg.weights,
                          np.log2(floors / self.ch.sigma))
        return plus, minus

    def _qt_minus(self, p: np.ndarray) -> float:
        _, minus = self._per_user_qs(p)
        return float(minus[self.streaming].sum())

    def _qt_plus(self, p: np.ndarray) -> float:
        plus, minus = self._per_user_qs(p)
        total_minus = float(minus[self.streaming].sum())
        vals = [plus[k] + (total_minus - minus[k]) - self.min_rates[k]
                for k in self.streaming]
        return float(min(vals))

    def _sic_gathers(self, p: np.ndarray):
        cross = cross_interference(p, self.ch)
        ps = p[self.sic_m, self.sic_strong, self.sic_n]
        pw = p[self.sic_m, self.sic_weak, self.sic_n]
        cs = cross[self.sic_m, self.sic_strong, self.sic_n]
        cw = cross[self.sic_m, self.sic_weak, self.sic_n]
        gs = self.ch.gamma[self.sic_m, self.sic_strong, self.sic_n]
        gw = self.ch.gamma[self.sic_m, self.sic_weak, self.sic_n]
        ss = self.ch.sigma[self.sic_m, self.sic_strong, self.sic_n]
        sw = self.ch.sigma[self.sic_m, self.sic_weak, self.sic_n]
        return ps, pw, cs, cw, gs, gw, ss, sw

    def _sic_plus(self, p: np.ndarray) -> np.ndarray:
        """Increasing part of each kept pair's margin product (all summands
        positive monomials)."""
        ps, pw, cs, _, gs, gw, ss, _ = self._sic_gathers(p)
        return ps * pw * (gw * ss + gw * cs)

    def _sic_minus(self, p: np.ndarray) -> np.ndarray:
        ps, pw, _, cw, gs, _, _, sw = self._sic_gathers(p)
        return ps * pw * (gs * sw + gs * cw)

    # -- canonical interface ----------------------------------------------------
    def objective(self, y: np.ndarray) -> float:
        return self._q_plus(self.power_of(y)) + float(y[self.n_p])

    def in_normal(self, y: np.ndarray) -> bool:
        p, s1, s2, s3 = self.split(y)
        cfg = self.cfg
        tol = self._tol
        if np.any(p < 0) or np.any(p > cfg.p_mask * (1 + tol)):
            return False
        if np.any(p.sum(axis=(1, 2)) > cfg.p_max * (1 + tol)):
            return False
        m_count = p.shape[0]
        if m_count > 1:
            per_rrh_peak = p.max(axis=2)  # (M, K)
            top2 = np.sort(per_rrh_peak, axis=0)[-2:, :]
            if np.any(top2[0] * top2[1] > cfg.rho1 * (1 + tol)):
                return False
        if p.shape[1] >= self.ell:
            top = np.sort(p, axis=1)[:, -self.ell:, :]
            if np.any(top.prod(axis=1) > cfg.rho2 * (1 + tol)):
                return False
        scale1 = 1.0 + abs(self.q_minus_mask)
        if s1 + self._q_minus(p) > self.q_minus_mask + tol * scale1:
            return False
        if self.has_rate_slack:
            scale2 = 1.0 + abs(self.qt_minus_mask)
            if s2 + self._qt_minus(p) > self.qt_minus_mask + tol * scale2:
                return False
        if self.n_sic:
            bound = self.sic_plus_mask
            if np.any(self._sic_plus(p) + s3 > bound + tol * (1.0 + bound)):
                return False
        return True

    def in_conormal(self, y: np.ndarray) -> bool:
        p, s1, s2, s3 = self.split(y)
        tol = self._tol
        if np.any(p < -tol * self.cfg.max_mask) or s1 < -tol * (1.0 + self.s1_hi):
            return False
        if self.has_rate_slack:
            scale2 = 1.0 + abs(self.qt_minus_mask)
            if self._qt_plus(p) + s2 < self.qt_minus_mask - tol * scale2:
                return False
        if self.n_sic:
            bound = self.sic_plus_mask
            if np.any(self._sic_minus(p) + s3 < bound - tol * (1.0 + bound)):
                return False
        return True

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Raise every slack to its largest normal-set-admissible value at
        this power point; feasibility of the lifted point in the co-normal
        set is then equivalent to feasibility of p in the original problem."""
        p = self.power_of(y)
        parts = [p.ravel(), np.array([self.q_minus_mask - self._q_minus(p)])]
        if self.has_rate_slack:
            parts.append(np.array([self.qt_minus_mask - self._qt_minus(p)]))
        parts.append(self.sic_plus_mask - self._sic_plus(p))
        return np.concatenate(parts)

    def embed(self, p: np.ndarray) -> np.ndarray:
        """Canonical point (with tight slacks) representing an allocation."""
        pad = np.zeros(self.dim - self.n_p)
        return self.lift(np.concatenate([p.ravel(), pad]))

    def vertex_bound(self, y: np.ndarray) -> float:
        """Upper bound on the objective over feasible points below y.

        Feasibility couples the objective slack to the powers
        (s1 <= q_minus(mask) - q_minus(p)), so for any feasible point under y
        the objective is at most R(p) - e*P(p) + q_minus(mask); bounding the
        rate by its interference-free value at the vertex powers and the
        power draw by the static floor gives a cheap valid dominator."""
        p = self.power_of(y)
        clean = np.log2(1.0 + p * self.ch.gamma / self.ch.sigma)
        rate = float(np.sum(clean[:, self.elastic, :]
                            * self.cfg.weights[:, self.elastic, None]))
        return rate - self.e * self.cfg.static_power() + self.q_minus_mask

    def problem(self) -> CanonicalProblem:
        return CanonicalProblem(box=self.box, objective=self.objective,
                                in_normal=self.in_normal,
                                in_conormal=self.in_conormal, lift=self.lift,
                                vertex_bound=self.vertex_bound)

    # -- translation back --------------------------------------------------------
    def value_original(self, p: np.ndarray) -> float:
        alloc = PowerAllocation(p=p)
        return (model.weighted_sum_rate(alloc, self.ch, self.cfg)
                - self.e * model.total_power(alloc, self.cfg))

    @property
    def offset(self) -> float:
        """Canonical objective = original objective + this constant at lifted
        points."""
        return self.q_minus_mask


def canonicalize(ch: ChannelState, cfg: NetworkConfig, e: float) -> NomaCanonical:
    """Build the canonical monotonic form for a fixed efficiency parameter."""
    return NomaCanonical(ch, cfg, e)


# ---------------------------------------------------------------------------
# inner-solver facade
# ---------------------------------------------------------------------------

@dataclass
class PolyStats:
    status: str = "ok"
    gap: float = float("nan")            # certified gap, original units
    upper_bound: float = float("nan")    # original units
    poly_status: str = ""
    iterations: int = 0
    dim: int = 0
    evicted: bool = False
    true_objective: float = float("nan")
    wall_time: float = 0.0
    infeasible_reason: str | None = None
    gap_trace: list = field(default_factory=list)


@dataclass
class PolyblockResultBundle:
    allocation: PowerAllocation
    status: str
    stats: PolyStats


class DimensionGuardError(ValueError):
    """Instance too large for the global oracle (override deliberately)."""


class PolyblockSolver:
    """Global inner solver.  Use on desk-scale instances only: the canonical
    dimension is the power-tensor size plus the slack coordinates, and vertex
    growth is exponential in practice."""

    def __init__(self, max_iter: int = 3000, max_dim: int = 24,
                 allow_high_dim: bool = False):
        self.max_iter = max_iter
        self.max_dim = max_dim
        self.allow_high_dim = allow_high_dim

    def solve_fixed_e(self, ch: ChannelState, cfg: NetworkConfig, e: float,
                      warm_start: PowerAllocation | None = None) -> PolyblockResultBundle:
        t0 = time.perf_counter()
        canon = canonicalize(ch, cfg, e)
        stats = PolyStats(dim=canon.dim)
        if canon.dim > self.max_dim and not self.allow_high_dim:
            raise DimensionGuardError(
                f"canonical dimension {canon.dim} exceeds the guard "
                f"({self.max_dim}); pass allow_high_dim=True to override")

        problem = canon.problem()
        f_box = canon.objective(canon.box)
        f_zero = canon.objective(np.zeros(canon.dim))
        eps = _EPS_REL * max(f_box - f_zero, 1e-12)
        initial = None
        if warm_start is not None:
            y0 = canon.embed(warm_start.p)
            if problem.in_normal(y0) and problem.in_conormal(y0):
                initial = (y0, canon.objective(y0))
        res = polyblock_solve(problem, eps, max_iter=self.max_iter, initial=initial,
                              trace=stats.gap_trace)
        stats.poly_status = res.status
        stats.iterations = res.iterations
        stats.evicted = res.evicted
        stats.wall_time = time.perf_counter() - t0
        if res.point is None:
            stats.status = "infeasible"
            stats.infeasible_reason = "no point found in the feasible intersection"
            return PolyblockResultBundle(model.zeros_like_alloc(cfg), "infeasible", stats)
        p = canon.power_of(res.point).copy()
        alloc = PowerAllocation(p=p)
        alloc.rho, alloc.a = model.derive_binaries(alloc, cfg)
        stats.true_objective = canon.value_original(p)
        stats.upper_bound = res.upper_bound - canon.offset
        stats.gap = max(stats.upper_bound - stats.true_objective, 0.0)
        return PolyblockResultBundle(alloc, "ok", stats)
