"""The three workloads: inputs, one round of operations, and output checks.

Every workload solves a fixed instance panel; ``--seed`` sets the order in
which a round visits it (README.md gives the measured reason).  A round is
the whole panel, so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import math
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import reference
from hcran_noma import dinkelbach, model, scenarios
from hcran_noma.polyblock import PolyblockSolver
from hcran_noma.scale import ScaleSolver

PANEL_SEED = 1
LADDER = ((3, 12, 32), (3, 24, 64), (4, 32, 64))
CAMPAIGN_ARCHS = ("hcran", "cran", "hcn", "hpn1")
CAMPAIGN_USERS = (8, 12, 16)
CAMPAIGN_DRAWS = 2
ORACLE_SIZES = tuple((m, k, n) for m in (1, 2) for k in (2, 3) for n in (1, 2))
REL_TOL = 1e-9


def size_tag(size) -> str:
    return "m{}k{}n{}".format(*size)


def workers() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


@dataclass
class Round:
    wall: float = 0.0
    step_seconds: list = field(default_factory=list)  # each timed step, failed ones too
    attempted: int = 0
    failed: int = 0
    op_seconds: list = field(default_factory=list)
    ee: list = field(default_factory=list)           # per solved operation
    fingerprint: list = field(default_factory=list)  # compared bit for bit
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def check_dinkelbach(ch, cfg, trace) -> list[str]:
    """Checks on one Dinkelbach solve against the reference evaluator."""
    out = []
    e = trace.e_values
    if any(b <= a for a, b in zip(e, e[1:])):
        out.append(f"e trace does not rise strictly: {e}")
    if trace.status == "converged" and trace.iterations[-1].surplus > cfg.tolerances.xi:
        out.append(f"converged with surplus {trace.iterations[-1].surplus} > xi")
    p = trace.final_allocation.p
    ee = reference.energy_efficiency(p, ch.gamma, ch.sigma, cfg)
    if not close(trace.final_e, ee):
        out.append(f"final EE {trace.final_e!r} != recomputed {ee!r}")
    out += reference.violations(p, ch.gamma, ch.sigma, cfg)
    report = model.check_feasibility(trace.final_allocation, ch, cfg)
    if not report.ok:
        out.append(f"check_feasibility: {report!r}")
    return out


class capture_solves:
    """Record (ch, cfg, trace) of every dinkelbach.solve call inside the
    block; outputs are passed through untouched."""

    def __enter__(self):
        self.calls = []
        self._original = dinkelbach.solve

        def solve(ch, cfg, inner, *args, **kwargs):
            trace = self._original(ch, cfg, inner, *args, **kwargs)
            self.calls.append((ch, cfg, trace))
            return trace

        dinkelbach.solve = solve
        return self

    def __exit__(self, *exc):
        dinkelbach.solve = self._original


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

class Ladder:
    """One cold Dinkelbach + ScaleSolver() solve per ladder size."""

    name = "ladder"

    def __init__(self, seed: int):
        self.order = [LADDER[i] for i in np.random.default_rng(seed).permutation(len(LADDER))]

    def build_inputs(self):
        out = []
        for m, k, n in self.order:
            cfg = scenarios.build_config("hcran", k_total=k, k_streaming=k // 4,
                                         rng=np.random.default_rng(PANEL_SEED),
                                         m_f=m - 1, n_subcarriers=n)
            out.append(((m, k, n), cfg, scenarios.gen_channel(cfg, PANEL_SEED)))
        return out

    def run_round(self, inputs, tracer=None, memory=False) -> Round:
        rnd = Round()
        t_round = time.perf_counter()
        for size, cfg, ch in inputs:
            if tracer is not None:
                tracer.tag = size_tag(size)
            if memory:
                tracemalloc.reset_peak()
            rnd.attempted += 1
            t0 = time.perf_counter()
            try:
                trace = dinkelbach.solve(ch, cfg, ScaleSolver())
            except dinkelbach.InfeasibleProblemError:
                rnd.step_seconds.append(time.perf_counter() - t0)
                rnd.failed += 1
                continue
            rnd.step_seconds.append(time.perf_counter() - t0)
            rnd.op_seconds.append(rnd.step_seconds[-1])
            if memory:
                rnd.extra.setdefault("peak_mb", {})[size_tag(size)] = (
                    tracemalloc.get_traced_memory()[1] / 2**20)
            rnd.ee.append(trace.final_e)
            rnd.fingerprint.append(trace.final_e)
            rnd.outputs.append((size, cfg, ch, trace))
        rnd.wall = time.perf_counter() - t_round
        if tracer is not None:
            tracer.tag = ""
        return rnd

    def check(self, inputs, rnd, traced=None) -> list[str]:
        out = []
        for size, cfg, ch, trace in rnd.outputs:
            out += [f"{size_tag(size)}: {p}" for p in check_dinkelbach(ch, cfg, trace)]
        return out


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def _campaign_scenarios(seed: int, n_workers: int) -> list:
    rng = np.random.default_rng(seed)
    base = [(arch, CAMPAIGN_USERS, 3) for arch in CAMPAIGN_ARCHS]
    base.append(("hcran", (12,), 1))  # orthogonal baseline: one user per subcarrier
    out = []
    for i in rng.permutation(len(base)):
        arch, users, l_max = base[i]
        out.append(scenarios.Scenario(
            architecture=arch, sweep="users", values=users, k_streaming=6,
            l_max=l_max, n_subcarriers=32, draws=CAMPAIGN_DRAWS, seed=PANEL_SEED,
            workers=n_workers, include_timing=True))
    return out


def _row_key(sc, value) -> str:
    return f"{sc.architecture}/l{sc.l_max}/k{int(value)}"


class capture_draws:
    """Record (scenario, DrawResult, solve calls) of every run_draw call
    inside the block, for checking after it."""

    def __enter__(self):
        self.draws = []
        self._original = scenarios.run_draw

        def run_draw(sc, value, draw):
            with capture_solves() as cap:
                res = self._original(sc, value, draw)
            self.draws.append((sc, res, cap.calls))
            return res

        scenarios.run_draw = run_draw
        return self

    def __exit__(self, *exc):
        scenarios.run_draw = self._original

    def checked(self) -> list:
        return [(_row_key(sc, res.value), res.draw, res.ee, check_draw(res, calls))
                for sc, res, calls in self.draws]


def check_draw(res, calls) -> list[str]:
    if not res.feasible:
        return []  # counted as a failed operation
    if len(calls) != 1:
        return [f"expected one solve per draw, saw {len(calls)}"]
    ch, cfg, trace = calls[0]
    out = check_dinkelbach(ch, cfg, trace)
    if res.ee != trace.final_e:
        out.append(f"draw EE {res.ee!r} != solve EE {trace.final_e!r}")
    return out


class Campaign:
    """The architecture-ordering campaign plus the orthogonal baseline,
    each point a run_sweep over a few draws through the process pool."""

    name = "campaign"

    def __init__(self, seed: int):
        self.seed = seed

    def build_inputs(self, n_workers: int | None = None):
        return _campaign_scenarios(self.seed, n_workers or workers())

    def run_round(self, inputs, tracer=None, memory=False) -> Round:
        rnd = Round()
        t_round = time.perf_counter()
        for sc in inputs:
            t0 = time.perf_counter()
            rows = scenarios.run_sweep(sc)
            rnd.step_seconds.append(time.perf_counter() - t0)
            for row in rows:
                rnd.attempted += row.n_draws
                rnd.failed += row.n_draws - row.n_feasible
                if row.n_feasible:
                    rnd.op_seconds.append(row.mean_wall_s)
                    rnd.ee += [row.mean_ee] * row.n_feasible
                rnd.fingerprint += [row.mean_ee, row.mean_rate, row.mean_power]
                rnd.outputs.append((_row_key(sc, row.value), row))
        rnd.wall = time.perf_counter() - t_round
        return rnd

    def draw_seconds(self, rnd) -> float:
        return sum(row.mean_wall_s * row.n_feasible for _, row in rnd.outputs)

    def check(self, inputs, rnd, traced=None) -> list[str]:
        """traced: (key, draw, ee, problems) of every draw, captured in the
        traced run.  Without it the draws of one sweep point, picked by the
        seed, are solved again in-process and checked."""
        if traced is None:
            points = sorted(((_row_key(sc, v), sc, v) for sc in inputs for v in sc.values),
                            key=lambda point: point[0])
            key, sc, value = points[self.seed % len(points)]
            with capture_draws() as capture:
                for draw in range(sc.draws):
                    scenarios.run_draw(sc, value, draw)
            traced = capture.checked()
            checked = {key}
        else:
            checked = {key for key, _ in rnd.outputs}
        by_row: dict = {}
        out = []
        for key, draw, ee, problems in traced:
            out += [f"{key} draw {draw}: {p}" for p in problems]
            if not math.isnan(ee):
                by_row.setdefault(key, []).append((draw, ee))
        for key, row in rnd.outputs:
            if key not in checked or row.n_feasible != row.n_draws:
                continue  # infeasible draws are counted as failed operations
            ees = [ee for _, ee in sorted(by_row.get(key, []))]
            if len(ees) != row.n_draws:
                out.append(f"{key}: {len(ees)} checked draws for {row.n_draws}")
            elif row.mean_ee != float(np.mean(ees)):
                out.append(f"{key}: row mean EE {row.mean_ee!r} != mean of draws "
                           f"{float(np.mean(ees))!r}")
        return out


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

class Oracle:
    """Optimality-gap study: a cold ScaleSolver().solve_fixed_e, then the
    polyblock oracle warm-started from it, on tiny instances."""

    name = "oracle"

    def __init__(self, seed: int):
        self.order = np.random.default_rng(seed).permutation(len(ORACLE_SIZES))

    def build_inputs(self):
        rng = np.random.default_rng(PANEL_SEED)
        panel = [scenarios.tiny_instance(rng, with_streaming=(k == 3),
                                         sizes=((m,), (k,), (n,)))
                 for m, k, n in ORACLE_SIZES]
        return [(ORACLE_SIZES[i], panel[i]) for i in self.order]

    def run_round(self, inputs, tracer=None, memory=False) -> Round:
        rnd = Round()
        t_round = time.perf_counter()
        for size, inst in inputs:
            rnd.attempted += 1
            t0 = time.perf_counter()
            local = ScaleSolver().solve_fixed_e(inst.ch, inst.cfg, inst.e)
            if local.status != "ok":
                rnd.step_seconds.append(time.perf_counter() - t0)
                rnd.failed += 1
                continue
            glob = PolyblockSolver(allow_high_dim=True, max_iter=400).solve_fixed_e(
                inst.ch, inst.cfg, inst.e, warm_start=local.allocation)
            rnd.step_seconds.append(time.perf_counter() - t0)
            rnd.op_seconds.append(rnd.step_seconds[-1])
            if glob.status != "ok":
                rnd.failed += 1
                continue
            lo, hi = local.stats.true_objective, glob.stats.true_objective
            rnd.extra.setdefault("ratio", []).append(lo / hi if hi > 0 else 1.0)
            rnd.ee.append(reference.energy_efficiency(
                local.allocation.p, inst.ch.gamma, inst.ch.sigma, inst.cfg))
            rnd.fingerprint += [lo, hi, glob.stats.upper_bound]
            rnd.outputs.append((size, inst, local, glob))
        rnd.wall = time.perf_counter() - t_round
        return rnd

    def check(self, inputs, rnd, traced=None) -> list[str]:
        out = []
        for size, inst, local, glob in rnd.outputs:
            tag = size_tag(size)
            ch, cfg, e = inst.ch, inst.cfg, inst.e
            p = local.allocation.p
            out += [f"{tag}: {v}" for v in reference.violations(p, ch.gamma, ch.sigma, cfg)]
            if not model.check_feasibility(local.allocation, ch, cfg).ok:
                out.append(f"{tag}: check_feasibility failed on the scale output")
            lo = local.stats.true_objective
            if not close(lo, reference.objective(p, ch.gamma, ch.sigma, cfg, e)):
                out.append(f"{tag}: scale objective {lo!r} != recomputed")
            hi = glob.stats.true_objective
            if not close(hi, reference.objective(glob.allocation.p, ch.gamma,
                                                 ch.sigma, cfg, e)):
                out.append(f"{tag}: polyblock objective {hi!r} != recomputed")
            if glob.stats.upper_bound < lo - REL_TOL * max(1.0, abs(lo)):
                out.append(f"{tag}: polyblock bound {glob.stats.upper_bound!r} "
                           f"< scale objective {lo!r}")
            if hi < lo - REL_TOL * max(1.0, abs(lo)):
                out.append(f"{tag}: global {hi!r} < local {lo!r}")
        return out


WORKLOADS = {w.name: w for w in (Ladder, Campaign, Oracle)}
