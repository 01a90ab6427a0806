"""Spans around the package's public functions, recorded from outside.

``Tracer.install()`` wraps each function at the name its callers look it up
by and ``Tracer.remove()`` puts the originals back.  A span holds its name,
start, end, parent span and the tag the workload set (the ladder size), and
spans stay in memory until the run writes them out.  Observers read the
returned objects for counts (outer iterations, sweeps, polyblock gaps).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from hcran_noma import dinkelbach, model, scale, scenarios
from hcran_noma.polyblock import PolyblockSolver
from hcran_noma.scale import ScaleSolver


def _warm_start(args, kwargs):
    # ScaleSolver.solve_fixed_e(self, ch, cfg, e, warm_start=None)
    return kwargs["warm_start"] if "warm_start" in kwargs else (
        args[4] if len(args) > 4 else None)


def _observe_solve(tracer, args, kwargs, out, dur):
    tracer.count("dinkelbach.outer_iterations", len(out.iterations))
    tracer.count("dinkelbach.converged", out.status == "converged")


def _observe_scale(tracer, args, kwargs, out, dur):
    warm = _warm_start(args, kwargs)
    tracer.count("scale.rounds", out.stats.rounds)
    tracer.count("scale.sweeps", out.stats.total_sweeps)
    if warm is None:
        tracer.count("scale.cold.s", dur)
    else:
        tracer.count("scale.warm.s", dur)
        tracer.count("scale.kept_warm", bool(np.array_equal(out.allocation.p, warm.p)))


def _observe_polyblock(tracer, args, kwargs, out, dur):
    st = out.stats
    tracer.count("polyblock.iterations", st.iterations)
    if out.status == "ok":
        tracer.count("polyblock.gap_rel_sum", st.gap / max(abs(st.true_objective), 1e-12))
        tracer.count("polyblock.solved", 1)


# (owner, attribute, span name, observer); class methods are wrapped on the
# class so every instance's calls are seen
TARGETS = (
    (scenarios, "build_config", "scenarios.build_config", None),
    (scenarios, "gen_channel", "scenarios.gen_channel", None),
    (scenarios, "run_sweep", "scenarios.run_sweep", None),
    (scenarios, "run_draw", "scenarios.run_draw", None),
    (scenarios, "tiny_instance", "scenarios.tiny_instance", None),
    (dinkelbach, "solve", "dinkelbach.solve", _observe_solve),
    (ScaleSolver, "solve_fixed_e", "scale.solve_fixed_e", _observe_scale),
    (scale, "coeffs_at", "scale.coeffs_at", None),
    (scale, "dual_update", "scale.dual_update", None),
    (model, "check_feasibility", "model.check_feasibility", None),
    (model, "energy_efficiency", "model.energy_efficiency", None),
    (model, "per_user_rate", "model.per_user_rate", None),
    (model, "rate_array", "model.rate_array", None),
    (model, "sinr_array", "model.sinr_array", None),
    (PolyblockSolver, "solve_fixed_e", "polyblock.solve_fixed_e", _observe_polyblock),
)


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, tag)
        self.counts: dict = defaultdict(float)  # (name, tag) -> value
        self.tag = ""
        self._stack: list[int] = []
        self._originals: list = []

    def count(self, name: str, value) -> None:
        self.counts[(name, self.tag)] += float(value)

    def _wrap(self, owner, attr, name, observe):
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.tag)
            if observe is not None:
                observe(tracer, args, kwargs, out, end - start)
            return out

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        for owner, attr, name, observe in TARGETS:
            self._wrap(owner, attr, name, observe)
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """(name, tag) -> {"s": busy seconds, "calls": n, "self": seconds not
        covered by child spans}."""
        child = defaultdict(float)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"s": 0.0, "calls": 0, "self": 0.0})
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            entry = out[(name, tag)]
            entry["s"] += end - start
            entry["calls"] += 1
            entry["self"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "tag": tag}) + "\n")
