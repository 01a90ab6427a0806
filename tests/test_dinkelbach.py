import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcran_noma import dinkelbach, model
from hcran_noma.dinkelbach import InfeasibleProblemError, surplus
from hcran_noma.model import PowerAllocation
from hcran_noma.polyblock import PolyblockSolver
from hcran_noma.scale import ScaleSolver, SolveStats, InnerResult
from hcran_noma.scenarios import ARCHITECTURES, build_config, gen_channel, tiny_instance

from conftest import make_config, make_channel


class FixedInner:
    """Stub inner solver that always returns the same allocation."""

    def __init__(self, alloc):
        self.alloc = alloc
        self.calls = 0

    def solve_fixed_e(self, ch, cfg, e, warm_start=None):
        self.calls += 1
        alloc = self.alloc.copy()
        return InnerResult(alloc, "ok", SolveStats(),
                           model.energy_efficiency(alloc, ch, cfg))


class TestSurplus:
    def test_zero_at_own_ratio(self, small_cfg, small_channel):
        rng = np.random.default_rng(0)
        alloc = PowerAllocation(p=rng.uniform(0, 0.3, small_channel.gamma.shape))
        rep = model.energy_efficiency(alloc, small_channel, small_cfg)
        assert surplus(alloc, small_channel, small_cfg, rep.ee) == pytest.approx(0.0, abs=1e-9)

    def test_rate_at_zero(self, small_cfg, small_channel):
        rng = np.random.default_rng(1)
        alloc = PowerAllocation(p=rng.uniform(0, 0.3, small_channel.gamma.shape))
        assert surplus(alloc, small_channel, small_cfg, 0.0) == pytest.approx(
            model.weighted_sum_rate(alloc, small_channel, small_cfg))

    def test_strictly_decreasing_in_e(self, small_cfg, small_channel):
        rng = np.random.default_rng(2)
        alloc = PowerAllocation(p=rng.uniform(0, 0.3, small_channel.gamma.shape))
        s = [surplus(alloc, small_channel, small_cfg, e) for e in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(s, s[1:]))

    def test_negative_e_rejected(self, small_cfg, small_channel):
        with pytest.raises(ValueError):
            surplus(model.zeros_like_alloc(small_cfg), small_channel, small_cfg, -1.0)


class TestLemmaProperty:
    def test_sampled_pairs(self, small_cfg, small_channel):
        # for a fixed allocation the surplus is linear in e with slope -P < 0
        rng = np.random.default_rng(3)
        for _ in range(100):
            alloc = PowerAllocation(p=rng.uniform(0, 0.3, small_channel.gamma.shape))
            e_a, e_b = sorted(rng.uniform(0, 5, size=2))
            if e_a == e_b:
                continue
            assert (surplus(alloc, small_channel, small_cfg, e_a)
                    > surplus(alloc, small_channel, small_cfg, e_b))


class TestSolve:
    def test_degenerate_two_iterations(self, small_cfg, small_channel):
        rng = np.random.default_rng(4)
        fixed = PowerAllocation(p=rng.uniform(0.0, 0.3, small_channel.gamma.shape))
        inner = FixedInner(fixed)
        trace = dinkelbach.solve(small_channel, small_cfg, inner)
        rep = model.energy_efficiency(fixed, small_channel, small_cfg)
        assert trace.status == "converged"
        assert len(trace.iterations) <= 2
        assert trace.final_e == pytest.approx(rep.ee, rel=1e-9)
        # zero-surplus fixed point: returning the same allocation terminates
        assert trace.iterations[-1].surplus <= small_cfg.tolerances.xi

    def test_monotone_e_and_termination(self):
        cfg = make_config(m=2, k=4, n=3, streaming=(0,))
        ch = make_channel(cfg, seed=5)
        trace = dinkelbach.solve(ch, cfg, ScaleSolver())
        es = trace.e_values
        assert all(b > a for a, b in zip(es, es[1:]))
        assert -cfg.tolerances.xi <= trace.iterations[-1].surplus <= cfg.tolerances.xi
        assert trace.final_allocation is not None

    def test_infeasible_streaming_raises(self):
        # a sub-hertz subcarrier bandwidth makes the minimum rate absurd
        cfg = make_config(m=1, k=2, n=1, streaming=(0,), bandwidth=1e-3)
        ch = make_channel(cfg, seed=6)
        with pytest.raises(InfeasibleProblemError):
            dinkelbach.solve(ch, cfg, ScaleSolver())

    def test_cap_hit_flag(self, small_cfg, small_channel):
        from dataclasses import replace
        from hcran_noma.model import Tolerances

        class ImprovingInner:
            """Halves the transmit powers each call: in the interference
            dominated regime the rate barely moves while the power drops, so
            the ratio keeps improving and the loop can never see the surplus
            fall below an absurdly small tolerance."""

            def __init__(self):
                self.scale = 2.0

            def solve_fixed_e(self, ch, cfg, e, warm_start=None):
                self.scale *= 0.5
                alloc = PowerAllocation(p=cfg.p_mask * self.scale)
                return InnerResult(alloc, "ok", SolveStats(),
                                   model.energy_efficiency(alloc, ch, cfg))

        cfg = replace(small_cfg, tolerances=Tolerances(xi=1e-12, outer_max=3))
        trace = dinkelbach.solve(small_channel, cfg, ImprovingInner())
        assert trace.status == "cap"

    def test_matches_grid_oracle_on_tiny_instance(self):
        # brute-force ratio maximization over a 20-level power grid
        cfg = make_config(m=1, k=2, n=2, p_max=[1.0])
        ch = make_channel(cfg, seed=9, gamma_scale=1e-8)
        trace = dinkelbach.solve(ch, cfg, ScaleSolver())

        levels = 20
        axes = [np.linspace(0, cfg.p_mask.reshape(-1)[i], levels) for i in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        p = np.stack([m.reshape(-1) for m in mesh], axis=1).reshape(-1, 1, 2, 2)
        ok = p.sum(axis=(1, 2, 3)) <= cfg.p_max[0] * (1 + 1e-12)
        r = model.rate_array(p, ch).sum(axis=(1, 2, 3))
        power = cfg.static_power() + cfg.eta[0] * p.sum(axis=(1, 2, 3))
        best = np.max((r / power)[ok])
        assert trace.final_e >= best * 0.98


class TestGoldenLadder:
    """The benchmark ladder's three cold solves, pinned: a change that moves
    these results on purpose updates the pins and says why."""

    # (M, K, N): (final ratio, summed inner sweeps over the outer iterations)
    PINS = {(3, 12, 32): (90.73843553246901, 82),
            (3, 24, 64): (184.10451123519593, 773),
            (4, 32, 64): (161.76329675783992, 650)}

    @pytest.mark.parametrize("size", sorted(PINS), ids=lambda s: "m{}k{}n{}".format(*s))
    def test_pinned(self, size):
        m, k, n = size
        cfg = build_config("hcran", k_total=k, k_streaming=k // 4,
                           rng=np.random.default_rng(1), m_f=m - 1, n_subcarriers=n)
        trace = dinkelbach.solve(gen_channel(cfg, 1), cfg, ScaleSolver())
        final_e, sweeps = self.PINS[size]
        assert trace.final_e == pytest.approx(final_e, rel=1e-8)
        assert sum(it.inner_stats.total_sweeps for it in trace.iterations) == sweeps


class TestSolveProperties:
    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 2), k=st.integers(1, 4), n=st.integers(1, 3),
           n_streaming=st.integers(0, 2),
           bandwidth=st.sampled_from([1e3, 31250.0, 1e5]),
           seed=st.integers(0, 2**16))
    def test_feasible_or_infeasible_error(self, m, k, n, n_streaming, bandwidth, seed):
        cfg = make_config(m=m, k=k, n=n, streaming=tuple(range(min(n_streaming, k))),
                          bandwidth=bandwidth)
        ch = make_channel(cfg, seed=seed)
        try:
            trace = dinkelbach.solve(ch, cfg, ScaleSolver())
        except InfeasibleProblemError:
            return
        report = model.check_feasibility(trace.final_allocation, ch, cfg)
        assert report.ok, report
        es = trace.e_values
        assert all(e2 > e1 for e1, e2 in zip(es, es[1:])), es


INNER_SOLVERS = {"scale": ScaleSolver,
                 "polyblock": lambda: PolyblockSolver(max_iter=300)}


def _desk_instance():
    cfg = make_config(m=2, k=2, n=2, streaming=(0,))
    return cfg, make_channel(cfg, seed=7)


def _no_solve_work(monkeypatch):
    """Make any channel evaluation (a rate, a pair list) fail the test: the
    inputs must be rejected before it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solve started before its inputs were checked")

    monkeypatch.setattr(model, "per_user_rate", refuse)
    monkeypatch.setattr(model, "support_pairs", refuse)


class TestInnerInputs:
    @pytest.mark.parametrize("solver", sorted(INNER_SOLVERS))
    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_parameter_fails_first(self, monkeypatch, solver, e):
        cfg, ch = _desk_instance()
        _no_solve_work(monkeypatch)
        with pytest.raises(ValueError, match="efficiency parameter"):
            INNER_SOLVERS[solver]().solve_fixed_e(ch, cfg, e)

    @pytest.mark.parametrize("solver", sorted(INNER_SOLVERS))
    @pytest.mark.parametrize("case, match", [("shape", "shape"), ("nan", "finite"),
                                             ("inf", "finite"), ("negative", "non-negative")])
    def test_bad_warm_start_named(self, monkeypatch, solver, case, match):
        cfg, ch = _desk_instance()
        p = np.zeros(cfg.p_mask.shape)
        if case == "shape":
            p = np.zeros((2, 2, 3))
        elif case == "nan":
            p[...] = np.nan
        elif case == "inf":
            p[1, 1, 0] = np.inf
        else:
            p[0, 1, 1] = -1e-3
        _no_solve_work(monkeypatch)
        with pytest.raises(ValueError, match=f"warm start.*{match}"):
            INNER_SOLVERS[solver]().solve_fixed_e(ch, cfg, 0.5,
                                                  warm_start=PowerAllocation(p=p))


class TestInnerResultReport:
    """The report an inner solve returns is the evaluation of its allocation,
    and its objective is that report's surplus, both bit for bit."""

    def _assert_one_evaluation(self, res, ch, cfg, e):
        assert res.status == "ok"
        assert res.report == model.energy_efficiency(res.allocation, ch, cfg)
        assert res.stats.true_objective == model.surplus(res.allocation, ch, cfg, e)

    def test_scale_cold(self):
        cfg = make_config(m=2, k=4, n=3, streaming=(0,))
        ch = make_channel(cfg, seed=0)
        self._assert_one_evaluation(ScaleSolver().solve_fixed_e(ch, cfg, 0.4), ch, cfg, 0.4)

    @pytest.mark.parametrize("seed, kept", [(14, True), (0, False)])
    def test_scale_warm(self, seed, kept):
        # on these draws the warm solve at the cold result's ratio keeps the
        # warm start (seed 14) or replaces it with its own result (seed 0)
        cfg = make_config(m=2, k=4, n=3, streaming=(0,))
        ch = make_channel(cfg, seed=seed)
        cold = ScaleSolver().solve_fixed_e(ch, cfg, 0.0)
        e = cold.report.ee
        res = ScaleSolver().solve_fixed_e(ch, cfg, e, warm_start=cold.allocation)
        assert np.array_equal(res.allocation.p, cold.allocation.p) == kept
        self._assert_one_evaluation(res, ch, cfg, e)

    def test_polyblock(self):
        cfg, ch = _desk_instance()
        res = PolyblockSolver(max_iter=300).solve_fixed_e(ch, cfg, 0.5)
        self._assert_one_evaluation(res, ch, cfg, 0.5)

    def test_outer_loop_evaluates_nothing_itself(self, monkeypatch):
        # every dense rate evaluation of a Dinkelbach solve happens inside an
        # inner solve: the loop reads R and P from the inner results' reports
        calls = {"all": 0, "inner": 0}
        depth = [0]
        real_rates = model.per_user_rate

        def counted(*args, **kwargs):
            calls["all"] += 1
            calls["inner"] += depth[0] > 0
            return real_rates(*args, **kwargs)

        class CountingInner(ScaleSolver):
            def solve_fixed_e(self, *args, **kwargs):
                depth[0] += 1
                try:
                    return super().solve_fixed_e(*args, **kwargs)
                finally:
                    depth[0] -= 1

        monkeypatch.setattr(model, "per_user_rate", counted)
        cfg = build_config("hcran", k_total=12, k_streaming=3,
                           rng=np.random.default_rng(1), m_f=2, n_subcarriers=32)
        ch = gen_channel(cfg, 1)
        trace = dinkelbach.solve(ch, cfg, CountingInner())
        assert len(trace.iterations) > 1
        assert calls["inner"] == calls["all"] > 0
        assert trace.final_report == model.energy_efficiency(trace.final_allocation, ch, cfg)
        assert trace.final_e == trace.final_report.ee


@st.composite
def _batch(draw):
    """(ch, cfg) problems of mixed architectures and sizes, desk-scale ones
    (at most 16 cells, so several starts each) among them, and one
    infeasible problem at a drawn place."""
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        seed = draw(st.integers(0, 2**16))
        if draw(st.booleans()):
            k = draw(st.integers(2, 8))
            cfg = build_config(draw(st.sampled_from(ARCHITECTURES)), k_total=k,
                               k_streaming=draw(st.integers(0, k // 2)), rng=seed,
                               l_max=draw(st.integers(1, 3)),
                               n_subcarriers=draw(st.sampled_from([4, 8])))
            problems.append((gen_channel(cfg, seed), cfg))
        else:
            inst = tiny_instance(np.random.default_rng(seed))
            problems.append((inst.ch, inst.cfg))
    # absurd minimum rate at this bandwidth: no allocation meets it
    cfg = make_config(m=1, k=2, n=1, streaming=(0,), bandwidth=1e-3)
    problems.insert(draw(st.integers(0, len(problems))), (make_channel(cfg, seed=51), cfg))
    return problems


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN where both are unset


def _assert_same_inner(got, want):
    assert got.status == want.status
    assert got.allocation.p.tobytes() == want.allocation.p.tobytes()
    assert got.report == want.report
    for name in ("rounds", "total_sweeps", "round_objectives", "fixed_point_residual",
                 "budget_unbracketed", "true_objective", "infeasible_reason"):
        assert _same(getattr(got.stats, name), getattr(want.stats, name)), name


class TestLockstepBatches:
    """A batch solves each member exactly as a solve of its own would."""

    @settings(max_examples=15, deadline=None)
    @given(problems=_batch(), data=st.data())
    def test_scale_solve_many_equals_single_solves(self, problems, data):
        # each problem at a drawn e, from a warm start (a cold solve's
        # allocation at e = 0) where one is drawn and exists
        batch = []
        for ch, cfg in problems:
            e = data.draw(st.floats(0.0, 2.0))
            warm = None
            if data.draw(st.booleans()):
                cold = ScaleSolver().solve_fixed_e(ch, cfg, 0.0)
                warm = cold.allocation if cold.status == "ok" else None
            batch.append((ch, cfg, e, warm))
        results = ScaleSolver().solve_many(batch)
        assert len(results) == len(batch)
        for problem, got in zip(batch, results):
            _assert_same_inner(got, ScaleSolver().solve_fixed_e(*problem))

    @settings(max_examples=10, deadline=None)
    @given(problems=_batch())
    def test_dinkelbach_solve_many_equals_single_solves(self, problems):
        traces = dinkelbach.solve_many(problems, ScaleSolver())
        assert len(traces) == len(problems)
        for (ch, cfg), got in zip(problems, traces):
            try:
                want = dinkelbach.solve(ch, cfg, ScaleSolver())
            except InfeasibleProblemError:
                assert got.status == "infeasible" and got.final_allocation is None
                assert got.failed_stats.infeasible_reason is not None
                continue
            assert got.status == want.status
            assert got.e_values == want.e_values
            assert [it.surplus for it in got.iterations] == [it.surplus for it in want.iterations]
            assert got.final_allocation.p.tobytes() == want.final_allocation.p.tobytes()
            assert got.final_e == want.final_e and got.final_report == want.final_report
            for a, b in zip(got.iterations, want.iterations):
                for name in ("rounds", "total_sweeps", "round_objectives",
                             "fixed_point_residual", "budget_unbracketed"):
                    assert _same(getattr(a.inner_stats, name), getattr(b.inner_stats, name))

    def test_polyblock_solve_many_is_a_loop(self):
        rng = np.random.default_rng(3)
        insts = [tiny_instance(rng) for _ in range(3)]
        solver = PolyblockSolver(allow_high_dim=True, max_iter=50)
        got = solver.solve_many([(i.ch, i.cfg, i.e, None) for i in insts])
        for inst, res in zip(insts, got):
            want = solver.solve_fixed_e(inst.ch, inst.cfg, inst.e)
            assert res.status == want.status and res.report == want.report
            assert res.allocation.p.tobytes() == want.allocation.p.tobytes()

