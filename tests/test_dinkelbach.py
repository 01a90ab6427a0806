import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcran_noma import dinkelbach, model
from hcran_noma.dinkelbach import InfeasibleProblemError, surplus
from hcran_noma.model import PowerAllocation
from hcran_noma.scale import ScaleSolver, SolveStats, InnerResult
from hcran_noma.scenarios import build_config, gen_channel

from conftest import make_config, make_channel


class FixedInner:
    """Stub inner solver that always returns the same allocation."""

    def __init__(self, alloc):
        self.alloc = alloc
        self.calls = 0

    def solve_fixed_e(self, ch, cfg, e, warm_start=None):
        self.calls += 1
        return InnerResult(self.alloc.copy(), "ok", SolveStats())


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
                p = cfg.p_mask * self.scale
                return InnerResult(PowerAllocation(p=p), "ok", SolveStats())

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
