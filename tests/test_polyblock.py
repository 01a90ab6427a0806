from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcran_noma import model
from hcran_noma.model import PowerAllocation
from hcran_noma.polyblock import DimensionGuardError, PolyblockSolver, _Boxes
from hcran_noma.scale import ScaleSolver
from hcran_noma.scenarios import grid_oracle, tiny_instance

from conftest import make_config, make_channel


def _objective(p, ch, cfg, e):
    alloc = PowerAllocation(p=p)
    return model.weighted_sum_rate(alloc, ch, cfg) - e * model.total_power(alloc, cfg)


def _seated_box(cfg, rng):
    """Random box [a, b] on a random exclusive seating, and a point in it."""
    m, k, n = cfg.p_mask.shape
    seated = np.zeros((m, k, n), dtype=bool)
    seated[rng.integers(0, m, size=k), np.arange(k), :] = True
    b = np.where(seated, rng.uniform(0.2, 1.0, (m, k, n)) * cfg.p_mask, 0.0)
    a = b * rng.uniform(0.0, 1.0, (m, k, n)) * (rng.uniform(size=(m, k, n)) < 0.7)
    return a, b, a + (b - a) * rng.uniform(0.0, 1.0, (m, k, n))


def _panel_instance(index):
    """One instance of the oracle panel: tiny_instance(default_rng(1)) drawn
    over (M, K, N) in {1,2} x {2,3} x {1,2}, with one streaming user when K = 3."""
    rng = np.random.default_rng(1)
    sizes = [(m, k, n) for m in (1, 2) for k in (2, 3) for n in (1, 2)]
    for m, k, n in sizes[:index + 1]:
        inst = tiny_instance(rng, with_streaming=(k == 3), sizes=((m,), (k,), (n,)))
    return inst


class TestBoxBound:
    def test_degenerate_box_bound_is_objective(self):
        cfg = make_config(m=2, k=3, n=2, streaming=(1,))
        ch = make_channel(cfg, seed=1)
        boxes = _Boxes(ch, cfg, 0.8)
        rng = np.random.default_rng(2)
        for _ in range(20):
            _, _, p = _seated_box(cfg, rng)
            bound, _ = boxes.evaluate(p[None], p[None])
            assert bound[0] == pytest.approx(_objective(p, ch, cfg, 0.8),
                                              rel=1e-9, abs=1e-9)

    def test_bound_sums_seated_entries_only(self):
        # an off-seat entry is 0 over the whole box and adds no
        # log2((sigma + I(b)) / (sigma + I(a))) term
        cfg = make_config(m=2, k=3, n=2)
        ch = make_channel(cfg, seed=4)
        boxes = _Boxes(ch, cfg, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, _ = _seated_box(cfg, rng)
            seated = b > 0
            floor_a = model.noise_floor(a, ch)[0]
            floor_b = model.noise_floor(b, ch)[0]
            terms = np.log2(floor_b + b * ch.gamma) - np.log2(floor_a)
            expected = (np.sum(cfg.weights[:, :, None] * terms, where=seated)
                        - 0.3 * model.total_power(PowerAllocation(p=a), cfg))
            bound, _ = boxes.evaluate(a[None], b[None])
            assert bound[0] == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_bound_dominates_points_in_box(self):
        # and pruning never drops a box holding a feasible point
        cfg = make_config(m=2, k=3, n=2, streaming=(0,))
        ch = make_channel(cfg, seed=8)
        boxes = _Boxes(ch, cfg, 0.7)
        rng = np.random.default_rng(9)
        kept = 0
        for _ in range(200):
            a, b, p = _seated_box(cfg, rng)
            bound, alive = boxes.evaluate(a[None], b[None])
            assert bound[0] >= _objective(p, ch, cfg, 0.7) - 1e-9
            if model.check_feasibility(PowerAllocation(p=p), ch, cfg).ok:
                assert alive[0]
                kept += 1
        assert kept > 10


class TestBranchAndBound:
    def test_single_entry_closes_gap(self):
        # one user on one subcarrier: the optimum is the clamped stationary point
        cfg = make_config(m=1, k=1, n=1)
        ch = make_channel(cfg, seed=3)
        e = 1.0
        res = PolyblockSolver(max_iter=3000).solve_fixed_e(ch, cfg, e)
        g, s = ch.gamma[0, 0, 0], ch.sigma[0, 0, 0]
        p_star = np.clip(1.0 / (e * cfg.eta[0] * np.log(2.0)) - s / g, 0.0, cfg.p_mask[0, 0, 0])
        best = _objective(np.full((1, 1, 1), p_star), ch, cfg, e)
        assert res.status == "ok"
        assert res.stats.iterations < 3000
        assert res.stats.gap <= 1e-4 * max(abs(best), 1.0)
        assert res.stats.upper_bound >= best - 1e-9
        assert res.stats.true_objective == pytest.approx(best, rel=1e-4)

    def test_bound_and_incumbent_monotone(self):
        inst = _panel_instance(5)
        bounds, values = [], []
        for budget in (25, 50, 100, 200, 400):
            res = PolyblockSolver(allow_high_dim=True, max_iter=budget).solve_fixed_e(
                inst.ch, inst.cfg, inst.e)
            bounds.append(res.stats.upper_bound)
            values.append(res.stats.true_objective)
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])), bounds
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:])), values
        assert bounds[-1] < bounds[0]

    def test_deterministic(self):
        inst = _panel_instance(6)
        runs = [PolyblockSolver(allow_high_dim=True, max_iter=150).solve_fixed_e(
            inst.ch, inst.cfg, inst.e) for _ in range(2)]
        assert np.array_equal(runs[0].allocation.p, runs[1].allocation.p)
        assert runs[0].stats.upper_bound == runs[1].stats.upper_bound

    def test_finds_more_than_local_on_panel(self):
        # the panel's (1, 3, 1) instance: scale stops at 22.039
        inst = _panel_instance(2)
        local = ScaleSolver().solve_fixed_e(inst.ch, inst.cfg, inst.e)
        assert local.stats.true_objective == pytest.approx(22.039, abs=1e-3)
        res = PolyblockSolver(allow_high_dim=True, max_iter=20_000).solve_fixed_e(
            inst.ch, inst.cfg, inst.e, warm_start=local.allocation)
        assert res.status == "ok"
        assert model.check_feasibility(res.allocation, inst.ch, inst.cfg).ok
        assert res.stats.true_objective > local.stats.true_objective + 0.1
        assert res.stats.upper_bound >= res.stats.true_objective

    def test_panel_gaps_at_400_boxes(self):
        # relative certified gaps of the slack-coordinate polyblock oracle it
        # replaced, at 400 iterations, on the seven panel instances scale solves
        old_gaps = [0.54, 0.80, 1.10, 1.15, 3.94, 2.79, 4.94]
        for index, old in zip(range(7), old_gaps):
            inst = _panel_instance(index)
            local = ScaleSolver().solve_fixed_e(inst.ch, inst.cfg, inst.e)
            res = PolyblockSolver(allow_high_dim=True, max_iter=400).solve_fixed_e(
                inst.ch, inst.cfg, inst.e, warm_start=local.allocation)
            assert res.stats.gap / abs(res.stats.true_objective) < old, index

    def test_no_feasible_point(self):
        # a streaming minimum rate no subcarrier can carry prunes every root box
        cfg = make_config(m=2, k=2, n=1, streaming=(0,), bandwidth=1e-3)
        ch = make_channel(cfg, seed=12)
        res = PolyblockSolver(max_iter=300).solve_fixed_e(ch, cfg, 0.0)
        assert res.status == "infeasible"
        assert res.stats.upper_bound == -np.inf
        assert res.stats.iterations == 0

    def test_seating_count_guard(self):
        cfg = make_config(m=3, k=8, n=1)
        ch = make_channel(cfg, seed=13)
        with pytest.raises(DimensionGuardError, match="head assignments"):
            PolyblockSolver(allow_high_dim=True).solve_fixed_e(ch, cfg, 0.1)


class TestOracleProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bound_covers_grid_and_local(self, seed):
        inst = tiny_instance(np.random.default_rng(seed))
        local = ScaleSolver().solve_fixed_e(inst.ch, inst.cfg, inst.e)
        res = PolyblockSolver(allow_high_dim=True, max_iter=200).solve_fixed_e(
            inst.ch, inst.cfg, inst.e,
            warm_start=local.allocation if local.status == "ok" else None)
        levels = max(2, int(2e4 ** (1.0 / inst.ch.gamma.size)))
        grid = grid_oracle(inst, levels=levels)
        bound = res.stats.upper_bound

        def slack(x):
            return 1e-9 * max(1.0, abs(x))

        assert bound >= grid - slack(grid)
        if local.status == "ok":
            assert bound >= local.stats.true_objective - slack(bound)
        if res.status == "ok":
            assert model.check_feasibility(res.allocation, inst.ch, inst.cfg).ok
            assert bound >= res.stats.true_objective
        else:
            assert local.status != "ok"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_infeasible_instance_reported(self, seed):
        inst = tiny_instance(np.random.default_rng(seed), with_streaming=True,
                             sizes=((1, 2), (2, 3), (1, 2)))
        # a 1 mHz subcarrier asks ~10^8 bit/s/Hz of the streaming user
        cfg = replace(inst.cfg, subcarrier_bandwidth=1e-3)
        res = PolyblockSolver(allow_high_dim=True, max_iter=200).solve_fixed_e(
            inst.ch, cfg, inst.e)
        assert res.status == "infeasible"
        assert res.stats.upper_bound == -np.inf


class TestSolverFacade:
    def test_dimension_guard(self):
        cfg = make_config(m=2, k=4, n=4)
        ch = make_channel(cfg, seed=10)
        with pytest.raises(DimensionGuardError):
            PolyblockSolver(max_dim=10).solve_fixed_e(ch, cfg, 0.1)
        # override flag accepted (budget kept tiny to stay fast)
        PolyblockSolver(max_dim=10, allow_high_dim=True,
                        max_iter=5).solve_fixed_e(ch, cfg, 0.1)

    def test_tiny_instance_beats_local_and_matches_grid(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 3:
            inst = tiny_instance(rng, with_streaming=False)
            if inst.cfg.n_rrh != 1 or inst.cfg.n_users * inst.cfg.n_subcarriers != 3:
                continue
            checked += 1
            s = ScaleSolver().solve_fixed_e(inst.ch, inst.cfg, inst.e)
            warm = s.allocation if s.status == "ok" else None
            poly = PolyblockSolver(allow_high_dim=True, max_iter=800)
            res = poly.solve_fixed_e(inst.ch, inst.cfg, inst.e, warm_start=warm)
            assert res.status == "ok"
            g = grid_oracle(inst, levels=50)
            scale_val = s.stats.true_objective
            assert res.stats.true_objective >= scale_val - 1e-9
            assert res.stats.true_objective >= g - 0.02 * max(abs(g), 1e-9)

    def test_infeasible_status(self):
        cfg = make_config(m=1, k=2, n=1, streaming=(0,), bandwidth=1e-3)
        ch = make_channel(cfg, seed=12)
        res = PolyblockSolver(allow_high_dim=True, max_iter=300).solve_fixed_e(
            ch, cfg, 0.0)
        assert res.status == "infeasible"
