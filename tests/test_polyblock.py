import heapq
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcran_noma import model, polyblock
from hcran_noma.dinkelbach import InnerResult
from hcran_noma.model import ConfigError, PowerAllocation
from hcran_noma.polyblock import (DimensionGuardError, PolyblockSolver, PolyStats,
                                  _Corners)
from hcran_noma.scale import ScaleSolver
from hcran_noma.scenarios import TinyInstance, grid_oracle, tiny_instance

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


# ---------------------------------------------------------------------------
# the one-box loop: the reference that the batched solve replays
# ---------------------------------------------------------------------------

class _ReferenceBoxes:
    """Bound and pruning tests of one instance, for a batch of boxes given by
    their corners a, b (B, M, K, N); off-seat entries are 0 in both."""

    def __init__(self, ch, cfg, e):
        self.ch, self.cfg, self.e = ch, cfg, e
        self.elastic = cfg.elastic_mask()
        self.streaming = cfg.streaming_users()
        self.min_rates = cfg.min_rates()
        self.pairs = model.support_pairs(ch, np.ones(ch.gamma.shape, dtype=bool))

    def evaluate(self, a, b):
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


def _reference_solve(ch, cfg, e, warm_start=None, max_iter=3000):
    """PolyblockSolver(allow_high_dim=True, max_iter).solve_fixed_e as one
    box at a time: pop the top box, offer its lower corner, evaluate and
    push its two children."""
    m_count, k_count, n_count = ch.gamma.shape
    stats = PolyStats(dim=k_count * n_count)
    boxes = _ReferenceBoxes(ch, cfg, e)
    best_p, best_val, best_report = None, -np.inf, None

    def offer(p):
        nonlocal best_p, best_val, best_report
        alloc = PowerAllocation(p=p)
        report = model.energy_efficiency(alloc, ch, cfg)
        val = report.surplus(e)
        if val > best_val and model.check_feasibility(alloc, ch, cfg).ok:
            best_p, best_val, best_report = p.copy(), val, report

    heap = []
    order = itertools.count()

    def push(a, b):
        bound, alive = boxes.evaluate(a, b)
        for i in np.nonzero(alive & (bound > best_val))[0]:
            heapq.heappush(heap, (-float(bound[i]), next(order), a[i], b[i]))

    if warm_start is not None:
        offer(warm_start.p)
    heads = np.array(list(itertools.product(range(m_count), repeat=k_count)))
    seated = heads[:, None, :, None] == np.arange(m_count)[None, :, None, None]
    roots = np.where(seated, cfg.p_mask, 0.0)
    push(np.zeros_like(roots), roots)

    floor = polyblock._LOG_FLOOR * cfg.p_mask
    while heap and stats.iterations < max_iter:
        if -heap[0][0] <= best_val + polyblock._EPS_REL * max(abs(best_val), 1.0):
            break
        _, _, a, b = heapq.heappop(heap)
        stats.iterations += 1
        offer(a)
        lo = np.maximum(a, floor)
        ratio = np.where(b > 0, b / lo, 0.0)
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
        return InnerResult(alloc, "infeasible", stats, model.energy_efficiency(alloc, ch, cfg))
    stats.true_objective = best_val
    stats.gap = stats.upper_bound - best_val
    return InnerResult(PowerAllocation(p=best_p), "ok", stats, best_report)


def _assert_replays_reference(ch, cfg, e, warm_start=None, max_iter=3000):
    res = PolyblockSolver(allow_high_dim=True, max_iter=max_iter).solve_fixed_e(
        ch, cfg, e, warm_start=warm_start)
    ref = _reference_solve(ch, cfg, e, warm_start, max_iter)
    assert res.status == ref.status
    assert res.stats.iterations == ref.stats.iterations
    for name in ("upper_bound", "gap", "true_objective"):
        got, want = getattr(res.stats, name), getattr(ref.stats, name)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (name, got, want)
    assert res.stats.infeasible_reason == ref.stats.infeasible_reason
    assert res.report == ref.report
    assert res.allocation.p.tobytes() == ref.allocation.p.tobytes()
    return res


def _box_bound(corners, a, b):
    """(bound, alive) of the one box [a, b]."""
    bound, alive = corners.evaluate(*corners.corners(a[None], b[None]))
    return bound[0], alive[0]


class TestBoxBound:
    def test_degenerate_box_bound_is_objective(self):
        cfg = make_config(m=2, k=3, n=2, streaming=(1,))
        ch = make_channel(cfg, seed=1)
        corners = _Corners(ch, cfg, 0.8)
        rng = np.random.default_rng(2)
        for _ in range(20):
            _, _, p = _seated_box(cfg, rng)
            bound, _ = _box_bound(corners, p, p)
            assert bound == pytest.approx(_objective(p, ch, cfg, 0.8),
                                          rel=1e-9, abs=1e-9)

    def test_bound_sums_seated_entries_only(self):
        # an off-seat entry is 0 over the whole box and adds no
        # log2((sigma + I(b)) / (sigma + I(a))) term
        cfg = make_config(m=2, k=3, n=2)
        ch = make_channel(cfg, seed=4)
        corners = _Corners(ch, cfg, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, _ = _seated_box(cfg, rng)
            seated = b > 0
            floor_a = model.noise_floor(a, ch)[0]
            floor_b = model.noise_floor(b, ch)[0]
            terms = np.log2(floor_b + b * ch.gamma) - np.log2(floor_a)
            expected = (np.sum(cfg.weights[:, :, None] * terms, where=seated)
                        - 0.3 * model.total_power(PowerAllocation(p=a), cfg))
            bound, _ = _box_bound(corners, a, b)
            assert bound == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_bound_dominates_points_in_box(self):
        # and pruning never drops a box holding a feasible point
        cfg = make_config(m=2, k=3, n=2, streaming=(0,))
        ch = make_channel(cfg, seed=8)
        corners = _Corners(ch, cfg, 0.7)
        rng = np.random.default_rng(9)
        kept = 0
        for _ in range(200):
            a, b, p = _seated_box(cfg, rng)
            bound, alive = _box_bound(corners, a, b)
            assert bound >= _objective(p, ch, cfg, 0.7) - 1e-9
            if model.check_feasibility(PowerAllocation(p=p), ch, cfg).ok:
                assert alive
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


class TestBatchedReplay:
    """The batched solve against the one-box loop, bit for bit."""

    # warm-started from scale as in the benchmark's oracle workload, on the
    # seven instances scale solves
    @pytest.mark.parametrize("index, warm", [(i, True) for i in range(7)]
                             + [(i, False) for i in range(8)])
    def test_panel(self, index, warm):
        inst = _panel_instance(index)
        start = None
        if warm:
            local = ScaleSolver().solve_fixed_e(inst.ch, inst.cfg, inst.e)
            assert local.status == "ok"
            start = local.allocation
        _assert_replays_reference(inst.ch, inst.cfg, inst.e, start, max_iter=400)

    @pytest.mark.parametrize("budget", [0, 1, 7, 400])
    def test_budgets(self, budget):
        inst = _panel_instance(6)
        res = _assert_replays_reference(inst.ch, inst.cfg, inst.e, max_iter=budget)
        assert res.stats.iterations == budget

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([1, 7, 50, 200]))
    def test_tiny_instances(self, seed, budget):
        inst = tiny_instance(np.random.default_rng(seed), with_streaming=seed % 2 == 1)
        _assert_replays_reference(inst.ch, inst.cfg, inst.e, max_iter=budget)

    # l_max = 2 < K runs the multiplexing test on the lower corners
    @pytest.mark.parametrize("l_max", [3, 2])
    @pytest.mark.parametrize("budget", [7, 400])
    def test_three_heads(self, budget, l_max):
        cfg = make_config(m=3, k=3, n=1, streaming=(1,), l_max=l_max)
        ch = make_channel(cfg, seed=2)
        _assert_replays_reference(ch, cfg, 0.5, max_iter=budget)

    def test_every_root_pruned(self):
        cfg = make_config(m=2, k=2, n=1, streaming=(0,), bandwidth=1e-3)
        res = _assert_replays_reference(make_channel(cfg, seed=12), cfg, 0.0, max_iter=300)
        assert res.stats.infeasible_reason == "every box was pruned"

    def test_epsilon_stop(self):
        cfg = make_config(m=1, k=1, n=1)
        res = _assert_replays_reference(make_channel(cfg, seed=3), cfg, 1.0)
        assert 0 < res.stats.iterations < 3000
        assert res.stats.gap <= polyblock._EPS_REL * max(abs(res.stats.true_objective), 1.0)


class TestScreenAndOffers:
    def test_screen_within_rounding_of_surplus(self, monkeypatch):
        # every lower corner a solve builds, the zero corner included
        seen = []
        corners_of = _Corners.corners

        def corners(self, a, b):
            low, up = corners_of(self, a, b)
            seen.extend(zip(a, low.screen))
            return low, up

        monkeypatch.setattr(_Corners, "corners", corners)
        cfg = make_config(m=3, k=3, n=1, streaming=(1,))
        three_heads = TinyInstance(cfg=cfg, ch=make_channel(cfg, seed=2), e=0.5)
        for inst in (_panel_instance(2), _panel_instance(5), three_heads):
            seen.clear()
            PolyblockSolver(allow_high_dim=True, max_iter=150).solve_fixed_e(
                inst.ch, inst.cfg, inst.e)
            assert len(seen) > 100
            for a, screen in seen:
                exact = model.surplus(PowerAllocation(p=a), inst.ch, inst.cfg, inst.e)
                delta = polyblock._SCREEN_REL * max(abs(screen), 1.0)
                assert abs(screen - exact) <= delta / 1000, (screen, exact)

    @pytest.mark.parametrize("index", [5, 6])
    def test_no_lower_corner_evaluated_twice(self, index, monkeypatch):
        # the one-box loop evaluates all 400 popped lower corners, left
        # children's again and corners that two seatings split to alike
        inst = _panel_instance(index)
        evaluated = []
        energy_efficiency = model.energy_efficiency

        def counting(alloc, ch, cfg):
            evaluated.append(alloc.p.tobytes())
            return energy_efficiency(alloc, ch, cfg)

        monkeypatch.setattr(model, "energy_efficiency", counting)
        res = PolyblockSolver(allow_high_dim=True, max_iter=400).solve_fixed_e(
            inst.ch, inst.cfg, inst.e)
        assert res.stats.iterations == 400
        assert 0 < len(evaluated) < 400
        assert len(set(evaluated)) == len(evaluated)


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

    @pytest.mark.parametrize("budget", [-3, 2.5, True, "400"])
    def test_bad_budget_named(self, budget):
        with pytest.raises(ConfigError, match="max_iter"):
            PolyblockSolver(max_iter=budget)

    def test_infeasible_status(self):
        cfg = make_config(m=1, k=2, n=1, streaming=(0,), bandwidth=1e-3)
        ch = make_channel(cfg, seed=12)
        res = PolyblockSolver(allow_high_dim=True, max_iter=300).solve_fixed_e(
            ch, cfg, 0.0)
        assert res.status == "infeasible"
