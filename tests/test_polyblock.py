import numpy as np
import pytest

from hcran_noma.polyblock import (CanonicalProblem, DimensionGuardError,
                                  PolyblockSolver, canonicalize,
                                  polyblock_solve, project)
from hcran_noma.scale import ScaleSolver
from hcran_noma.scenarios import grid_oracle, tiny_instance

from conftest import make_config, make_channel


def interval_problem(limit=0.7):
    return CanonicalProblem(
        box=np.array([1.0]),
        objective=lambda y: float(y[0]),
        in_normal=lambda y: bool(np.all(y >= -1e-12) and np.all(y <= limit + 1e-12)),
        in_conormal=lambda y: True)


def simplex_problem():
    return CanonicalProblem(
        box=np.array([1.0, 1.0]),
        objective=lambda y: float(y.sum()),
        in_normal=lambda y: float(y.sum()) <= 1.0 + 1e-12 and bool(np.all(y >= -1e-12)),
        in_conormal=lambda y: y[0] >= 0.2 - 1e-12)


class TestToyProblems:
    def test_interval(self):
        res = polyblock_solve(interval_problem(), eps=1e-3)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.7, abs=2e-3)

    def test_simplex_with_lower_constraint(self):
        res = polyblock_solve(simplex_problem(), eps=1e-2)
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=2e-2)
        assert res.point[0] >= 0.2 - 1e-9

    def test_no_feasible_point(self):
        prob = CanonicalProblem(
            box=np.array([1.0]),
            objective=lambda y: float(y[0]),
            in_normal=lambda y: bool(np.all(y <= 0.3 + 1e-12)),
            in_conormal=lambda y: y[0] >= 0.8)  # disjoint from the normal set
        res = polyblock_solve(prob, eps=1e-3, max_iter=200)
        assert res.status == "infeasible"
        assert res.point is None

    def test_bound_and_incumbent_monotone(self):
        trace = []
        polyblock_solve(simplex_problem(), eps=1e-3, trace=trace)
        bounds = [row[1] for row in trace]
        incs = [row[2] for row in trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(i2 >= i1 for i1, i2 in zip(incs, incs[1:]))

    def test_no_feasible_point_above_claimed_optimum(self):
        # pruning safety: after the solve, a dense sample of the feasible set
        # contains nothing better than incumbent + eps
        prob = simplex_problem()
        eps = 1e-2
        res = polyblock_solve(prob, eps=eps)
        xs, ys = np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 101))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        feas = (pts.sum(axis=1) <= 1.0) & (pts[:, 0] >= 0.2)
        assert pts[feas].sum(axis=1).max() <= res.value + eps + 1e-9


class TestProject:
    def test_identity_inside(self):
        prob = interval_problem()
        x, lam = project(prob, np.array([0.5]))
        assert lam == 1.0 and x[0] == 0.5

    def test_boundary_resolution(self):
        prob = interval_problem()
        x, lam = project(prob, np.array([1.0]))
        assert prob.in_normal(x)
        assert not prob.in_normal(x * (1 + 1e-9))
        assert x[0] == pytest.approx(0.7, abs=1e-10)

    def test_ray_intersection_2d(self):
        prob = CanonicalProblem(
            box=np.array([1.0, 1.0]),
            objective=lambda y: float(y.sum()),
            in_normal=lambda y: float(y.sum()) <= 1.0 + 1e-15,
            in_conormal=lambda y: True)
        x, _ = project(prob, np.array([1.0, 1.0]))
        assert np.allclose(x, [0.5, 0.5], atol=1e-9)

    def test_origin_must_be_feasible(self):
        prob = CanonicalProblem(
            box=np.array([1.0]),
            objective=lambda y: float(y[0]),
            in_normal=lambda y: 0.5 <= y[0] <= 0.8,
            in_conormal=lambda y: True)
        with pytest.raises(ValueError):
            project(prob, np.array([1.0]))


class TestCanonicalize:
    def _instance(self, seed=0, streaming=()):
        cfg = make_config(m=2, k=2, n=1, streaming=streaming)
        ch = make_channel(cfg, seed=seed)
        return cfg, ch

    def test_objective_equivalence(self):
        cfg, ch = self._instance(seed=1)
        canon = canonicalize(ch, cfg, e=0.8)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(0, 1, ch.gamma.shape) * cfg.p_mask
            y = canon.embed(p)
            lhs = canon.objective(y) - canon.offset
            rhs = canon.value_original(p)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_slack_constraints_tight_at_mask(self):
        # at full mask powers the largest admissible slacks are exactly zero:
        # the upper-side constraints hold with equality and any positive
        # slack breaks them, while the lower-side cancellation row reduces to
        # the raw margin condition
        cfg, ch = self._instance(seed=3, streaming=(0,))
        canon = canonicalize(ch, cfg, e=0.5)
        mask = cfg.p_mask
        assert canon.q_minus_mask - canon._q_minus(mask) == pytest.approx(0.0, abs=1e-9)
        assert canon.qt_minus_mask - canon._qt_minus(mask) == pytest.approx(0.0, abs=1e-9)
        if canon.n_sic:
            slack_cap = canon.sic_plus_mask - canon._sic_plus(mask)
            assert np.allclose(slack_cap, 0.0, atol=1e-15)
            # with that tight slack the lower-side row is the original margin
            lifted = canon.lift(np.concatenate([mask.ravel(),
                                                np.zeros(canon.dim - canon.n_p)]))
            s3 = lifted[canon.n_p + 1 + int(canon.has_rate_slack):]
            lower_ok = canon._sic_minus(mask) + s3 >= canon.sic_plus_mask - 1e-12
            margin_ok = canon._sic_minus(mask) >= canon._sic_plus(mask) - 1e-12
            assert np.array_equal(lower_ok, margin_ok)

    def _feasible_point(self, canon, cfg, ch, rng):
        """Random point of the normal set: one serving head per user, budget
        respected, slacks at their tight values then randomly reduced."""
        m, k, n = ch.gamma.shape
        p = np.zeros((m, k, n))
        heads = rng.integers(0, m, size=k)
        for u in range(k):
            p[heads[u], u, :] = rng.uniform(0, 1, n) * cfg.p_mask[heads[u], u, :]
        scale = np.minimum(1.0, cfg.p_max / np.maximum(p.sum(axis=(1, 2)), 1e-300))
        p *= scale[:, None, None]
        y = canon.embed(p)
        y[canon.n_p:] *= rng.uniform(0, 1, canon.dim - canon.n_p)
        return y

    def test_normal_set_downward_closed(self):
        cfg, ch = self._instance(seed=4, streaming=(0,))
        canon = canonicalize(ch, cfg, e=0.4)
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(100):
            y = self._feasible_point(canon, cfg, ch, rng)
            if not canon.in_normal(y):
                continue
            found += 1
            below = y * rng.uniform(0, 1, canon.dim)
            assert canon.in_normal(below)
        assert found > 10

    def test_conormal_set_upward_closed(self):
        cfg, ch = self._instance(seed=6, streaming=(0,))
        canon = canonicalize(ch, cfg, e=0.4)
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(300):
            y = rng.uniform(0, 1, canon.dim) * canon.box
            if not canon.in_conormal(y):
                continue
            found += 1
            above = y + (canon.box - y) * rng.uniform(0, 1, canon.dim)
            assert canon.in_conormal(above)
        assert found > 10

    def test_vertex_bound_dominates_feasible_objective(self):
        cfg, ch = self._instance(seed=8)
        canon = canonicalize(ch, cfg, e=0.7)
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = rng.uniform(0, 1, ch.gamma.shape) * cfg.p_mask
            y = canon.embed(p)
            if not canon.in_normal(y):
                continue
            v = np.minimum(y * rng.uniform(1.0, 1.5, canon.dim), canon.box)
            assert canon.vertex_bound(v) >= canon.objective(y) - 1e-9


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
