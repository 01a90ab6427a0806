import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hcran_noma
from hcran_noma import dinkelbach
from hcran_noma.model import ConfigError, Tolerances
from hcran_noma.scenarios import (PlacementError, Scenario, build_config,
                                  gen_channel, run_draw, run_draws, run_sweep,
                                  tiny_instance)


class TestBuildConfig:
    def test_layered_static_power(self):
        cfg = build_config(architecture="hcran", k_total=4, k_streaming=2, rng=0)
        assert cfg.static_power() == pytest.approx(8.2)
        assert cfg.p_max[0] == pytest.approx(10 ** 1.2)      # 42 dBm
        assert cfg.p_max[1] == pytest.approx(10 ** -0.7)     # 23 dBm
        assert tuple(cfg.eta) == (4.0, 2.0, 2.0)

    def test_cloud_static_includes_pool_site(self):
        cfg = build_config(architecture="cran", k_total=4, k_streaming=0, rng=0)
        # three low-power heads plus the aggregation-site burn (3 + 3 W)
        assert cfg.static_power() == pytest.approx(3.0 + 3.0 + 3 * (1.0 + 0.1))

    def test_standalone_tiers_carry_backhaul(self):
        hcn = build_config(architecture="hcn", k_total=4, k_streaming=0, rng=0)
        assert hcn.static_power() == pytest.approx((10 + 8) + 2 * (6.8 + 1.0))
        hpn1 = build_config(architecture="hpn1", k_total=4, k_streaming=0, rng=0)
        assert hpn1.static_power() == pytest.approx(2 * (10 + 8))

    def test_streaming_users_first(self):
        cfg = build_config(k_total=5, k_streaming=2, rng=1)
        kinds = [u.kind for u in cfg.users]
        assert kinds == ["streaming", "streaming", "elastic", "elastic", "elastic"]

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError):
            build_config(architecture="mesh", rng=0)

    def test_too_many_streaming(self):
        with pytest.raises(ConfigError):
            build_config(k_total=3, k_streaming=4, rng=0)

    def test_mask_override_validated(self):
        with pytest.raises(ConfigError):
            build_config(rng=0, mask_dbm=50.0)  # above every budget


class TestGenChannel:
    def test_deterministic(self):
        cfg = build_config(k_total=4, k_streaming=1, rng=3)
        a = gen_channel(cfg, 42)
        b = gen_channel(cfg, 42)
        assert a.gamma.tobytes() == b.gamma.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()

    def test_seed_changes_draw(self):
        cfg = build_config(k_total=4, k_streaming=1, rng=3)
        assert gen_channel(cfg, 1).gamma.tobytes() != gen_channel(cfg, 2).gamma.tobytes()

    def test_distance_moment(self):
        # gain = Exp(1) * d^-3: at d = 2 the mean gain is 1/8, within 1% over
        # a hundred thousand draws
        from hcran_noma.model import NetworkConfig, Tolerances, UserSpec
        user = UserSpec(kind="elastic", position=(2.0, 0.0))
        n = 100_000
        cfg = NetworkConfig(
            m_f=0, n_subcarriers=n, subcarrier_bandwidth=1.0, users=(user,),
            l_max=1, p_max=np.array([1.0]), p_mask=np.full((1, 1, n), 1.0),
            eta=np.array([1.0]), p_fiber_hpn=0.1, p_fiber_lpn=0.1,
            p_circuit_hpn=0.1, p_circuit_lpn=0.1, weights=np.ones((1, 1)),
            rrh_positions=np.zeros((1, 2)))
        ch = gen_channel(cfg, 7)
        assert ch.gamma.mean() == pytest.approx(2.0 ** -3, rel=0.01)

    def test_coincident_placement_rejected(self):
        from hcran_noma.model import NetworkConfig, UserSpec
        user = UserSpec(kind="elastic", position=(0.0, 0.0))
        cfg = NetworkConfig(
            m_f=0, n_subcarriers=1, subcarrier_bandwidth=1.0, users=(user,),
            l_max=1, p_max=np.array([1.0]), p_mask=np.full((1, 1, 1), 1.0),
            eta=np.array([1.0]), p_fiber_hpn=0.1, p_fiber_lpn=0.1,
            p_circuit_hpn=0.1, p_circuit_lpn=0.1, weights=np.ones((1, 1)),
            rrh_positions=np.zeros((1, 2)))
        with pytest.raises(PlacementError):
            gen_channel(cfg, 0)


class TestSweeps:
    def _scenario(self, **kw):
        base = dict(architecture="hcran", sweep="none", values=(12,),
                    k_total=8, k_streaming=2, n_subcarriers=8, draws=2,
                    seed=3, workers=1)
        base.update(kw)
        return Scenario(**base)

    def test_draw_reproducible(self):
        sc = self._scenario()
        a = run_draw(sc, 12, 0)
        b = run_draw(sc, 12, 0)
        assert a.ee == b.ee and a.feasible == b.feasible

    def test_draw_reports_the_outer_status(self, monkeypatch):
        traces = []
        real = dinkelbach.solve

        def capturing(*args, **kwargs):
            traces.append(real(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(dinkelbach, "solve", capturing)
        res = run_draw(self._scenario(), 12, 0)
        assert res.status == traces[-1].status == "converged"
        capped = run_draw(self._scenario(tolerances=Tolerances(outer_max=1)), 12, 0)
        assert capped.status == traces[-1].status == "cap" and capped.feasible
        # absurd minimum rates: the first inner solve finds no allocation
        unsolved = run_draw(self._scenario(bandwidth_hz=1e-2), 12, 0)
        assert unsolved.status == "infeasible" and not unsolved.feasible

    def test_rows_aggregate_feasible_draws(self):
        rows = run_sweep(self._scenario())
        assert len(rows) == 1
        assert rows[0].n_draws == 2
        assert rows[0].n_feasible == 2
        assert np.isfinite(rows[0].mean_ee)

    def test_infeasible_draws_flagged_not_fatal(self):
        sc = self._scenario(bandwidth_hz=1e-2)  # absurd minimum rates
        rows = run_sweep(sc)
        assert rows[0].n_feasible == 0
        assert np.isnan(rows[0].mean_ee)

    def test_scenario_validation(self):
        with pytest.raises(ConfigError):
            self._scenario(architecture="ring")
        with pytest.raises(ConfigError):
            self._scenario(sweep="fading")
        with pytest.raises(ConfigError):
            self._scenario(solver="annealing")

    @pytest.mark.parametrize("name", ["draws", "workers"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_counts_below_one_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
            self._scenario(**{name: value})

    def test_process_pool_matches_serial(self):
        serial = run_sweep(self._scenario())
        pooled = run_sweep(self._scenario(workers=2))
        assert serial[0].mean_ee == pooled[0].mean_ee

    @pytest.mark.parametrize("kw", [dict(sweep="users", values=(8, 12, 6)),
                                    dict(bandwidth_hz=1e-2)])  # every draw infeasible
    def test_lockstep_draws_equal_single_draws(self, kw):
        sc = self._scenario(**kw)
        points = [(v, d) for v in sc.values for d in range(sc.draws)]
        fields = [f.name for f in dataclasses.fields(run_draw(sc, *points[0]))
                  if f.name != "wall_s"]
        for got, (value, draw) in zip(run_draws(sc, points), points):
            want = run_draw(sc, value, draw)
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]

    def test_lockstep_wall_times_sum_to_the_batch(self):
        # each draw is charged its own time and its share of every lockstep
        # step, so a batch's wall_s sum to its wall time
        sc = self._scenario(sweep="users", values=(8, 12, 6))
        points = [(v, d) for v in sc.values for d in range(sc.draws)]
        t0 = time.perf_counter()
        results = run_draws(sc, points)
        elapsed = time.perf_counter() - t0
        total = sum(r.wall_s for r in results)
        assert all(r.wall_s > 0 for r in results)
        assert abs(total - elapsed) <= 0.01 * elapsed, (total, elapsed)

    def test_pooled_sweep_batches_draws(self):
        # four draws on two workers: two lockstep batches of two.  The rows
        # are the serial ones, and every batch's wall_s sum to at most its
        # worker's share of the sweep, which charging each lockstep step in
        # full to every member it advanced would exceed
        sc = self._scenario(sweep="users", values=(8, 12), draws=2)
        serial = run_sweep(sc)
        t0 = time.perf_counter()
        pooled = run_sweep(dataclasses.replace(sc, workers=2))
        elapsed = time.perf_counter() - t0
        for a, b in zip(serial, pooled):
            assert dataclasses.replace(a, mean_wall_s=0.0) == dataclasses.replace(b, mean_wall_s=0.0)
        assert all(row.n_feasible == row.n_draws for row in pooled)
        charged = sum(row.mean_wall_s * row.n_draws for row in pooled)
        assert 0 < charged <= 2 * elapsed, (charged, elapsed)

    def test_import_loads_no_process_pool(self):
        # only a pooled sweep needs multiprocessing; importing the package
        # must not pay for it
        env = dict(os.environ, PYTHONPATH=str(Path(hcran_noma.__file__).parents[1]))
        code = ("import sys, hcran_noma; print([m for m in ('concurrent.futures.process', "
                "'multiprocessing') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestTinyInstances:
    def test_shapes_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = tiny_instance(rng)
            assert 1 <= inst.cfg.n_rrh <= 2
            assert 2 <= inst.cfg.n_users <= 3
            assert 1 <= inst.cfg.n_subcarriers <= 2
            assert 0.0 <= inst.e <= 2.0
