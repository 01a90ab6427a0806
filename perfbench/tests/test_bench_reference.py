"""Tests of the benchmark's reference evaluator and output checks.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402
from hcran_noma import dinkelbach, scenarios  # noqa: E402
from hcran_noma.model import NetworkConfig, Tolerances, UserSpec  # noqa: E402
from hcran_noma.scale import ScaleSolver  # noqa: E402
from hcran_noma.traffic import TrafficSpec  # noqa: E402

TRAFFIC = TrafficSpec.from_queue(25.0, 125.0, 1024.0)  # lam*T = 25


def config(m=1, k=2, n=1, streaming=(), l_max=3, p_max=10.0, mask=5.0,
           bandwidth=31250.0, tolerances=None):
    users = tuple(UserSpec(kind="streaming" if i in streaming else "elastic",
                           position=(100.0 * (i + 1), 0.0),
                           traffic=TRAFFIC if i in streaming else None)
                  for i in range(k))
    return NetworkConfig(
        m_f=m - 1, n_subcarriers=n, subcarrier_bandwidth=bandwidth, users=users,
        l_max=l_max, p_max=np.full(m, p_max), p_mask=np.full((m, k, n), mask),
        eta=np.full(m, 2.0), p_fiber_hpn=3.0, p_fiber_lpn=1.0,
        p_circuit_hpn=3.0, p_circuit_lpn=0.1, weights=np.ones((m, k)),
        rrh_positions=np.zeros((m, 2)), tolerances=tolerances or Tolerances())


def arr(values):
    return np.asarray(values, dtype=float)


class TestTwoUserCase:
    """One head, one subcarrier, unit noise; user 0 has gain 2, user 1 gain 1,
    powers 1 and 3.  User 0 decodes first and sees no same-head power:
    SINR 2.  User 1 sees user 0's power through its own gain: 3/(1+1) = 1.5."""

    gamma = arr([[[2.0], [1.0]]])
    sigma = arr([[[1.0], [1.0]]])
    p = arr([[[1.0], [3.0]]])

    def test_sinr(self):
        np.testing.assert_allclose(reference.sinr(self.p, self.gamma, self.sigma),
                                   [[[2.0], [1.5]]])

    def test_rates_and_efficiency(self):
        cfg = config()
        rate = math.log2(3.0) + math.log2(2.5)
        power = 3.0 + 3.0 + 2.0 * 4.0  # fiber + circuit + eta * elastic power
        assert reference.weighted_sum_rate(self.p, self.gamma, self.sigma, cfg) == pytest.approx(rate)
        assert reference.total_power(self.p, cfg) == pytest.approx(power)
        assert reference.energy_efficiency(self.p, self.gamma, self.sigma, cfg) == pytest.approx(rate / power)
        assert reference.objective(self.p, self.gamma, self.sigma, cfg, 0.5) == pytest.approx(rate - 0.5 * power)

    def test_streaming_power_is_not_counted(self):
        cfg = config(streaming=(1,))
        assert reference.total_power(self.p, cfg) == pytest.approx(3.0 + 3.0 + 2.0 * 1.0)
        assert reference.weighted_sum_rate(self.p, self.gamma, self.sigma, cfg) == pytest.approx(math.log2(3.0))

    def test_tie_goes_to_lower_index(self):
        gamma = arr([[[1.0], [1.0]]])
        np.testing.assert_array_equal(reference.decode_order(gamma)[0, :, 0], [0, 1])
        np.testing.assert_allclose(reference.sinr(self.p, gamma, self.sigma),
                                   [[[1.0], [3.0 / 2.0]]])

    def test_other_heads_interfere_through_their_own_gain(self):
        gamma = arr([[[2.0], [1.0]], [[0.5], [0.25]]])
        p = arr([[[1.0], [0.0]], [[0.0], [4.0]]])
        # user 0 on head 0 hears head 1's 4 W through gain 0.5
        assert reference.sinr(p, gamma, np.ones_like(p))[0, 0, 0] == pytest.approx(2.0 / 3.0)
        # user 1 on head 1 hears head 0's 1 W through gain 1
        assert reference.sinr(p, gamma, np.ones_like(p))[1, 1, 0] == pytest.approx(1.0 / 2.0)

    def test_feasible_case_has_no_violations(self):
        assert reference.violations(self.p, self.gamma, self.sigma, config()) == []


def test_min_rate_closed_form():
    # bits * (1 + 25 + sqrt(1 + 25^2)) / (2 * 0.2) / 31250
    expected = 1024.0 * (26.0 + math.sqrt(626.0)) / 0.4 / 31250.0
    assert reference.min_rate(TRAFFIC, 31250.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4.17956, rel=1e-5)


class TestPlantedViolations:
    gamma = arr([[[2.0, 2.0], [1.0, 1.0]], [[2.0, 2.0], [1.0, 1.0]]])
    sigma = np.ones((2, 2, 2))

    def flagged(self, p, cfg, sigma=None, gamma=None):
        found = reference.violations(p, self.gamma if gamma is None else gamma,
                                     self.sigma if sigma is None else sigma, cfg)
        return " | ".join(found)

    def base(self):
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = 1.0  # user 0 on head 0, user 1 on head 1
        p[1, 1, 1] = 1.0
        return p

    def test_base_is_feasible(self):
        assert self.flagged(self.base(), config(m=2, n=2)) == ""

    def test_mask_box(self):
        p = self.base()
        p[0, 0, 0] = 5.5
        assert "mask box" in self.flagged(p, config(m=2, n=2))
        p = self.base()
        p[0, 0, 1] = -1e-3
        assert "mask box" in self.flagged(p, config(m=2, n=2))

    def test_budget(self):
        p = self.base()
        p[0, 0, :] = 5.0
        p[0, 1, 0] = 1.0
        assert "budget" in self.flagged(p, config(m=2, n=2, l_max=3))

    def test_one_head_per_user(self):
        p = self.base()
        p[1, 0, 1] = 1.0  # user 0 now also on head 1
        assert "one head per user" in self.flagged(p, config(m=2, n=2))

    def test_users_per_subcarrier(self):
        p = self.base()
        p[0, 1, 0] = 1.0  # two users on (0, 0) with l_max = 1
        out = self.flagged(p, config(m=2, n=2, l_max=1))
        assert "users per subcarrier" in out
        assert "users per subcarrier" not in self.flagged(p, config(m=2, n=2, l_max=2))

    def test_streaming_rate(self):
        # 1 MHz subcarriers: the minimum is 0.13 bits/s/Hz, below the base's 1
        cfg = config(m=2, n=2, streaming=(1,), bandwidth=1e6)
        assert "streaming rate" not in self.flagged(self.base(), cfg)
        p = self.base()
        p[1, 1, 1] = 0.0  # streaming user 1 gets nothing
        assert "streaming rate" in self.flagged(p, cfg)

    def test_cancellation_order(self):
        # both users on (0, 0); head 1 sends 1 W that only the strong user
        # hears, so the strong user cannot strip the weak user's signal
        gamma = arr([[[2.0, 2.0], [1.0, 1.0]], [[5.0, 5.0], [1e-6, 1e-6]]])
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p[0, 1, 0] = 1.0
        p[1, 0, 0] = 1.0
        cfg = config(m=2, n=2, tolerances=Tolerances(rho1=1e3))
        assert "cancellation order" in self.flagged(p, cfg, gamma=gamma)
        p[1, 0, 0] = 0.0
        assert "cancellation order" not in self.flagged(p, cfg, gamma=gamma)


class TestCorruptedOutputsFail:
    """The workload checks reject a solve whose output was tampered with."""

    @pytest.fixture(scope="class")
    def solved(self):
        cfg = scenarios.build_config("hcran", k_total=6, k_streaming=2,
                                     rng=np.random.default_rng(3), n_subcarriers=4)
        ch = scenarios.gen_channel(cfg, 3)
        return ch, cfg, dinkelbach.solve(ch, cfg, ScaleSolver())

    def test_genuine_output_passes(self, solved):
        assert workloads.check_dinkelbach(*solved) == []

    def test_wrong_efficiency(self, solved):
        ch, cfg, trace = solved
        bad = replace(trace, final_e=trace.final_e * (1 + 1e-6))
        assert any("final EE" in p for p in workloads.check_dinkelbach(ch, cfg, bad))

    def test_power_above_mask(self, solved):
        ch, cfg, trace = solved
        alloc = trace.final_allocation.copy()
        alloc.p = cfg.p_mask * 1.5
        bad = replace(trace, final_allocation=alloc)
        out = workloads.check_dinkelbach(ch, cfg, bad)
        assert any("mask box" in p for p in out)
        assert any("check_feasibility" in p for p in out)

    def test_e_trace_must_rise(self, solved):
        ch, cfg, trace = solved
        its = list(trace.iterations)
        bad = replace(trace, iterations=its + [its[-1]])
        assert any("rise strictly" in p for p in workloads.check_dinkelbach(ch, cfg, bad))

    def test_converged_surplus_above_xi(self, solved):
        ch, cfg, trace = solved
        its = list(trace.iterations)
        its[-1] = replace(its[-1], surplus=cfg.tolerances.xi * 10)
        bad = replace(trace, iterations=its)
        assert any("surplus" in p for p in workloads.check_dinkelbach(ch, cfg, bad))
