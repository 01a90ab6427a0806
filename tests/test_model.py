import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hcran_noma import dinkelbach, model
from hcran_noma.model import (ChannelState, ConfigError, PowerAllocation,
                              Tolerances, check_feasibility, derive_binaries,
                              energy_efficiency, sic_margin, sinr,
                              total_power, user_rate, weighted_sum_rate)
from hcran_noma.scale import ScaleSolver

from conftest import make_config, make_channel


def manual_sinr(p, gamma, sigma, m, k, n):
    """Scalar transcription of the interference rule, used as an oracle:
    same-RRH users with stronger gain interfere through the victim's own
    channel, every other RRH's users through their cross channels."""
    m_count, k_count, _ = p.shape
    interf = 0.0
    for i in range(k_count):
        if i == k:
            continue
        stronger = gamma[m, i, n] > gamma[m, k, n] or (
            gamma[m, i, n] == gamma[m, k, n] and i < k)
        if stronger:
            interf += p[m, i, n] * gamma[m, k, n]
    for j in range(m_count):
        if j == m:
            continue
        for i in range(k_count):
            interf += p[j, i, n] * gamma[j, k, n]
    return p[m, k, n] * gamma[m, k, n] / (sigma[m, k, n] + interf)


def uniform_channel(cfg, gamma):
    shape = (cfg.n_rrh, cfg.n_users, cfg.n_subcarriers)
    return ChannelState(gamma=np.asarray(gamma, dtype=float) * np.ones(shape),
                        sigma=np.ones(shape))


class TestSinr:
    def test_single_user_identity(self):
        cfg = make_config(m=1, k=1, n=1)
        ch = uniform_channel(cfg, 1.0)
        alloc = PowerAllocation(p=np.ones((1, 1, 1)))
        assert sinr(alloc, ch, 0, 0, 0) == pytest.approx(1.0)

    def test_strong_user_sees_no_weak_interference(self):
        cfg = make_config(m=1, k=2, n=1)
        shape = (1, 2, 1)
        gamma = np.array([2.0, 1.0]).reshape(shape)  # user 0 stronger
        ch = ChannelState(gamma=gamma, sigma=np.ones(shape))
        alloc = PowerAllocation(p=np.full(shape, 3.0))
        # the weaker user's signal is decoded and removed at the strong user
        assert sinr(alloc, ch, 0, 0, 0) == pytest.approx(3.0 * 2.0 / 1.0)
        # the weak user eats the strong user's power through its own channel
        assert sinr(alloc, ch, 0, 1, 0) == pytest.approx(3.0 / (1.0 + 3.0))

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 3), k=st.integers(1, 5), n=st.integers(1, 3),
           stack=st.integers(1, 3), ties=st.booleans(), zeros=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_manual_evaluation(self, m, k, n, stack, ties, zeros, seed):
        # tied gains (the lower index decodes first) and zero gains, for a
        # stack of allocations on a leading axis
        rng = np.random.default_rng(seed)
        shape = (m, k, n)
        gamma = (rng.choice([1e-8, 1e-7], size=shape) if ties
                 else rng.exponential(1e-7, shape))
        if zeros:
            gamma = gamma * (rng.random(shape) < 0.6)
        ch = ChannelState(gamma=gamma, sigma=rng.uniform(1e-14, 1e-13, shape))
        p = rng.uniform(0.0, 1.0, (stack, *shape)) * (rng.random((stack, *shape)) < 0.7)
        got = model.sinr_array(p, ch)
        for b, mm, kk, nn in np.ndindex(got.shape):
            assert got[b, mm, kk, nn] == pytest.approx(
                manual_sinr(p[b], gamma, ch.sigma, mm, kk, nn), rel=1e-12), (b, mm, kk, nn)

    def test_index_errors(self, small_cfg, small_channel):
        alloc = model.zeros_like_alloc(small_cfg)
        with pytest.raises(IndexError):
            sinr(alloc, small_channel, 5, 0, 0)
        with pytest.raises(IndexError):
            sinr(alloc, small_channel, 0, 0, 99)


class TestRates:
    def test_known_points(self):
        cfg = make_config(m=1, k=1, n=1)
        shape = (1, 1, 1)
        ch = ChannelState(gamma=np.ones(shape), sigma=np.ones(shape))
        assert user_rate(PowerAllocation(p=np.ones(shape)), ch, 0, 0, 0) == pytest.approx(1.0)
        assert user_rate(PowerAllocation(p=np.zeros(shape)), ch, 0, 0, 0) == pytest.approx(0.0)
        assert user_rate(PowerAllocation(p=np.full(shape, 3.0)), ch, 0, 0, 0) == pytest.approx(2.0)

    def test_rate_is_log_of_sinr(self, small_cfg, small_channel):
        rng = np.random.default_rng(0)
        alloc = PowerAllocation(p=rng.uniform(0, 0.5, small_channel.gamma.shape))
        for m in range(small_cfg.n_rrh):
            for k in range(small_cfg.n_users):
                for n in range(small_cfg.n_subcarriers):
                    z = sinr(alloc, small_channel, m, k, n)
                    assert user_rate(alloc, small_channel, m, k, n) == pytest.approx(
                        np.log2(1 + z), rel=1e-12)

    def test_monotone_in_own_power(self, small_cfg, small_channel):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 0.5, small_channel.gamma.shape)
        base = user_rate(PowerAllocation(p=p.copy()), small_channel, 0, 1, 0)
        p[0, 1, 0] *= 1.5
        assert user_rate(PowerAllocation(p=p), small_channel, 0, 1, 0) >= base

    def test_weighted_sum_rate_trivials(self, small_cfg, small_channel):
        zero = model.zeros_like_alloc(small_cfg)
        assert weighted_sum_rate(zero, small_channel, small_cfg) == 0.0

        cfg0 = make_config(weights=np.zeros((2, 3)))
        rng = np.random.default_rng(2)
        alloc = PowerAllocation(p=rng.uniform(0, 0.5, small_channel.gamma.shape))
        assert weighted_sum_rate(alloc, small_channel, cfg0) == 0.0

    def test_unit_instance(self):
        cfg = make_config(m=1, k=1, n=1)
        shape = (1, 1, 1)
        ch = ChannelState(gamma=np.ones(shape), sigma=np.ones(shape))
        alloc = PowerAllocation(p=np.ones(shape))
        assert weighted_sum_rate(alloc, ch, cfg) == pytest.approx(1.0)


class TestLeadingAxes:
    """The interference chain runs over any leading axes: a stack of
    allocations gives exactly what its members give one at a time."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), k=st.integers(1, 5), n=st.integers(1, 3),
           stack=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_stack_matches_members(self, m, k, n, stack, seed):
        cfg = make_config(m=m, k=k, n=n)
        ch = make_channel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        shape = (stack, m, k, n)
        p = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.7)
        for f in (lambda x: model.noise_floor(x, ch)[0],
                  lambda x: model.noise_floor(x, ch)[1],
                  lambda x: model.cross_interference(x, ch),
                  lambda x: model.rate_array(x, ch)):
            stacked = f(p)
            assert stacked.shape == shape
            for b in range(stack):
                assert np.array_equal(stacked[b], f(p[b]))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), k=st.integers(1, 5), n=st.integers(1, 3),
           stack=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_other_heads_is_the_exact_sum(self, m, k, n, stack, seed):
        # magnitudes over twelve decades: a total minus the own head's part
        # would round the quiet heads away
        rng = np.random.default_rng(seed)
        loudness = 10.0 ** rng.uniform(-12, 0, m)[:, None, None]
        x = rng.uniform(0.0, 1.0, (stack, m, k, n)) * loudness
        got = model.other_heads(x)
        if m == 1:
            assert np.array_equal(got, np.zeros_like(x))
        for b, mm, kk, nn in np.ndindex(got.shape):
            exact = math.fsum(x[b, j, kk, nn] for j in range(m) if j != mm)
            assert abs(got[b, mm, kk, nn] - exact) <= 2 * np.spacing(exact), (b, mm, kk, nn)


class TestSeatedEntries:
    """The sweep's sums over a support's flat entry list equal the dense
    sums, gathered at the support, of powers that are zero off it."""

    @staticmethod
    def _close(got, expected):
        return np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 4), k=st.integers(1, 5), n=st.integers(1, 3),
           density=st.sampled_from([0.0, 0.3, 0.7, 1.0]), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(m=2, k=1, n=3, density=1.0, ties=False, seed=0)  # one user: no pairs
    def test_match_the_dense_sums(self, m, k, n, density, ties, seed):
        rng = np.random.default_rng(seed)
        shape = (m, k, n)
        gamma = (rng.choice([1e-8, 1e-7], size=shape) if ties
                 else rng.exponential(1e-7, shape))
        ch = ChannelState(gamma=gamma, sigma=rng.uniform(1e-14, 1e-13, shape))
        support = rng.uniform(size=shape) < density
        ent = model.seated_entries(ch, support)
        assert np.array_equal(ent.flat, np.flatnonzero(support))
        p = np.where(support, rng.uniform(0.0, 1.0, shape), 0.0)
        x = np.where(support, rng.uniform(0.0, 1.0, shape), 0.0)

        floor, cross = ent.noise_floor(ent.take(p))
        dense_floor, dense_cross = model.noise_floor(p, ch)
        assert self._close(floor, ent.take(dense_floor))
        assert self._close(cross, ent.take(dense_cross))

        # the adjoint same-head sum: x over the users that k decodes after
        weaker = np.zeros(shape)
        # the adjoint other-head sum: gamma[m, l, n] * x over other heads' l
        other = np.zeros(shape)
        for mm, kk, nn in np.ndindex(shape):
            for ll in range(k):
                g_k, g_l = gamma[mm, kk, nn], gamma[mm, ll, nn]
                if ll != kk and (g_k > g_l or (g_k == g_l and kk < ll)):
                    weaker[mm, kk, nn] += x[mm, ll, nn]
                for jj in range(m):
                    if jj != mm:
                        other[mm, kk, nn] += gamma[mm, ll, nn] * x[jj, ll, nn]
        assert self._close(ent.adjoint_same(ent.take(x)), ent.take(weaker))
        assert self._close(ent.adjoint_cross(ent.take(x)), ent.take(other))

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 3), k=st.integers(1, 5), n=st.integers(1, 3),
           two_heads=st.booleans(), n_off=st.integers(0, 2),
           quiet=st.sampled_from([1.0, 1e-6]), spare=st.sampled_from([0.0, 0.5]),
           ties=st.booleans(), seed=st.integers(0, 2**16))
    # a loud own head next to a quiet other head: an all-head total minus the
    # own head's part would round away most of the quiet head's interference
    @example(m=2, k=2, n=1, two_heads=True, n_off=0, quiet=1.0, spare=0.0, ties=False, seed=1)
    @example(m=2, k=2, n=1, two_heads=True, n_off=0, quiet=1e-6, spare=0.0, ties=False, seed=1)
    def test_user_rates_match_manual_sinr(self, m, k, n, two_heads, n_off, quiet, spare,
                                          ties, seed):
        # an exclusive seating (one head per user), optionally with user 0 on
        # two heads, the last n_off users without power, and every head but
        # head 0 quiet (which a total-minus-own cross term would cancel away);
        # with ties, gains from two levels, so the lower index decodes first.
        # The list holds the powered entries plus, with spare, unpowered ones,
        # which count as zero
        rng = np.random.default_rng(seed)
        cfg = make_config(m=m, k=k, n=n,
                          weights=rng.uniform(0.2, 1.0, (m, k)))
        ch = make_channel(cfg, seed=seed)
        if ties:
            ch = ChannelState(gamma=rng.choice([1e-8, 1e-7], size=ch.gamma.shape),
                              sigma=ch.sigma)
        heads = rng.integers(0, m, size=k)
        p = np.zeros((m, k, n))
        p[heads, np.arange(k), :] = (rng.uniform(0.01, 1.0, (k, n))
                                     * (rng.random((k, n)) < 0.7))
        if two_heads and m > 1:
            p[(heads[0] + 1) % m, 0, :] = rng.uniform(0.01, 1.0, n)
        if n_off:
            p[:, -n_off:, :] = 0.0
        p[1:] *= quiet
        ent = model.seated_entries(ch, (p > 0) | (rng.random(p.shape) < spare))
        got = ent.user_rates(ent.take(p), cfg.weights)
        assert got.shape == (k,)
        expected = model.per_user_rate(PowerAllocation(p=p), ch, cfg)
        for user in range(k):
            oracle = sum(
                cfg.weights[mm, user] * np.log2(1.0 + manual_sinr(
                    p, ch.gamma, ch.sigma, mm, user, nn))
                for mm in range(m) for nn in range(n))
            assert got[user] == pytest.approx(oracle, rel=1e-12), (user, got, oracle)
            assert got[user] == pytest.approx(expected[user], rel=1e-12)


class TestConcatEntries:
    """``SeatedEntries.concat``: each part's slice of the concatenation
    gives the part's own sums, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
                                    st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.booleans()),
                          min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_slices_equal_each_part(self, parts, seed):
        rng = np.random.default_rng(seed)
        lists, powers, xs, weights = [], [], [], []
        for m, k, n, density, ties in parts:
            shape = (m, k, n)
            gamma = (rng.choice([1e-8, 1e-7], size=shape) if ties
                     else rng.exponential(1e-7, shape))
            ch = ChannelState(gamma=gamma, sigma=rng.uniform(1e-14, 1e-13, shape))
            ent = model.seated_entries(ch, rng.uniform(size=shape) < density)
            lists.append(ent)
            powers.append(rng.uniform(0.0, 1.0, len(ent)))
            xs.append(rng.uniform(0.0, 1.0, len(ent)))
            weights.append(rng.uniform(0.2, 1.0, (m, k)))
        cat = model.SeatedEntries.concat(lists)
        p, x = np.concatenate(powers), np.concatenate(xs)
        # the parts' weights on the diagonal blocks of the joined (heads, users)
        joined_weights = np.zeros((cat.n_heads, cat.n_users))
        floor, cross = cat.noise_floor(p)
        got = {"floor": floor, "cross": cross, "adjoint_cross": cat.adjoint_cross(x),
               "adjoint_same": cat.adjoint_same(x), "sinr": cat.sinr(p)}
        at = heads = users = 0
        for ent, w_i in zip(lists, weights):
            joined_weights[heads:heads + ent.n_heads, users:users + ent.n_users] = w_i
            heads, users = heads + ent.n_heads, users + ent.n_users
        rates = cat.user_rates(p, joined_weights)
        users = 0
        for ent, p_i, x_i, w_i in zip(lists, powers, xs, weights):
            sl = slice(at, at + len(ent))
            floor_i, cross_i = ent.noise_floor(p_i)
            own = {"floor": floor_i, "cross": cross_i, "adjoint_cross": ent.adjoint_cross(x_i),
                   "adjoint_same": ent.adjoint_same(x_i), "sinr": ent.sinr(p_i)}
            for name, value in own.items():
                assert np.array_equal(got[name][sl], value), name
            assert np.array_equal(rates[users:users + ent.n_users], ent.user_rates(p_i, w_i))
            assert np.array_equal(cat.flat[sl], ent.flat)
            at, users = at + len(ent), users + ent.n_users


class TestPower:
    def test_static_floor_constants(self):
        # 3 W fiber at the macro site, 1 W per low-power head, 0.1 W / 3 W
        # circuits, two low-power heads: 3 + 2 + 0.2 + 3
        cfg = make_config(m=3, k=2, n=2)
        assert total_power(model.zeros_like_alloc(cfg), cfg) == pytest.approx(8.2)

    def test_amplifier_term(self):
        cfg = make_config(m=3, k=2, n=2, p_max=[4.0, 4.0, 4.0])
        alloc = model.zeros_like_alloc(cfg)
        alloc.p[1, 0, 0] = 1.0  # one elastic watt on a low-power head, eta=2
        assert total_power(alloc, cfg) == pytest.approx(10.2)

    def test_single_tier(self):
        cfg = make_config(m=1, k=1, n=1, eta=[4.0])
        alloc = model.zeros_like_alloc(cfg)
        assert total_power(alloc, cfg) == pytest.approx(6.0)
        alloc.p[0, 0, 0] = 0.5
        assert total_power(alloc, cfg) == pytest.approx(6.0 + 4.0 * 0.5)

    def test_streaming_power_excluded(self):
        cfg = make_config(m=1, k=2, n=1, streaming=(0,))
        alloc = model.zeros_like_alloc(cfg)
        alloc.p[0, 0, 0] = 1.0  # streaming user power is not in the model
        assert total_power(alloc, cfg) == pytest.approx(cfg.static_power())


class TestEnergyEfficiency:
    def test_zero_rate(self, small_cfg, small_channel):
        rep = energy_efficiency(model.zeros_like_alloc(small_cfg), small_channel, small_cfg)
        assert rep.ee == 0.0
        assert rep.total_power >= small_cfg.static_power()

    def test_identity(self, small_cfg, small_channel):
        rng = np.random.default_rng(3)
        alloc = PowerAllocation(p=rng.uniform(0, 0.3, small_channel.gamma.shape))
        rep = energy_efficiency(alloc, small_channel, small_cfg)
        assert rep.ee * rep.total_power == pytest.approx(rep.sum_rate, rel=1e-12)

    def test_surplus_is_the_reports(self, small_cfg, small_channel):
        rng = np.random.default_rng(4)
        alloc = PowerAllocation(p=rng.uniform(0, 0.3, small_channel.gamma.shape))
        rep = energy_efficiency(alloc, small_channel, small_cfg)
        assert rep.surplus(0.7) == rep.sum_rate - 0.7 * rep.total_power
        assert model.surplus(alloc, small_channel, small_cfg, 0.7) == rep.surplus(0.7)

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf, -1.0])
    def test_surplus_rejects_a_bad_parameter(self, small_cfg, small_channel, e):
        alloc = model.zeros_like_alloc(small_cfg)
        rep = energy_efficiency(alloc, small_channel, small_cfg)
        with pytest.raises(ValueError, match="efficiency parameter"):
            rep.surplus(e)
        with pytest.raises(ValueError, match="efficiency parameter"):
            model.surplus(alloc, small_channel, small_cfg, e)


class TestDecodeOrder:
    def test_built_once_per_channel(self, monkeypatch):
        # the decode order depends on the gains alone: one solve plus the
        # feasibility check must build the rank once
        build = ChannelState.__dict__["rank"].func
        builds = []

        def counted(ch):
            builds.append(id(ch))
            return build(ch)

        prop = functools.cached_property(counted)
        prop.__set_name__(ChannelState, "rank")
        monkeypatch.setattr(ChannelState, "rank", prop)
        cfg = make_config(m=2, k=4, n=4, streaming=(0,))
        ch = make_channel(cfg, seed=3)
        trace = dinkelbach.solve(ch, cfg, ScaleSolver())
        check_feasibility(trace.final_allocation, ch, cfg)
        assert builds == [id(ch)]

    def test_cached_arrays_stay_per_entry(self):
        # no K x K structure per (m, n): after a solve and its check, every
        # array the channel holds has at most one value per (m, k, n)
        cfg = make_config(m=2, k=4, n=4, streaming=(0,))
        ch = make_channel(cfg, seed=3)
        trace = dinkelbach.solve(ch, cfg, ScaleSolver())
        check_feasibility(trace.final_allocation, ch, cfg)
        sizes = {name: value.size for name, value in vars(ch).items()
                 if isinstance(value, np.ndarray)}
        assert "rank" in sizes
        assert max(sizes.values()) <= ch.gamma.size, sizes

    @staticmethod
    def _channel_and_support(m, k, n, seed, ties):
        rng = np.random.default_rng(seed)
        shape = (m, k, n)
        if ties:
            gamma = rng.choice([1e-8, 1e-7], size=shape)
        else:
            gamma = rng.exponential(1e-7, shape)
        sigma = rng.uniform(1e-14, 1e-13, shape)
        support = rng.uniform(size=shape) < rng.choice([0.3, 0.7, 1.0])
        return ChannelState(gamma=gamma, sigma=sigma), support, rng

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 3), k=st.integers(1, 5), n=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    @example(m=2, k=1, n=3, seed=0, ties=True)  # one user: no pairs
    def test_support_pairs_match_brute_force(self, m, k, n, seed, ties):
        # every pair of supported users on one (m, n), in (m, a, b, n)
        # order, the larger gain strong, ties toward the lower index a
        ch, support, _ = self._channel_and_support(m, k, n, seed, ties)
        expected = []
        for mm, a, b, nn in itertools.product(range(m), range(k), range(k), range(n)):
            if a < b and support[mm, a, nn] and support[mm, b, nn]:
                s, w = (a, b) if ch.gamma[mm, a, nn] >= ch.gamma[mm, b, nn] else (b, a)
                expected.append((mm, s, w, nn))
        pairs = model.support_pairs(ch, support)
        assert len(pairs) == len(expected)
        m_s, k_s, n_s = np.unravel_index(pairs.strong, support.shape)
        m_w, k_w, n_w = np.unravel_index(pairs.weak, support.shape)
        assert np.array_equal(m_s, m_w) and np.array_equal(n_s, n_w)
        assert list(zip(m_s.tolist(), k_s.tolist(), k_w.tolist(), n_s.tolist())) == expected
        g_s, g_w = ch.gamma[m_s, k_s, n_s], ch.gamma[m_w, k_w, n_w]
        s_s, s_w = ch.sigma[m_s, k_s, n_s], ch.sigma[m_w, k_w, n_w]
        assert np.array_equal(pairs.g_s, g_s) and np.array_equal(pairs.g_w, g_w)
        assert np.array_equal(pairs.noise, g_w * s_s - g_s * s_w)
        assert np.array_equal(pairs.noise_scale, g_w * s_s + g_s * s_w)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 3), k=st.integers(1, 5), n=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    def test_pair_margins_over_leading_axes(self, m, k, n, seed, ties):
        # a (5, M, K, N) stack gives exactly what its slices give
        ch, support, rng = self._channel_and_support(m, k, n, seed, ties)
        pairs = model.support_pairs(ch, support)
        x = rng.uniform(size=(5, m, k, n))
        x_s, x_w = pairs.sides(x)
        omega, scale = model.pair_margins(pairs, x)
        assert omega.shape == scale.shape == x_s.shape == (5, len(pairs))
        for g in range(5):
            assert np.array_equal(x_s[g], x[g].reshape(-1)[pairs.strong])
            assert np.array_equal(x_w[g], x[g].reshape(-1)[pairs.weak])
            omega1, scale1 = model.pair_margins(pairs, x[g])
            assert np.array_equal(omega[g], omega1) and np.array_equal(scale[g], scale1)

    def test_pairs_follow_the_mask(self):
        cfg = make_config(m=2, k=4, n=3)
        # all gains tied (the lower index decodes first), then random gains
        for ch in (uniform_channel(cfg, 1.0), make_channel(cfg, seed=5)):
            full = np.ones(ch.gamma.shape, dtype=bool)
            pairs = model.support_pairs(ch, full)
            assert len(pairs) == 2 * 6 * 3
            m_s, k_s, n_s = np.unravel_index(pairs.strong, full.shape)
            m_w, k_w, n_w = np.unravel_index(pairs.weak, full.shape)
            assert np.array_equal(m_s, m_w) and np.array_equal(n_s, n_w)
            # the strong member has the larger gain, or an equal one and the
            # lower index
            g_s, g_w = ch.gamma[m_s, k_s, n_s], ch.gamma[m_w, k_w, n_w]
            assert np.all((g_s > g_w) | ((g_s == g_w) & (k_s < k_w)))
            for m, n in itertools.product(range(2), range(3)):
                here = (m_s == m) & (n_s == n)
                found = {(min(a, b), max(a, b)) for a, b in zip(k_s[here], k_w[here])}
                assert found == set(itertools.combinations(range(4), 2))

    def test_single_user_has_no_pairs(self):
        ch = uniform_channel(make_config(m=2, k=1, n=3), 1.0)
        pairs = model.support_pairs(ch, np.ones(ch.gamma.shape, dtype=bool))
        assert len(pairs) == 0
        assert pairs.strong.shape == pairs.weak.shape == (0,)


class TestSicMargin:
    def test_symmetric_zero(self):
        cfg = make_config(m=2, k=2, n=1)
        shape = (2, 2, 1)
        ch = ChannelState(gamma=np.ones(shape), sigma=np.ones(shape))
        alloc = PowerAllocation(p=np.zeros(shape))
        # equal gains, equal noise, no cross power: the margin vanishes;
        # ties orient toward the lower index, so (0, 1) is the valid order
        assert sic_margin(alloc, ch, 0, 0, 1, 0) == pytest.approx(0.0)

    def test_sign_forced_without_cross_power(self):
        cfg = make_config(m=1, k=2, n=1)
        shape = (1, 2, 1)
        gamma = np.array([3.0, 1.0]).reshape(shape)
        ch = ChannelState(gamma=gamma, sigma=np.ones(shape))
        alloc = PowerAllocation(p=np.zeros(shape))
        # gamma_weak*sigma - gamma_strong*sigma = 1 - 3 < 0
        assert sic_margin(alloc, ch, 0, 0, 1, 0) == pytest.approx(-2.0)

    def test_order_precondition(self):
        cfg = make_config(m=1, k=2, n=1)
        shape = (1, 2, 1)
        gamma = np.array([3.0, 1.0]).reshape(shape)
        ch = ChannelState(gamma=gamma, sigma=np.ones(shape))
        alloc = PowerAllocation(p=np.zeros(shape))
        with pytest.raises(ValueError):
            sic_margin(alloc, ch, 0, 1, 0, 0)  # wrong orientation
        with pytest.raises(ValueError):
            sic_margin(alloc, ch, 0, 1, 1, 0)

    def test_sign_agrees_with_direct_comparison(self):
        # oracle: the weak user's signal measured at the strong user must be
        # at least as clean as at its own receiver (cross interference only)
        cfg = make_config(m=2, k=2, n=1)
        rng = np.random.default_rng(11)
        for trial in range(50):
            ch = make_channel(cfg, seed=100 + trial)
            p = rng.uniform(0, 1.0, ch.gamma.shape)
            alloc = PowerAllocation(p=p)
            cross = model.cross_interference(p, ch)
            for m in range(2):
                # user 0 decodes first on a larger or equal gain
                a, b = (0, 1) if ch.gamma[m, 0, 0] >= ch.gamma[m, 1, 0] else (1, 0)
                omega = sic_margin(alloc, ch, m, a, b, 0)
                at_strong = ch.gamma[m, a, 0] / (ch.sigma[m, a, 0] + cross[m, a, 0])
                at_weak = ch.gamma[m, b, 0] / (ch.sigma[m, b, 0] + cross[m, b, 0])
                assert (omega <= 0) == (at_strong >= at_weak)


class TestFeasibility:
    def test_zero_alloc_reports_only_min_rate(self):
        cfg = make_config(m=2, k=3, n=2, streaming=(0,))
        ch = make_channel(cfg)
        report = check_feasibility(model.zeros_like_alloc(cfg), ch, cfg)
        names = {v.constraint for v in report.violations}
        assert names == {"C13"}

    def test_mask_violation(self, small_cfg, small_channel):
        alloc = model.zeros_like_alloc(small_cfg)
        alloc.p[0, 0, 0] = small_cfg.p_mask[0, 0, 0] * 1.5
        report = check_feasibility(alloc, small_channel, small_cfg)
        assert any(v.constraint == "C4" and v.index == (0, 0, 0)
                   for v in report.violations)

    @pytest.mark.parametrize("cells", ["all", "one"])
    def test_nan_power_is_a_mask_violation(self, small_cfg, small_channel, cells):
        # every comparison with NaN is false, so no bound test alone sees it
        alloc = model.zeros_like_alloc(small_cfg)
        if cells == "all":
            alloc.p[...] = np.nan
        else:
            alloc.p[1, 2, 0] = np.nan
        with np.errstate(invalid="ignore"):
            report = check_feasibility(alloc, small_channel, small_cfg)
        assert not report.ok
        nan_cells = {tuple(map(int, i)) for i in np.argwhere(np.isnan(alloc.p))}
        assert {v.index for v in report.by_constraint("C4")} == nan_cells

    def test_two_rrh_product(self, small_cfg, small_channel):
        alloc = model.zeros_like_alloc(small_cfg)
        alloc.p[0, 0, 0] = small_cfg.p_mask[0, 0, 0]
        alloc.p[1, 0, 1] = small_cfg.p_mask[1, 0, 1]
        report = check_feasibility(alloc, small_channel, small_cfg)
        assert report.by_constraint("C10")

    def test_subcarrier_tuple_product(self):
        cfg = make_config(m=1, k=5, n=1, l_max=3)
        ch = make_channel(cfg)
        alloc = model.zeros_like_alloc(cfg)
        alloc.p[0, :4, 0] = cfg.p_mask[0, :4, 0]
        report = check_feasibility(alloc, ch, cfg)
        assert report.by_constraint("C11")

    def test_budget_violation(self, small_cfg, small_channel):
        alloc = model.zeros_like_alloc(small_cfg)
        alloc.p[...] = small_cfg.p_mask  # sums to K * p_max per head
        report = check_feasibility(alloc, small_channel, small_cfg)
        assert report.by_constraint("C12")


    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 3), k=st.integers(1, 4), n=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), ties=st.booleans(), dense=st.booleans())
    def test_c10_c14_match_scalar_loops(self, m, k, n, seed, ties, dense):
        # dense powers every user on every (m, n): the checker accepts any
        # allocation, not only exclusive ones
        cfg = make_config(m=m, k=k, n=n)
        rng = np.random.default_rng(seed)
        shape = (m, k, n)
        if ties:  # equal gains and equal per-head power peaks
            gamma = rng.choice([1e-8, 1e-7, 1e-6], size=shape)
            p = cfg.p_mask * rng.choice([0.5, 1.0] if dense else [0.0, 0.5, 1.0],
                                        size=shape)
        else:
            gamma = rng.exponential(1e-7, shape) * 10 ** rng.uniform(-2, 2, shape)
            p = (cfg.p_mask * 10 ** rng.uniform(-4, 0, shape)
                 * (dense | (rng.uniform(size=shape) < 0.7)))
        sigma = np.full(shape, cfg.noise_density * cfg.subcarrier_bandwidth)
        ch = ChannelState(gamma=gamma, sigma=sigma)
        alloc = PowerAllocation(p=p)
        report = check_feasibility(alloc, ch, cfg)

        # C14: every powered pair (i decodes j) whose scalar margin breaks the band
        band_tol = cfg.tolerances.c14_rel_tol
        cross = model.cross_interference(p, ch)
        expected = {}
        for mm, i, j, nn in itertools.product(range(m), range(k), range(k), range(n)):
            g_i, g_j = gamma[mm, i, nn], gamma[mm, j, nn]
            decodes = g_i > g_j or (g_i == g_j and i < j)
            if i == j or not decodes or p[mm, i, nn] <= 0 or p[mm, j, nn] <= 0:
                continue
            omega = sic_margin(alloc, ch, mm, i, j, nn)
            scale = (g_j * sigma[mm, i, nn] + g_i * sigma[mm, j, nn]
                     + g_j * cross[mm, i, nn] + g_i * cross[mm, j, nn])
            pp = p[mm, i, nn] * p[mm, j, nn]
            if pp * omega > band_tol * pp * scale:
                expected[(mm, i, j, nn)] = pp * omega
        # same indices, (m, strong, weak, n) order and magnitudes
        got = [(v.index, v.magnitude) for v in report.by_constraint("C14")]
        assert got == list(expected.items())

        # C10: every user with a cross-head power product above rho1
        best = {}
        for kk, a, b, n1, n2 in itertools.product(range(k), range(m), range(m),
                                                  range(n), range(n)):
            if a < b:
                prod = p[a, kk, n1] * p[b, kk, n2]
                best[kk] = max(best.get(kk, -np.inf), prod)
        flagged = {kk for kk, prod in best.items() if prod > cfg.rho1}
        c10 = report.by_constraint("C10")
        assert {v.index[0] for v in c10} == flagged and len(c10) == len(flagged)
        for v in c10:
            kk, a, n1, b, n2 = v.index
            assert a < b
            assert p[a, kk, n1] * p[b, kk, n2] == best[kk]
            assert v.magnitude == best[kk] - cfg.rho1


class TestDeriveBinaries:
    def test_zero_allocation(self, small_cfg):
        rho, a = derive_binaries(model.zeros_like_alloc(small_cfg), small_cfg)
        assert rho.sum() == 0 and a.sum() == 0

    def test_single_serving_head(self, small_cfg):
        alloc = model.zeros_like_alloc(small_cfg)
        alloc.p[1, 2, 0] = 0.1
        rho, a = derive_binaries(alloc, small_cfg)
        assert a[1, 2] == 1 and a.sum() == 1
        assert rho[1, 2, 0] == 1

    def test_top_l_selection(self):
        cfg = make_config(m=1, k=4, n=1, l_max=3)
        alloc = model.zeros_like_alloc(cfg)
        alloc.p[0, :, 0] = [0.4, 0.1, 0.3, 0.2]
        rho, _ = derive_binaries(alloc, cfg)
        assert list(rho[0, :, 0]) == [1, 0, 1, 1]

    def test_invariants_random(self):
        cfg = make_config(m=2, k=6, n=3, l_max=3)
        rng = np.random.default_rng(12)
        for _ in range(20):
            alloc = PowerAllocation(p=rng.uniform(0, 0.3, (2, 6, 3)))
            rho, a = derive_binaries(alloc, cfg)
            assert np.all(rho.sum(axis=1) <= cfg.l_max)
            assert np.all(a.sum(axis=0) <= 1)


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("outer_max", 0), ("s_max", 0), ("v_max", 0),
        ("xi", -1.0), ("xi", float("nan"))])
    def test_bad_tolerance_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            Tolerances(**{name: value})

    @pytest.mark.parametrize("which", ["gamma", "sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channel_rejected(self, which, bad):
        ch = make_channel(make_config())
        arrays = {"gamma": ch.gamma.copy(), "sigma": ch.sigma.copy()}
        arrays[which][0, 1, 0] = bad
        with pytest.raises(ConfigError, match="finite"):
            ChannelState(**arrays)

    @pytest.mark.parametrize("name", ["p_max", "p_mask", "eta", "weights"])
    def test_non_finite_network_array_rejected(self, name):
        cfg = make_config()
        bad = getattr(cfg, name).copy()
        bad.flat[0] = np.nan
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            replace(cfg, **{name: bad})

    @pytest.mark.parametrize("name, value", [
        ("p_fiber_hpn", -5.0), ("p_fiber_lpn", np.nan),
        ("p_circuit_hpn", np.inf), ("p_circuit_lpn", -0.1)])
    def test_bad_static_constant_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite and non-negative"):
            replace(make_config(), **{name: value})

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_static_power_rejected(self, m):
        # with one head the *_lpn constants count for nothing
        zeros = {"p_fiber_hpn": 0.0, "p_circuit_hpn": 0.0}
        if m > 1:
            zeros.update(p_fiber_lpn=0.0, p_circuit_lpn=0.0)
        with pytest.raises(ConfigError, match="static power"):
            replace(make_config(m=m), **zeros)

    def test_mask_above_budget(self):
        cfg = make_config()
        with pytest.raises(ConfigError):
            model.NetworkConfig(
                m_f=cfg.m_f, n_subcarriers=cfg.n_subcarriers,
                subcarrier_bandwidth=cfg.subcarrier_bandwidth, users=cfg.users,
                l_max=cfg.l_max, p_max=cfg.p_max, p_mask=cfg.p_mask * 100,
                eta=cfg.eta, p_fiber_hpn=3.0, p_fiber_lpn=1.0,
                p_circuit_hpn=3.0, p_circuit_lpn=0.1, weights=cfg.weights,
                rrh_positions=cfg.rrh_positions)

    def test_user_kind_rules(self):
        from hcran_noma.model import UserSpec
        from hcran_noma.traffic import TrafficSpec
        spec = TrafficSpec.from_queue(25.0, 125.0, 1024.0)
        with pytest.raises(ConfigError):
            UserSpec(kind="streaming", position=(0.0, 0.0))
        with pytest.raises(ConfigError):
            UserSpec(kind="elastic", position=(0.0, 0.0), traffic=spec)
        with pytest.raises(ConfigError):
            UserSpec(kind="bursty", position=(0.0, 0.0))
