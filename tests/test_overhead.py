from itertools import combinations

import pytest

from hcran_noma.overhead import (_BITS_PER_ITEM, count_centralized,
                                 count_distributed)
from hcran_noma.scenarios import build_config


def cfg_for(m, k, n, streaming=0):
    return build_config(architecture="hcran", k_total=k,
                        k_streaming=min(streaming, k), rng=0, m_f=m - 1,
                        n_subcarriers=n)


def enumerated_multiplier_items(m, k, n, ks, l_max=3):
    """Count multiplier entries by explicitly enumerating index tuples; the
    closed forms in the module must reproduce these numbers."""
    rate = ks
    pair = sum(1 for _ in combinations(range(m), 2)) * k * n * n
    ell = l_max + 1
    tup = m * n * sum(1 for _ in combinations(range(k), ell))
    sic = m * n * sum(1 for _ in combinations(range(k), 2))
    return rate + pair + tup + sic


class TestCentralized:
    def test_unit_network(self):
        cfg = cfg_for(1, 1, 1, streaming=1)
        # channel + power + indicator + serving choice, plus the single
        # streaming-rate multiplier
        assert count_centralized(cfg) == 3 * (1 + 1 + 1 + 1 + 1)

    def test_channel_term(self):
        m, k, n, ks = 3, 4, 8, 2
        cfg = cfg_for(m, k, n, streaming=ks)
        decisions = 2 * m * k * n + m * k
        channel = count_centralized(cfg) - _BITS_PER_ITEM * (
            decisions + enumerated_multiplier_items(m, k, n, ks))
        # the channel term alone is 3 * (M K N) = 288 bits
        assert _BITS_PER_ITEM == 3
        assert channel == 288

    def test_matches_enumeration(self):
        for m, k, n, ks in ((1, 3, 2, 1), (2, 5, 3, 2), (3, 4, 8, 2)):
            cfg = cfg_for(m, k, n, streaming=ks)
            expected = 3 * (m * k * n * 3 + m * k
                            + enumerated_multiplier_items(m, k, n, ks))
            assert count_centralized(cfg) == expected

    def test_linear_terms_double_with_k(self):
        a = cfg_for(2, 4, 4, streaming=0)
        b = cfg_for(2, 8, 4, streaming=0)
        lin = lambda cfg: 3 * (3 * cfg.n_rrh * cfg.n_users * cfg.n_subcarriers
                               + cfg.n_rrh * cfg.n_users)
        assert lin(b) == 2 * lin(a)
        assert count_centralized(b) - count_centralized(a) >= lin(b) - lin(a)


class TestDistributed:
    def test_zero_rounds(self):
        assert count_distributed(cfg_for(2, 4, 4), rounds=0) == 0

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            count_distributed(cfg_for(2, 4, 4), rounds=-1)

    def test_single_head_differs_only_by_channel_feedback(self):
        cfg = cfg_for(1, 5, 4, streaming=2)
        cen = count_centralized(cfg)
        dist = count_distributed(cfg, rounds=1)
        assert cen - dist == 3 * (1 * 5 * 4)

    def test_rounds_scale(self):
        cfg = cfg_for(2, 4, 4)
        assert count_distributed(cfg, rounds=5) == 5 * count_distributed(cfg, 1)


class TestOrderingAndMonotonicity:
    def test_sweep_ordering(self):
        for k in range(4, 41):
            cfg = cfg_for(3, k, 8, streaming=2)
            assert count_centralized(cfg) > count_distributed(cfg, rounds=1)

    def test_monotone_in_sizes(self):
        base = (2, 6, 4)
        for fn in (count_centralized, lambda c: count_distributed(c, 1)):
            ref = fn(cfg_for(*base, streaming=2))
            assert fn(cfg_for(3, 6, 4, streaming=2)) >= ref
            assert fn(cfg_for(2, 7, 4, streaming=2)) >= ref
            assert fn(cfg_for(2, 6, 5, streaming=2)) >= ref
