"""Reference evaluator and constraint checks, written apart from
``hcran_noma.model`` so that the benchmark checks the solver's outputs
against an independent computation.

Arrays are indexed [m, k, n] = (radio head, user, subcarrier).  On each
(m, n) users decode in order of falling channel gain, ties toward the lower
user index; a user is interfered by the same-head users decoded before it
and by everything the other heads send on that subcarrier.
"""

from __future__ import annotations

import math

import numpy as np


def decode_order(gamma: np.ndarray) -> np.ndarray:
    """(M, K, N) user indices per (m, n), strongest first, ties toward the
    lower index (a stable sort keeps equal gains in index order)."""
    return np.argsort(-gamma, axis=1, kind="stable")


def stronger_power(p: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(M, K, N) same-head power of the users decoded before each user."""
    order = decode_order(gamma)
    ranked = np.take_along_axis(p, order, axis=1)
    before = np.zeros_like(ranked)
    before[:, 1:, :] = np.cumsum(ranked, axis=1)[:, :-1, :]
    out = np.empty_like(p)
    np.put_along_axis(out, order, before, axis=1)
    return out


def other_head_power(p: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(M, K, N) power user k receives on subcarrier n from every head other
    than m, each through its own channel to k."""
    totals = p.sum(axis=1)  # (M, N) what each head sends per subcarrier
    out = np.zeros_like(p)
    for m in range(p.shape[0]):
        for j in range(p.shape[0]):
            if j != m:
                out[m] += totals[j][None, :] * gamma[j]
    return out


def sinr(p: np.ndarray, gamma: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    floor = sigma + gamma * stronger_power(p, gamma) + other_head_power(p, gamma)
    return p * gamma / floor


def user_rates(p: np.ndarray, gamma: np.ndarray, sigma: np.ndarray,
               cfg) -> np.ndarray:
    """(K,) weighted rate of each user, bits/s/Hz."""
    rates = np.log2(1.0 + sinr(p, gamma, sigma))
    return (cfg.weights[:, :, None] * rates).sum(axis=(0, 2))


def is_elastic(cfg) -> np.ndarray:
    return np.array([u.kind == "elastic" for u in cfg.users], dtype=bool)


def total_power(p: np.ndarray, cfg) -> float:
    """Static power (fiber and circuit of every head) plus the
    eta-weighted transmit power of the elastic users."""
    static = (cfg.p_fiber_hpn + cfg.p_circuit_hpn
              + cfg.m_f * (cfg.p_fiber_lpn + cfg.p_circuit_lpn))
    elastic_tx = p[:, is_elastic(cfg), :].sum(axis=(1, 2))
    return static + float((cfg.eta * elastic_tx).sum())


def weighted_sum_rate(p: np.ndarray, gamma: np.ndarray, sigma: np.ndarray,
                      cfg) -> float:
    return float(user_rates(p, gamma, sigma, cfg)[is_elastic(cfg)].sum())


def energy_efficiency(p: np.ndarray, gamma: np.ndarray, sigma: np.ndarray,
                      cfg) -> float:
    return weighted_sum_rate(p, gamma, sigma, cfg) / total_power(p, cfg)


def objective(p: np.ndarray, gamma: np.ndarray, sigma: np.ndarray, cfg,
              e: float) -> float:
    """Parametric objective R(p) - e * P(p)."""
    return weighted_sum_rate(p, gamma, sigma, cfg) - e * total_power(p, cfg)


def min_rate(traffic, subcarrier_bandwidth: float) -> float:
    """M/G/1 minimum rate of a streaming user, bits/s/Hz:
    bits * (1 + lam*T + sqrt(1 + (lam*T)^2)) / (2*T) / B."""
    lt = traffic.lam * traffic.t_max
    return (traffic.packet_bits * (1.0 + lt + math.sqrt(1.0 + lt * lt))
            / (2.0 * traffic.t_max) / subcarrier_bandwidth)


def violations(p: np.ndarray, gamma: np.ndarray, sigma: np.ndarray,
               cfg) -> list[str]:
    """One line per broken constraint; empty when the allocation is feasible
    within the config's tolerances."""
    tol = cfg.tolerances
    out: list[str] = []
    m_count, k_count, n_count = p.shape

    if np.any(p < 0):
        out.append(f"mask box: {int(np.sum(p < 0))} negative powers")
    over = p > cfg.p_mask * (1.0 + tol.box_rel_tol)
    if over.any():
        out.append(f"mask box: {int(over.sum())} powers above the mask")

    sums = p.sum(axis=(1, 2))
    for m in np.nonzero(sums > cfg.p_max * (1.0 + tol.box_rel_tol))[0]:
        out.append(f"budget: head {m} sends {sums[m]:.6g} W > {cfg.p_max[m]:.6g} W")

    # one head per user: the largest cross-head product of one user's powers
    # is the product of its two largest per-head peaks
    if m_count > 1:
        peaks = np.sort(p.max(axis=2), axis=0)  # (M, K), ascending over heads
        prod = peaks[-1] * peaks[-2]
        for k in np.nonzero(prod > cfg.rho1)[0]:
            out.append(f"one head per user: user {k} product {prod[k]:.3g} > rho1")

    # at most l_max users per (m, n): product of the l_max+1 largest powers
    ell = cfg.l_max + 1
    if k_count >= ell:
        top = np.sort(p, axis=1)[:, -ell:, :].prod(axis=1)
        for m, n in zip(*np.nonzero(top > cfg.rho2)):
            out.append(f"users per subcarrier: (m={m}, n={n}) product "
                       f"{top[m, n]:.3g} > rho2")

    rates = user_rates(p, gamma, sigma, cfg)
    for k, user in enumerate(cfg.users):
        if user.kind != "streaming":
            continue
        need = min_rate(user.traffic, cfg.subcarrier_bandwidth)
        if rates[k] < need - tol.c13_rate_tol:
            out.append(f"streaming rate: user {k} gets {rates[k]:.6g} < {need:.6g}")

    # cancellation order on every pair of powered users sharing an (m, n)
    cross = other_head_power(p, gamma)
    order = decode_order(gamma)
    for m in range(m_count):
        for n in range(n_count):
            seated = [k for k in order[m, :, n] if p[m, k, n] > 0]
            for a, i in enumerate(seated):
                for j in seated[a + 1:]:  # i decodes before j
                    gi, gj = gamma[m, i, n], gamma[m, j, n]
                    si, sj = sigma[m, i, n], sigma[m, j, n]
                    ci, cj = cross[m, i, n], cross[m, j, n]
                    margin = gj * si - gi * sj + gj * ci - gi * cj
                    scale = gj * si + gi * sj + gj * ci + gi * cj
                    if margin > tol.c14_rel_tol * scale:
                        out.append(f"cancellation order: (m={m}, n={n}) users "
                                   f"{i}->{j} margin {margin:.3g}")
    return out
