"""Experiment scenarios: architectures, channel synthesis and sweep running.

Four deployment archetypes share a 1 km-diameter coverage disc:

hcran   one 42 dBm high-power node at the center plus low-power radio heads
        on a 250 m ring; fiber-fed, cheap circuits (3/1 W fiber, 3/0.1 W
        circuit, amplifier inefficiency 4/2).
cran    low-power fiber-fed heads only (three by default).
hcn     a 42 dBm macro plus two 23 dBm picos, no fiber, heavy circuits
        (10 W / 6.8 W) and inefficiency 4 everywhere.
hpn1    two 42 dBm macros, no fiber, 10 W circuits each.

Channels are Rayleigh-faded path loss: gain = chi * d^-3 with chi unit-mean
exponential, drawn independently per (head, user, subcarrier).  Noise is a
flat -174 dBm/Hz density times the subcarrier bandwidth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dinkelbach, model
from .model import (ChannelState, ConfigError, NetworkConfig, Tolerances,
                    UserSpec, dbm_to_watts)
from .scale import ScaleSolver
from .traffic import TrafficSpec

DISC_RADIUS_M = 500.0
RING_RADIUS_M = 250.0

# per-tier constants: (power dBm, eta, transport W, circuit W).  Transport is
# the node's fronthaul fiber (cloud tiers) or backhaul link (standalone
# tiers): 3 W for the macro-class site, 1 W per small cell, 8 W for a legacy
# macro's backhaul (conservative against reported microwave-link figures).  The slot-0 site of a cloud deployment hosts the baseband
# pool, so "lpn_pool" is a low-power head carrying the aggregation site's
# transport and circuit burn (the macro-site constants) on top of its own.
_TIERS = {
    "hpn": (42.0, 4.0, 3.0, 3.0),
    "lpn": (23.0, 2.0, 1.0, 0.1),
    "lpn_pool": (23.0, 2.0, 3.0 + 1.0, 3.0 + 0.1),
    "mbs": (42.0, 4.0, 8.0, 10.0),
    "pbs": (30.0, 4.0, 1.0, 6.8),
}

ARCHITECTURES = ("hcran", "cran", "hcn", "hpn1")
PICO_RING_RADIUS_M = 330.0  # hotspot picos sit toward the macro cell edge


class PlacementError(ValueError):
    """A user sits exactly on a radio head: the path loss is undefined."""


def _ring_positions(count: int, radius: float, phase: float = 0.0) -> np.ndarray:
    angles = phase + 2.0 * np.pi * np.arange(count) / max(count, 1)
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def _architecture_nodes(architecture: str, m_f: int | None) -> list[tuple[str, np.ndarray]]:
    """(tier, position) per node; slot 0 is the config's high-power slot."""
    if architecture == "hcran":
        n_lpn = 2 if m_f is None else m_f
        nodes = [("hpn", np.zeros(2))]
        ring = _ring_positions(n_lpn, RING_RADIUS_M)
        nodes += [("lpn", ring[i]) for i in range(n_lpn)]
        return nodes
    if architecture == "cran":
        n_nodes = 3 if m_f is None else m_f + 1
        ring = _ring_positions(n_nodes, RING_RADIUS_M, phase=np.pi / 2)
        return [("lpn_pool", ring[0])] + [("lpn", pos) for pos in ring[1:]]
    if architecture == "hcn":
        ring = _ring_positions(2, PICO_RING_RADIUS_M, phase=np.pi / 2)
        return [("mbs", np.zeros(2))] + [("pbs", pos) for pos in ring]
    if architecture == "hpn1":
        ring = _ring_positions(2, RING_RADIUS_M)
        return [("mbs", ring[0]), ("mbs", ring[1])]
    raise ConfigError(f"unknown architecture {architecture!r}; "
                      f"expected one of {ARCHITECTURES}")


def build_config(architecture: str = "hcran", k_total: int = 12,
                 k_streaming: int = 6, rng: np.random.Generator | int = 0,
                 arrival_rate: float = 125.0, queue_packets: float = 25.0,
                 packet_bits: float = 1024.0, l_max: int = 3,
                 n_subcarriers: int = 32, bandwidth_hz: float = 1.0e6,
                 m_f: int | None = None, noise_dbm_hz: float = -174.0,
                 tolerances: Tolerances | None = None,
                 mask_dbm: float | None = None) -> NetworkConfig:
    """Concrete network for one experiment draw: nodes per the architecture,
    users placed uniformly in the coverage disc (streaming users first)."""
    if k_streaming > k_total:
        raise ConfigError("more streaming users than users")
    for key, value in (("arrival_rate", arrival_rate), ("queue_packets", queue_packets),
                       ("packet_bits", packet_bits)):
        if not value > 0:
            raise ConfigError(f"{key} must be positive, got {value!r}")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    nodes = _architecture_nodes(architecture, m_f)
    n_nodes = len(nodes)

    r = DISC_RADIUS_M * np.sqrt(rng.uniform(size=k_total))
    angle = 2.0 * np.pi * rng.uniform(size=k_total)
    positions = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
    traffic = TrafficSpec.from_queue(queue_packets, arrival_rate, packet_bits)
    users = tuple(
        UserSpec(kind="streaming" if k < k_streaming else "elastic",
                 position=(float(positions[k, 0]), float(positions[k, 1])),
                 traffic=traffic if k < k_streaming else None)
        for k in range(k_total))

    p_max = np.array([dbm_to_watts(_TIERS[tier][0]) for tier, _ in nodes])
    eta = np.array([_TIERS[tier][1] for tier, _ in nodes])
    if mask_dbm is None:
        mask = (p_max / n_subcarriers)[:, None, None] * np.ones((n_nodes, k_total,
                                                                 n_subcarriers))
    else:
        mask = np.full((n_nodes, k_total, n_subcarriers), dbm_to_watts(mask_dbm))
    tier0 = nodes[0][0]
    tier_rest = nodes[1][0] if n_nodes > 1 else tier0
    return NetworkConfig(
        m_f=n_nodes - 1,
        n_subcarriers=n_subcarriers,
        subcarrier_bandwidth=bandwidth_hz / n_subcarriers,
        users=users,
        l_max=l_max,
        p_max=p_max,
        p_mask=mask,
        eta=eta,
        p_fiber_hpn=_TIERS[tier0][2],
        p_fiber_lpn=_TIERS[tier_rest][2],
        p_circuit_hpn=_TIERS[tier0][3],
        p_circuit_lpn=_TIERS[tier_rest][3],
        weights=np.ones((n_nodes, k_total)),
        rrh_positions=np.stack([pos for _, pos in nodes]),
        noise_density=dbm_to_watts(noise_dbm_hz),
        tolerances=tolerances or Tolerances(),
    )


def gen_channel(cfg: NetworkConfig, seed) -> ChannelState:
    """Draw a fading realization: gain[m,k,n] = Exp(1) * d(m,k)^-3,
    deterministic for a given seed.  Noise is flat across entries."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    user_pos = np.array([u.position for u in cfg.users])
    diff = cfg.rrh_positions[:, None, :] - user_pos[None, :, :]
    dist = np.linalg.norm(diff, axis=2)  # (M, K)
    if np.any(dist == 0):
        m, k = map(int, np.argwhere(dist == 0)[0])
        raise PlacementError(f"user {k} is coincident with RRH {m}")
    shape = (cfg.n_rrh, cfg.n_users, cfg.n_subcarriers)
    chi = rng.exponential(1.0, size=shape)
    gamma = chi * (dist ** -3.0)[:, :, None]
    sigma = np.full(shape, cfg.noise_density * cfg.subcarrier_bandwidth)
    return ChannelState(gamma=gamma, sigma=sigma)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One simulation campaign: a sweep variable, its values, and everything
    needed to rebuild each draw deterministically."""

    architecture: str = "hcran"
    sweep: str = "users"     # "users" | "streaming" | "arrival" | "lpn" | "none"
    values: tuple = (8, 12, 16)
    k_total: int = 12
    k_streaming: int = 6
    arrival_rate: float = 125.0
    l_max: int = 3           # 1 reproduces the orthogonal baseline
    n_subcarriers: int = 32
    bandwidth_hz: float = 1.0e6
    m_f: int | None = None   # low-power heads; None keeps the architecture's count
    mask_dbm: float | None = None  # None: mask = budget / N
    noise_dbm_hz: float = -174.0
    queue_packets: float = 25.0
    packet_bits: float = 1024.0
    tolerances: Tolerances = field(default_factory=Tolerances)
    draws: int = 50
    seed: int = 1
    solver: str = "scale"    # "scale" | "polyblock"
    workers: int = 1
    include_timing: bool = False

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.sweep not in ("users", "streaming", "arrival", "lpn", "none"):
            raise ConfigError(f"unknown sweep variable {self.sweep!r}")
        if self.solver not in ("scale", "polyblock"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        for name in ("draws", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.sweep in ("users", "streaming", "lpn"):
            # a count sweep runs int(value): a fraction would mislabel its row
            for value in self.values:
                if not float(value).is_integer():
                    raise ConfigError(f"values of a {self.sweep} sweep must be "
                                      f"whole numbers, got {value!r}")


@dataclass
class DrawResult:
    value: float
    draw: int
    feasible: bool
    # the Dinkelbach status ("converged", "cap" or "stalled"), or
    # "infeasible" when the first inner solve found no allocation
    status: str
    ee: float = float("nan")
    sum_rate: float = float("nan")
    power: float = float("nan")
    iterations: int = 0
    wall_s: float = 0.0


@dataclass
class SweepRow:
    value: float
    mean_ee: float
    mean_rate: float
    mean_power: float
    mean_iterations: float
    n_feasible: int
    n_draws: int
    mean_wall_s: float


def _draw_rng(scenario: Scenario, value, draw: int) -> np.random.Generator:
    # the stream depends on (campaign seed, draw) only: sweep points and
    # architectures share user drops, so curves are compared under common
    # random numbers and trends resolve at far fewer draws
    return np.random.default_rng([scenario.seed, draw])


def _config_for(scenario: Scenario, value, rng: np.random.Generator) -> NetworkConfig:
    kw = dict(architecture=scenario.architecture, k_total=scenario.k_total,
              k_streaming=scenario.k_streaming, rng=rng,
              arrival_rate=scenario.arrival_rate,
              queue_packets=scenario.queue_packets,
              packet_bits=scenario.packet_bits, l_max=scenario.l_max,
              n_subcarriers=scenario.n_subcarriers,
              bandwidth_hz=scenario.bandwidth_hz, m_f=scenario.m_f,
              noise_dbm_hz=scenario.noise_dbm_hz,
              tolerances=scenario.tolerances, mask_dbm=scenario.mask_dbm)
    if scenario.sweep == "users":
        kw["k_total"] = int(value)
    elif scenario.sweep == "streaming":
        kw["k_streaming"] = int(value)
    elif scenario.sweep == "arrival":
        kw["arrival_rate"] = float(value)
    elif scenario.sweep == "lpn":
        kw["m_f"] = int(value)
    return build_config(**kw)


def _draw_instance(scenario: Scenario, value, draw: int) -> tuple[ChannelState,
                                                                   NetworkConfig]:
    rng = _draw_rng(scenario, value, draw)
    cfg = _config_for(scenario, value, rng)
    return gen_channel(cfg, rng), cfg


def _draw_result(value, draw: int, ch: ChannelState, cfg: NetworkConfig,
                 trace: dinkelbach.DinkelbachTrace | None) -> DrawResult:
    """The draw's record of its solve; no trace when the first inner solve
    found no allocation."""
    if trace is None or trace.status == "infeasible":
        return DrawResult(value=value, draw=draw, feasible=False, status="infeasible")
    report = trace.final_report
    feasible = model.check_feasibility(trace.final_allocation, ch, cfg).ok
    return DrawResult(value=value, draw=draw, feasible=feasible, status=trace.status,
                      ee=report.ee, sum_rate=report.sum_rate, power=report.total_power,
                      iterations=len(trace.iterations))


def run_draw(scenario: Scenario, value, draw: int) -> DrawResult:
    """Solve one channel realization of one sweep point."""
    t0 = time.perf_counter()
    ch, cfg = _draw_instance(scenario, value, draw)
    if scenario.solver == "polyblock":
        from .polyblock import PolyblockSolver
        inner = PolyblockSolver(allow_high_dim=True)
    else:
        inner = ScaleSolver()
    try:
        trace = dinkelbach.solve(ch, cfg, inner)
    except dinkelbach.InfeasibleProblemError:
        trace = None
    result = _draw_result(value, draw, ch, cfg, trace)
    result.wall_s = time.perf_counter() - t0
    return result


def run_draws(scenario: Scenario, points: list[tuple]) -> list[DrawResult]:
    """Solve the draws ``points``, (value, draw) each, of one scenario as one
    lockstep batch (``dinkelbach.solve_many``), with ``run_draw``'s results
    bit for bit.  A draw's ``wall_s`` is the time spent on it alone (its
    config, channel and final check), what its inner solves were charged
    (``SolveStats.wall_time``: their own time and their shares of each
    lockstep step) and an even share of the rest of the batched solve, so
    the draws' ``wall_s`` sum to the batch's wall time.  The polyblock
    oracle has nothing to batch, so its draws run one at a time."""
    if scenario.solver == "polyblock":
        return [run_draw(scenario, value, draw) for value, draw in points]
    t = time.perf_counter()
    spent, instances = [], []
    for value, draw in points:
        instances.append(_draw_instance(scenario, value, draw))
        now = time.perf_counter()
        spent.append(now - t)
        t = now
    traces = dinkelbach.solve_many(instances, ScaleSolver())
    now = time.perf_counter()
    charged = [sum(it.inner_stats.wall_time for it in trace.iterations)
               + (trace.failed_stats.wall_time if trace.failed_stats else 0.0)
               for trace in traces]
    rest = (now - t - sum(charged)) / len(points)
    t = now
    results = []
    for (value, draw), (ch, cfg), trace, own, inner in zip(points, instances, traces,
                                                           spent, charged):
        result = _draw_result(value, draw, ch, cfg, trace)
        now = time.perf_counter()
        result.wall_s = own + inner + rest + now - t
        t = now
        results.append(result)
    return results


def _run_draws_star(args) -> list[DrawResult]:
    return run_draws(*args)


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """All sweep points, each averaged over the scenario's channel draws.
    With workers > 1 the draws are dealt round-robin into one batch per
    worker process, each solved in lockstep (``run_draws``); results are
    aggregated in deterministic (value, draw) order either way."""
    points = [(value, draw) for value in scenario.values for draw in range(scenario.draws)]
    n_batches = min(scenario.workers, len(points))
    if n_batches > 1:
        # imported here: multiprocessing costs every importer memory and time
        from concurrent.futures import ProcessPoolExecutor
        batches = [(scenario, points[i::n_batches]) for i in range(n_batches)]
        results = [None] * len(points)
        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            for i, batch in enumerate(pool.map(_run_draws_star, batches)):
                results[i::n_batches] = batch
    else:
        results = [run_draw(scenario, value, draw) for value, draw in points]

    rows = []
    for value in scenario.values:
        group = [r for r in results if r.value == value]
        good = [r for r in group if r.feasible]
        if good:
            rows.append(SweepRow(
                value=float(value),
                mean_ee=float(np.mean([r.ee for r in good])),
                mean_rate=float(np.mean([r.sum_rate for r in good])),
                mean_power=float(np.mean([r.power for r in good])),
                mean_iterations=float(np.mean([r.iterations for r in good])),
                n_feasible=len(good), n_draws=len(group),
                mean_wall_s=float(np.mean([r.wall_s for r in good]))))
        else:
            rows.append(SweepRow(value=float(value), mean_ee=float("nan"),
                                 mean_rate=float("nan"), mean_power=float("nan"),
                                 mean_iterations=0.0, n_feasible=0,
                                 n_draws=len(group), mean_wall_s=0.0))
    return rows


# ---------------------------------------------------------------------------
# tiny instances for the optimality-gap study
# ---------------------------------------------------------------------------

@dataclass
class TinyInstance:
    cfg: NetworkConfig
    ch: ChannelState
    e: float


def tiny_instance(rng: np.random.Generator, with_streaming: bool | None = None,
                  sizes: tuple = ((1, 2), (2, 3), (1, 2))) -> TinyInstance:
    """Random desk-scale instance (1-2 heads, 2-3 users, 1-2 subcarriers) for
    comparing the local solver against the global oracle at a fixed e."""
    m_choices, k_choices, n_choices = sizes
    m_count = int(rng.choice(m_choices))
    k_total = int(rng.choice(k_choices))
    n_sub = int(rng.choice(n_choices))
    if with_streaming is None:
        with_streaming = bool(rng.uniform() < 0.3)
    k_streaming = 1 if (with_streaming and k_total > 1) else 0
    cfg = build_config(architecture="hcran" if m_count > 1 else "cran",
                       k_total=k_total, k_streaming=k_streaming, rng=rng,
                       arrival_rate=50.0, l_max=3, n_subcarriers=n_sub,
                       bandwidth_hz=31250.0 * n_sub, m_f=m_count - 1)
    ch = gen_channel(cfg, rng)
    e = float(rng.uniform(0.0, 2.0))
    return TinyInstance(cfg=cfg, ch=ch, e=e)


def grid_oracle(inst: TinyInstance, levels: int = 20) -> float:
    """Brute-force maximum of R(p) - e*P(p) on a uniform power grid, honoring
    the budget, pair-product, tuple-product, minimum-rate and cancellation
    constraints.  Exponential in the tensor size: tiny instances only.
    Returns -inf when no grid point is feasible."""
    cfg, ch, e = inst.cfg, inst.ch, inst.e
    shape = (cfg.n_rrh, cfg.n_users, cfg.n_subcarriers)
    dims = int(np.prod(shape))
    if levels ** dims > 4e8:
        raise ValueError(f"grid of {levels}^{dims} points is too large")
    axes = [np.linspace(0.0, cfg.p_mask.reshape(-1)[i], levels) for i in range(dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    p = np.stack([m.reshape(-1) for m in mesh], axis=1).reshape(-1, *shape)

    ok = np.all(p.sum(axis=(2, 3)) <= cfg.p_max[None, :] * (1 + 1e-12), axis=1)
    if cfg.n_rrh > 1:
        peak = p.max(axis=3)  # (G, M, K)
        top2 = np.sort(peak, axis=1)[:, -2:, :]
        ok &= np.all(top2[:, 0, :] * top2[:, 1, :] <= cfg.rho1, axis=1)
    ell = cfg.l_max + 1
    if cfg.n_users >= ell:
        top = np.sort(p, axis=2)[:, :, -ell:, :]
        ok &= np.all(top.prod(axis=2) <= cfg.rho2, axis=(1, 2))

    rates = model.rate_array(p, ch)  # (G, M, K, N)

    streaming = cfg.streaming_users()
    if streaming:
        per_user = np.einsum("mk,gmkn->gk", cfg.weights, rates)
        min_rates = cfg.min_rates()
        ok &= np.all(per_user[:, streaming] >= min_rates[None, streaming]
                     - cfg.tolerances.c13_rate_tol, axis=1)

    pairs = model.support_pairs(ch, np.ones(shape, dtype=bool))
    p_s, p_w = pairs.sides(p)
    omega, scale = model.pair_margins(pairs, model.cross_interference(p, ch))
    bad = p_s * p_w * omega > cfg.tolerances.c14_rel_tol * p_s * p_w * scale
    ok &= ~bad.any(axis=1)

    if not ok.any():
        return float("-inf")
    elastic = cfg.elastic_mask()
    value = np.einsum("gmkn,mk->g", rates, cfg.weights * elastic[None, :])
    dyn = p[:, :, elastic, :].sum(axis=(2, 3))
    value = value - e * (cfg.static_power() + dyn @ cfg.eta)
    return float(value[ok].max())
