"""System model: topology, channels, powers, rates, energy efficiency.

Conventions used throughout the package:

* RRH index 0 is the high-power tier node; indices 1..m_f are the low-power
  remote radio heads.  Architectures without a genuine HPN reuse slot 0 with
  reinterpreted static-power constants.
* All powers are linear watts (dBm inputs are converted at config build).
* Arrays are indexed [m, k, n] = (RRH, user, subcarrier).
* Rates are bits/s/Hz per subcarrier; the sum rate is therefore a
  bandwidth-normalized quantity and energy efficiency is rate per watt.

Superposition decoding rule: on a given (m, n), a user is interfered by
same-RRH users with *stronger* channels (their signals cannot be cancelled)
and by every user of every other RRH.  Channel ties are broken by user index
(lower index counts as stronger) so the decode order is a strict total order.
The order depends on the channel gains alone, so ``ChannelState`` holds it:
``ch.rank`` is each user's (M, K, N) place in the decode order of its (m, n),
0 for the strongest, built once per channel on first use, and the one place
the tie rule is written.  The cancellation-order condition binds only on
users that share a powered (m, n), so its pairs are listed per support:
``support_pairs`` gives the pairs of a bool (M, K, N) support as one flat
``SupportPairs`` list, oriented by the rank, with their constants, and
``pair_margins`` is their one vectorised margin.  The inner solver lists the
pairs its start seats, the repair those of its current support, the checker
those of the powered entries, and the desk-scale oracles every pair.

This module owns the interference sums.  Over the dense arrays each takes
powers with any leading axes (..., M, K, N): ``other_heads`` sums over the
other heads with the own head at an exact zero weight,
``cross_interference`` is the power received from the other heads, and
``noise_floor`` adds the same-head stronger users, an exclusive prefix sum
in decode order, and the noise.  The SINR, the rates, the checker, the
polyblock bounds and the grid oracle read them.  The inner solver reads
``SeatedEntries`` instead: the entries of a support as one flat list
(``seated_entries``), whose floor, SINRs, per-user rates and adjoint
same-head and other-head sums run over the support's pairs and over one
link per entry and other head, so they cost O(M*E + L) for E entries and L
pairs and count nothing off the support.  Its rounds and sweeps run on the
entries their start seats, the streaming trim and boost of its repair on
those of the repair's current support.  No sum builds more than
(..., M, K, N) values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .traffic import TrafficSpec

LN2 = float(np.log(2.0))


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


class ConfigError(ValueError):
    """Raised when a configuration violates a structural invariant."""


@dataclass(frozen=True)
class UserSpec:
    """One user: service class, planar position, and (for streaming) traffic."""

    kind: str  # "elastic" | "streaming"
    position: tuple[float, float]  # meters
    traffic: TrafficSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("elastic", "streaming"):
            raise ConfigError(f"unknown user kind {self.kind!r}")
        if self.kind == "streaming" and self.traffic is None:
            raise ConfigError("streaming users need a TrafficSpec")
        if self.kind == "elastic" and self.traffic is not None:
            raise ConfigError("elastic users carry no TrafficSpec")


@dataclass(frozen=True)
class Tolerances:
    """Solver stopping rules and constraint slacks.

    rho1/rho2 are the slack levels of the product-form selection constraints
    (one RRH per user; at most l_max users per subcarrier).  When left None
    they are derived from the spectral mask: 1e-6 * max_mask^2 for the pair
    products and 1e-6 * max_mask^(l_max+1) for the tuple products.
    """

    xi: float = 0.01          # fractional-programming stop on the surplus
    varpi1_rel: float = 1e-4  # inner power-sweep stop, relative to max p_max
    varpi2_rel: float = 1e-3  # convex-approximation round stop, same scale
    s_max: int = 20           # max approximation refresh rounds
    v_max: int = 120          # max power/dual sweeps per round
    outer_max: int = 30       # max fractional-programming iterations
    rho1: float | None = None
    rho2: float | None = None
    c13_rate_tol: float = 1e-6  # bits/s/Hz band on min-rate feasibility
    c14_rel_tol: float = 1e-9   # relative band on the SIC margin products
    box_rel_tol: float = 1e-9   # relative band on mask/budget checks

    def __post_init__(self) -> None:
        for name in ("s_max", "v_max", "outer_max"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("xi", "varpi1_rel", "varpi2_rel", "c13_rate_tol",
                     "c14_rel_tol", "box_rel_tol"):
            if not 0.0 <= getattr(self, name) < np.inf:  # also rejects NaN
                raise ConfigError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class NetworkConfig:
    """Static topology, budgets, traffic and solver tolerances.

    p_max, eta are per RRH; p_mask is per (m, k, n).  Fiber/circuit constants
    are split by tier: slot 0 uses the *_hpn values, slots 1..m_f the *_lpn
    values.  weights w[m, k] in [0, 1] scale each user's rate contribution.
    """

    m_f: int
    n_subcarriers: int
    subcarrier_bandwidth: float  # Hz
    users: tuple[UserSpec, ...]
    l_max: int
    p_max: np.ndarray      # (M,) W
    p_mask: np.ndarray     # (M, K, N) W
    eta: np.ndarray        # (M,) amplifier inefficiency multipliers
    p_fiber_lpn: float     # W
    p_fiber_hpn: float     # W
    p_circuit_lpn: float   # W
    p_circuit_hpn: float   # W
    weights: np.ndarray    # (M, K)
    rrh_positions: np.ndarray  # (M, 2) meters
    noise_density: float = dbm_to_watts(-174.0)  # W/Hz
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        m, k, n = self.n_rrh, self.n_users, self.n_subcarriers
        if self.m_f < 0 or n <= 0 or k <= 0:
            raise ConfigError("need at least one RRH, user and subcarrier")
        if self.l_max < 1:
            raise ConfigError("l_max must be >= 1")
        if self.subcarrier_bandwidth <= 0 or self.noise_density <= 0:
            raise ConfigError("bandwidth and noise density must be positive")
        for name in ("p_fiber_hpn", "p_fiber_lpn", "p_circuit_hpn", "p_circuit_lpn"):
            if not 0.0 <= getattr(self, name) < np.inf:  # also rejects NaN
                raise ConfigError(f"{name} must be finite and non-negative")
        if self.static_power() <= 0:  # the efficiency's denominator at zero power
            raise ConfigError("the static power (fiber plus circuit) must be positive")
        for name, arr, shape in (
            ("p_max", self.p_max, (m,)),
            ("p_mask", self.p_mask, (m, k, n)),
            ("eta", self.eta, (m,)),
            ("weights", self.weights, (m, k)),
            ("rrh_positions", self.rrh_positions, (m, 2)),
        ):
            if arr.shape != shape:
                raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite")
        if np.any(self.p_max <= 0) or np.any(self.p_mask <= 0) or np.any(self.eta <= 0):
            raise ConfigError("powers and efficiencies must be strictly positive")
        if np.any(self.p_mask > self.p_max[:, None, None] * (1 + 1e-12)):
            raise ConfigError("p_mask must not exceed the per-RRH budget")
        if np.any(self.weights < 0) or np.any(self.weights > 1):
            raise ConfigError("weights must lie in [0, 1]")
        tol = self.tolerances
        if (tol.rho1 is not None and tol.rho1 <= 0) or (tol.rho2 is not None and tol.rho2 <= 0):
            raise ConfigError("rho1 and rho2 must be positive")

    # -- derived sizes ----------------------------------------------------
    @property
    def n_rrh(self) -> int:
        return self.m_f + 1

    @property
    def n_users(self) -> int:
        return len(self.users)

    def streaming_users(self) -> list[int]:
        return [i for i, u in enumerate(self.users) if u.kind == "streaming"]

    def elastic_mask(self) -> np.ndarray:
        return np.array([u.kind == "elastic" for u in self.users], dtype=bool)

    @property
    def max_mask(self) -> float:
        return float(np.max(self.p_mask))

    @property
    def rho1(self) -> float:
        r = self.tolerances.rho1
        return r if r is not None else 1e-6 * self.max_mask**2

    @property
    def rho2(self) -> float:
        r = self.tolerances.rho2
        return r if r is not None else 1e-6 * self.max_mask ** (self.l_max + 1)

    @property
    def binarization_threshold(self) -> float:
        """Powers at or below this are dropped by the inner solver's repair."""
        return 1e-6 * self.max_mask

    def static_power(self) -> float:
        """Fiber plus circuit floor; consumed regardless of transmit power."""
        return (self.p_fiber_hpn + self.m_f * self.p_fiber_lpn
                + self.m_f * self.p_circuit_lpn + self.p_circuit_hpn)

    def min_rates(self) -> np.ndarray:
        """Per-user minimum rate (bits/s/Hz); zero for elastic users."""
        from .traffic import min_rate_for_delay

        out = np.zeros(self.n_users)
        for k in self.streaming_users():
            out[k] = min_rate_for_delay(self.users[k].traffic, self.subcarrier_bandwidth)
        return out


@dataclass(frozen=True)
class ChannelState:
    """Linear channel power gains and noise powers, both (M, K, N), plus the
    decode order they fix, cached on first use, so gamma and sigma must not
    be modified after construction."""

    gamma: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        if self.gamma.shape != self.sigma.shape or self.gamma.ndim != 3:
            raise ConfigError("gamma and sigma must share an (M, K, N) shape")
        if not (np.all(np.isfinite(self.gamma)) and np.all(np.isfinite(self.sigma))):
            raise ConfigError("channel gains and noise powers must be finite")
        if np.any(self.gamma < 0):
            raise ConfigError("channel power gains must be non-negative")
        if np.any(self.sigma <= 0):
            raise ConfigError("noise powers must be strictly positive")

    @functools.cached_property
    def rank(self) -> np.ndarray:
        """(M, K, N) place of each user in the decode order of its (m, n):
        0 for the strongest channel, ties toward the lower user index.  User
        i's signal interferes with user k on (m, n) iff rank[m, i, n] <
        rank[m, k, n]."""
        k_count = self.gamma.shape[1]
        order = np.argsort(-self.gamma, axis=1, kind="stable")
        rank = np.empty(self.gamma.shape, dtype=np.min_scalar_type(k_count - 1))
        np.put_along_axis(rank, order, np.arange(k_count)[None, :, None], axis=1)
        rank.flags.writeable = False  # every reader of the channel shares it
        return rank


@dataclass(frozen=True)
class SupportPairs:
    """The cancellation-order pairs of a support (``support_pairs``): the
    user pairs whose two members the support holds on one (m, n), oriented
    by the decode order and listed in (m, a, b, n) order, a < b the two
    users.  Every field is (L,), one entry per pair; strong and weak are
    flat indices of the members' entries into (M, K, N) arrays, the strong
    member being the one whose signal the other cannot cancel."""

    strong: np.ndarray
    weak: np.ndarray
    g_s: np.ndarray          # each member's gain on its own head
    g_w: np.ndarray
    noise: np.ndarray        # noise part of the margin, g_w*s_s - g_s*s_w
    noise_scale: np.ndarray  # noise part of its scale, g_w*s_s + g_s*s_w

    def __len__(self) -> int:
        return self.strong.size

    def sides(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x_s, x_w), both (..., L): each member's entry of x (..., M, K, N)."""
        flat = x.reshape(*x.shape[:-3], -1)
        return flat[..., self.strong], flat[..., self.weak]

    def bracket(self, c_s: np.ndarray) -> np.ndarray:
        """Kept part of each margin, g_w*(s_s + C_s) - g_s*s_w, from the
        cross interference C_s at the strong member (any leading axes)."""
        return self.noise + self.g_w * c_s


def support_pairs(ch: ChannelState, support: np.ndarray) -> SupportPairs:
    """Every pair of users that the bool (M, K, N) support holds on the same
    (m, n), each oriented by ``ch.rank``.  Costs O(G*E + L log L) for E
    supported entries, L pairs and G the most users held on one (m, n)."""
    k_count, n_count = ch.gamma.shape[1:]
    m, n, k = np.nonzero(support.transpose(0, 2, 1))  # by (m, n), k rising
    cell = m * n_count + n
    first, second = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for d in range(1, k_count):  # members d places apart in one (m, n) group
        i = np.flatnonzero(cell[d:] == cell[:-d])
        if i.size == 0:
            break
        first.append(i)
        second.append(i + d)
    i, j = np.concatenate(first), np.concatenate(second)
    order = np.lexsort((n[i], k[j], k[i], m[i]))
    i, j = i[order], j[order]
    a = (m[i] * k_count + k[i]) * n_count + n[i]
    b = a + (k[j] - k[i]) * n_count
    gamma, sigma, rank = ch.gamma.reshape(-1), ch.sigma.reshape(-1), ch.rank.reshape(-1)
    a_strong = rank[a] < rank[b]
    strong, weak = np.where(a_strong, a, b), np.where(a_strong, b, a)
    g_s, g_w = gamma[strong], gamma[weak]
    s_s, s_w = sigma[strong], sigma[weak]
    return SupportPairs(strong=strong, weak=weak, g_s=g_s, g_w=g_w,
                        noise=g_w * s_s - g_s * s_w, noise_scale=g_w * s_s + g_s * s_w)


@dataclass(frozen=True)
class SeatedEntries:
    """The entries of a support (``seated_entries``) as one flat list, with
    the index lists that the interference sums over them run on.  Every (E,)
    array holds one value per entry, in flat (M, K, N) order; the sums take
    and return such arrays and count everything off the support as zero.

    The same-head sums run over the support's pairs, whose members are
    stored as positions into the list.  The other-head sums run over the
    links, one per entry and other head j, each carrying head j's gain to
    the entry's user on the entry's subcarrier, so the own head enters with
    an exact zero weight."""

    flat: np.ndarray         # (E,) flat (M, K, N) index, rising
    head: np.ndarray         # (E,) the entry's m and k
    user: np.ndarray
    cell: np.ndarray         # (E,) the entry's (m, n) as m*N + n
    gamma: np.ndarray        # (E,) own-head gain and noise
    sigma: np.ndarray
    pairs: SupportPairs      # the support's pairs, members as flat indices
    strong: np.ndarray       # (L,) the same members as positions in the list
    weak: np.ndarray
    link_entry: np.ndarray   # (X,) the entry of each (other head j, entry) link
    link_cell: np.ndarray    # (X,) (j, n) as j*N + n
    link_gain: np.ndarray    # (X,) gamma[j, k, n] for the entry's k and n
    n_heads: int             # M, K and M*N: the bins of the head, user
    n_users: int             # and cell indices
    n_cells: int

    def __len__(self) -> int:
        return self.flat.size

    def take(self, x: np.ndarray) -> np.ndarray:
        """(..., E): the entries of x (..., M, K, N)."""
        return x.reshape(*x.shape[:-3], -1)[..., self.flat]

    def from_pairs(self, at_strong: np.ndarray | None,
                   at_weak: np.ndarray | None = None) -> np.ndarray:
        """(E,) per-pair values (L,) summed onto the pairs' members:
        at_strong onto each pair's strong member, at_weak onto its weak one."""
        if at_strong is None:
            return np.bincount(self.weak, weights=at_weak, minlength=len(self))
        out = np.bincount(self.strong, weights=at_strong, minlength=len(self))
        if at_weak is not None:
            out += np.bincount(self.weak, weights=at_weak, minlength=len(self))
        return out

    def cross(self, x: np.ndarray) -> np.ndarray:
        """(E,) the sum over the other heads j of gamma[j, k, n] times the
        total of x over head j's entries on n; of powers, the cross
        interference (``cross_interference``)."""
        totals = np.bincount(self.cell, weights=x, minlength=self.n_cells)
        return np.bincount(self.link_entry, weights=self.link_gain * totals[self.link_cell],
                           minlength=len(self))

    def adjoint_cross(self, x: np.ndarray) -> np.ndarray:
        """(E,) the adjoint of ``cross``: at entry (m, k, n), the sum of
        gamma[m, l, n] * x over the entries (j, l, n) of the other heads."""
        at_cell = np.bincount(self.link_cell, weights=self.link_gain * x[self.link_entry],
                              minlength=self.n_cells)
        return at_cell[self.cell]

    def adjoint_same(self, x: np.ndarray) -> np.ndarray:
        """(E,) the sum of x over the entries of the same (m, n) that the
        entry's signal interferes with (those decoded after it), the adjoint
        of the stronger-user sum in ``noise_floor``."""
        return self.from_pairs(x[self.weak])

    def noise_floor(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(floor, cross), both (E,): what ``noise_floor`` gives at the
        entries when p is zero off the support."""
        cross = self.cross(p)
        same = self.from_pairs(None, p[self.strong])
        return self.sigma + self.gamma * same + cross, cross

    def sinr(self, p: np.ndarray) -> np.ndarray:
        """(E,) the post-cancellation SINRs at the entries' powers p (E,)."""
        return p * self.gamma / self.noise_floor(p)[0]

    def user_rates(self, p: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(K,) each user's weighted total rate at the entries' powers p (E,),
        with weights (M, K): ``per_user_rate`` when p is zero off the
        support."""
        rates = weights[self.head, self.user] * np.log2(1.0 + self.sinr(p))
        return np.bincount(self.user, weights=rates, minlength=weights.shape[1])

    @staticmethod
    def concat(parts: "list[SeatedEntries]") -> "SeatedEntries":
        """The parts' entries as one list, each part's head, user and cell
        indices and its positions (pair members, links) offset past the
        parts before it, so every sum above over the list gives each part's
        own sums at its entries, bit for bit: each bin of a ``bincount``
        collects one part's values, in that part's order.  ``flat`` and the
        pairs' ``strong`` and ``weak`` stay each part's own flat indices."""
        def offsets(sizes):
            return np.cumsum([0] + sizes[:-1])

        def joined(name, shift=None):
            arrays = [getattr(part, name) for part in parts]
            if shift is not None:
                arrays = [a + o for a, o in zip(arrays, shift)]
            return np.concatenate(arrays)

        heads = offsets([part.n_heads for part in parts])
        users = offsets([part.n_users for part in parts])
        cells = offsets([part.n_cells for part in parts])
        at = offsets([len(part) for part in parts])
        pairs = SupportPairs(**{f.name: np.concatenate([getattr(part.pairs, f.name)
                                                        for part in parts])
                                for f in fields(SupportPairs)})
        return SeatedEntries(
            flat=joined("flat"), head=joined("head", heads), user=joined("user", users),
            cell=joined("cell", cells), gamma=joined("gamma"), sigma=joined("sigma"),
            pairs=pairs, strong=joined("strong", at), weak=joined("weak", at),
            link_entry=joined("link_entry", at), link_cell=joined("link_cell", cells),
            link_gain=joined("link_gain"), n_heads=sum(part.n_heads for part in parts),
            n_users=sum(part.n_users for part in parts),
            n_cells=sum(part.n_cells for part in parts))


def seated_entries(ch: ChannelState, support: np.ndarray) -> SeatedEntries:
    """The entries of the bool (M, K, N) support, with their pairs
    (``support_pairs``) and other-head links.  Costs O(M*E + L log E) for
    E entries and L pairs on top of ``support_pairs``."""
    m_count, k_count, n_count = ch.gamma.shape
    flat = np.flatnonzero(support)
    head, rest = np.divmod(flat, k_count * n_count)
    sub = rest % n_count
    pairs = support_pairs(ch, support)
    # every head but the entry's own, in rising order
    others = np.arange(m_count - 1)[None, :]
    others = others + (others >= head[:, None])
    link_entry = np.repeat(np.arange(flat.size), m_count - 1)
    link_head = others.reshape(-1)
    gamma = ch.gamma.reshape(-1)
    return SeatedEntries(
        flat=flat, head=head, user=rest // n_count, cell=head * n_count + sub,
        gamma=gamma[flat], sigma=ch.sigma.reshape(-1)[flat],
        pairs=pairs, strong=np.searchsorted(flat, pairs.strong),
        weak=np.searchsorted(flat, pairs.weak), link_entry=link_entry,
        link_cell=link_head * n_count + sub[link_entry],
        link_gain=gamma[flat[link_entry] + (link_head - head[link_entry]) * k_count * n_count],
        n_heads=m_count, n_users=k_count, n_cells=m_count * n_count)


@dataclass
class PowerAllocation:
    """Continuous transmit powers; an entry serves its user where its power
    is positive."""

    p: np.ndarray  # (M, K, N) W

    def copy(self) -> "PowerAllocation":
        return PowerAllocation(p=self.p.copy())


def check_parameter(e: float) -> None:
    """Reject an efficiency parameter that is not finite and non-negative."""
    if not 0.0 <= e < np.inf:  # also rejects NaN
        raise ValueError(f"the efficiency parameter must be finite and "
                         f"non-negative, got {e!r}")


@dataclass(frozen=True)
class EnergyReport:
    sum_rate: float     # weighted elastic bits/s/Hz
    total_power: float  # W
    ee: float           # rate per watt

    def surplus(self, e: float) -> float:
        """Subtractive objective R(p) - e*P(p) of the reported allocation."""
        check_parameter(e)
        return self.sum_rate - e * self.total_power


def zeros_like_alloc(cfg: NetworkConfig) -> PowerAllocation:
    return PowerAllocation(p=np.zeros((cfg.n_rrh, cfg.n_users, cfg.n_subcarriers)))


@functools.cache
def _not_own(m_count: int) -> np.ndarray:
    """(M, M) weights 1 - I, built once per head count and shared."""
    weights = 1.0 - np.eye(m_count)
    weights.flags.writeable = False
    return weights


def other_heads(x: np.ndarray) -> np.ndarray:
    """Sum over the other heads: out[..., m, k, n] = sum_{j != m} x[..., j, k, n]
    for x (..., M, K, N).  The own head enters with an exact zero weight
    instead of being subtracted from an all-head total, so a loud own head
    cannot cancel the others away.  With M = 1 the result is all zeros."""
    return np.einsum("jm,...jkn->...mkn", _not_own(x.shape[-3]), x)


def cross_interference(p: np.ndarray, ch: ChannelState) -> np.ndarray:
    """(..., M, K, N): total power received at user k (channel of RRH m)
    from all users of every other RRH on the same subcarrier."""
    return other_heads(p.sum(axis=-2, keepdims=True) * ch.gamma)


def noise_floor(p: np.ndarray, ch: ChannelState) -> tuple[np.ndarray, np.ndarray]:
    """(floor, cross), both (..., M, K, N) for powers p (..., M, K, N).  floor
    is noise plus the same-head stronger users received through the victim's
    own channel plus ``cross``, everything from the other heads.

    The stronger users' power is an exclusive prefix sum in decode order:
    the powers are placed by ``ch.rank``, summed cumulatively, shifted one
    place and read back by rank.  The shift leaves the own power out exactly;
    a sum minus the own power would lose a quiet stronger user next to a loud
    victim."""
    m_count, _, n_count = ch.gamma.shape
    at = (np.arange(m_count)[:, None, None], ch.rank, np.arange(n_count))
    in_order = np.empty(p.shape)
    in_order[(..., *at)] = p
    same = np.zeros(p.shape)
    np.cumsum(in_order[..., :-1, :], axis=-2, out=same[..., 1:, :])
    same = same[(..., *at)]
    cross = cross_interference(p, ch)
    return ch.sigma + ch.gamma * same + cross, cross


def sinr_array(p: np.ndarray, ch: ChannelState) -> np.ndarray:
    """(..., M, K, N) post-cancellation SINR."""
    return p * ch.gamma / noise_floor(p, ch)[0]


def rate_array(p: np.ndarray, ch: ChannelState) -> np.ndarray:
    """(..., M, K, N) Shannon rates log2(1 + SINR), bits/s/Hz."""
    return np.log2(1.0 + sinr_array(p, ch))


def per_user_rate(alloc: PowerAllocation, ch: ChannelState, cfg: NetworkConfig) -> np.ndarray:
    """(K,) weighted total rate of each user across RRHs and subcarriers."""
    rates = rate_array(alloc.p, ch)
    return np.einsum("mk,mkn->k", cfg.weights, rates)


def weighted_sum_rate(alloc: PowerAllocation, ch: ChannelState, cfg: NetworkConfig) -> float:
    """Weighted sum rate over the elastic users only (the efficiency numerator)."""
    rates = per_user_rate(alloc, ch, cfg)
    return float(rates[cfg.elastic_mask()].sum())


def total_power(alloc: PowerAllocation, cfg: NetworkConfig) -> float:
    """Static fiber+circuit floor plus amplifier draw of the elastic users' power."""
    dyn = alloc.p[:, cfg.elastic_mask(), :].sum(axis=(1, 2))
    return cfg.static_power() + float(np.dot(cfg.eta, dyn))


def energy_efficiency(alloc: PowerAllocation, ch: ChannelState, cfg: NetworkConfig) -> EnergyReport:
    rate = weighted_sum_rate(alloc, ch, cfg)
    power = total_power(alloc, cfg)
    return EnergyReport(sum_rate=rate, total_power=power, ee=rate / power)


def surplus(alloc: PowerAllocation, ch: ChannelState, cfg: NetworkConfig,
            e: float) -> float:
    """Subtractive objective R(p) - e*P(p) at a given allocation."""
    return energy_efficiency(alloc, ch, cfg).surplus(e)


def pair_margins(pairs: SupportPairs, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed margins of the cancellation-order condition over a pair list:
    (omega, scale), both (..., L), from a cross-interference array
    (..., M, K, N), C_x the other heads' power received at member x.

    omega = g_w*(s_s + C_s) - g_s*(s_w + C_w); non-positive means the strong
    member can decode and strip the weak member's signal before its own.
    scale is the sum of the four terms' magnitudes, the normaliser of the
    relative tolerance bands."""
    c_s, c_w = pairs.sides(cross)
    omega = pairs.bracket(c_s) - pairs.g_s * c_w
    scale = pairs.noise_scale + pairs.g_w * c_s + pairs.g_s * c_w
    return omega, scale


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    constraint: str       # "C4", "C10", "C11", "C12", "C13", "C14"
    index: tuple
    magnitude: float      # positive amount by which the constraint is broken


@dataclass
class FeasibilityReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_constraint(self, name: str) -> list[Violation]:
        return [v for v in self.violations if v.constraint == name]

    def __repr__(self) -> str:  # compact: tests print these on failure
        if self.ok:
            return "FeasibilityReport(ok)"
        worst = sorted(self.violations, key=lambda v: -v.magnitude)[:5]
        return f"FeasibilityReport({len(self.violations)} violations; worst={worst})"


def check_feasibility(alloc: PowerAllocation, ch: ChannelState,
                      cfg: NetworkConfig) -> FeasibilityReport:
    """Collect violations of the continuous problem's constraints.

    C4   0 <= p <= mask (exact up to float slack); a NaN power breaks it
    C10  cross-RRH power products of one user stay below rho1
    C11  products over any l_max+1 users on one (m, n) stay below rho2
    C12  per-RRH power budget
    C13  streaming users meet their minimum rates (``cfg.min_rates``)
    C14  active NOMA pairs keep a valid cancellation order

    C10 compares the product of each user's two largest per-head peaks with
    rho1 and reports it as (k, a, n_a, b, n_b), a < b, n_x the peak's
    subcarrier on head x.  C14 runs over the pairs of the powered entries
    (``support_pairs`` of p > 0) and reports them as (m, strong, weak, n),
    in that order.  Apart from the cached decode order, neither builds an
    array larger than (M, K, N) or one entry per powered pair: at most
    C(l_max, 2) per (m, n) when at most l_max users are powered there.
    """
    tol = cfg.tolerances
    p = alloc.p
    out: list[Violation] = []

    # C4: spectral mask box, and NaN powers, which fail every comparison
    over = p - cfg.p_mask * (1 + tol.box_rel_tol)
    for m, k, n in zip(*np.nonzero(over > 0)):
        out.append(Violation("C4", (int(m), int(k), int(n)), float(over[m, k, n])))
    for m, k, n in zip(*np.nonzero((p < 0) | np.isnan(p))):
        out.append(Violation("C4", (int(m), int(k), int(n)),
                             float(-p[m, k, n]) if p[m, k, n] < 0 else np.inf))

    # C10: one user must not carry real power on two RRHs.  The largest
    # cross-head product of a user is the product of its two largest
    # per-head peaks.
    m_count, k_count, n_count = p.shape
    if m_count > 1:
        peaks = p.max(axis=2)  # (M, K)
        top2 = np.sort(peaks, axis=0)[-2:]
        for k in np.nonzero(top2[0] * top2[1] > cfg.rho1)[0]:
            prod = peaks[:, k, None] * peaks[None, :, k]
            np.fill_diagonal(prod, -np.inf)
            a, b = np.unravel_index(np.argmax(prod), prod.shape)  # a < b
            out.append(Violation(
                "C10",
                (int(k), int(a), int(np.argmax(p[a, k])), int(b), int(np.argmax(p[b, k]))),
                float(prod[a, b] - cfg.rho1),
            ))

    # C11: at most l_max users with real power per (m, n); equivalently the
    # product of the top l_max+1 powers stays below rho2.
    ell = cfg.l_max + 1
    if k_count >= ell:
        top = np.sort(p, axis=1)[:, -ell:, :]  # (M, ell, N) largest powers
        prod11 = top.prod(axis=1)
        for m, n in zip(*np.nonzero(prod11 > cfg.rho2)):
            users = tuple(int(u) for u in np.argsort(p[m, :, n])[-ell:])
            out.append(Violation("C11", (int(m), int(n)) + users,
                                 float(prod11[m, n] - cfg.rho2)))

    # C12: per-RRH budget
    sums = p.sum(axis=(1, 2))
    for m in np.nonzero(sums > cfg.p_max * (1 + tol.box_rel_tol))[0]:
        out.append(Violation("C12", (int(m),), float(sums[m] - cfg.p_max[m])))

    # C13: streaming minimum rates
    min_rates = cfg.min_rates()
    rates = per_user_rate(alloc, ch, cfg)
    for k in cfg.streaming_users():
        deficit = min_rates[k] - rates[k]
        if deficit > tol.c13_rate_tol:
            out.append(Violation("C13", (int(k),), float(deficit)))

    # C14: cancellation order on active pairs, normalized by the term scale so
    # the band is dimensionless.
    pairs = support_pairs(ch, p > 0)
    omega, scale = pair_margins(pairs, cross_interference(p, ch))
    p_s, p_w = pairs.sides(p)
    pair_power = p_s * p_w
    lhs = pair_power * omega
    band = tol.c14_rel_tol * pair_power * scale
    hit = np.flatnonzero((lhs > band) & (pair_power > 0))  # not underflowed to 0
    m, k_s, n = np.unravel_index(pairs.strong[hit], p.shape)
    k_w = np.unravel_index(pairs.weak[hit], p.shape)[1]
    rows = np.stack([m, k_s, k_w, n], axis=1)
    order = np.lexsort(rows.T[::-1])  # (m, strong, weak, n) order
    for index, magnitude in zip(rows[order].tolist(), lhs[hit][order].tolist()):
        out.append(Violation("C14", tuple(index), magnitude))

    return FeasibilityReport(out)

