"""Signalling-overhead estimator: centralized vs distributed solving.

Counts the quantized items exchanged per solver round.  Every feedback item
(channel entries, power/indicator entries, multiplier entries) is quantized
with the same small bit budget, 3 bits per item (``_BITS_PER_ITEM``).

Centralized: users feed their channel gains to the central pool, which
returns per-entry powers, subcarrier indicators and serving-node choices, and
distributes the multiplier vectors used for local bookkeeping.

Distributed: each radio head broadcasts only its own slice of the decision
and multiplier state; users feed channels back to their serving head locally,
so the over-the-air channel feedback term disappears and the decision
broadcasts shrink from a dense (M, K, N) tensor to the assigned-user slices
(each user sits on exactly one head).
"""

from __future__ import annotations

from math import comb

from .model import NetworkConfig

_BITS_PER_ITEM = 3


def _multiplier_items(cfg: NetworkConfig) -> int:
    """Total multiplier entries of the paper's formulation, C10 pair
    products and C11 tuple products included.  ``scale`` carries fewer
    families (xi per head, zeta per streaming user, zeta_t per cancellation
    pair), because its exclusive seatings hold C10 and C11.  By family:

    - one per streaming user (minimum-rate constraints):            Ks
    - one per unordered cross-head pair of (subcarrier, subcarrier)
      cells of one user (single-serving-head products):             M(M-1)/2 * K * N^2
    - one per (head, subcarrier, user tuple of size l_max+1)
      (per-subcarrier multiplexing products):                       M * N * C(K, l_max+1)
    - one per (head, subcarrier, unordered user pair)
      (cancellation-order constraints):                             M * N * C(K, 2)
    """
    m = cfg.n_rrh
    k = cfg.n_users
    n = cfg.n_subcarriers
    ks = len(cfg.streaming_users())
    ell = cfg.l_max + 1
    return (ks
            + m * (m - 1) // 2 * k * n * n
            + m * n * comb(k, ell)
            + m * n * comb(k, 2))


def count_centralized(cfg: NetworkConfig) -> int:
    """Bits exchanged per centralized solver round.

    channel feedback   M*K*N entries (every user, every head, every subcarrier)
    power decisions    M*K*N entries
    subcarrier flags   M*K*N entries
    serving choices    M*K   entries
    multipliers        see _multiplier_items
    """
    m, k, n = cfg.n_rrh, cfg.n_users, cfg.n_subcarriers
    channel = m * k * n
    alloc = m * k * n + m * k * n + m * k
    return _BITS_PER_ITEM * (channel + alloc + _multiplier_items(cfg))


def count_distributed(cfg: NetworkConfig, rounds: int) -> int:
    """Bits broadcast over ``rounds`` distributed iterations.

    Per round, each head broadcasts the powers and subcarrier flags of its own
    assigned users (K*N entries in total across heads, since every user has
    one serving head), the K serving choices, and its slice of the multiplier
    state (same total as the centralized count).  Channel gains never travel
    between nodes: users report them to their serving head locally.  The
    initialization broadcast is excluded, so zero rounds cost zero bits.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    k, n = cfg.n_users, cfg.n_subcarriers
    alloc = k * n + k * n + k
    return rounds * _BITS_PER_ITEM * (alloc + _multiplier_items(cfg))
