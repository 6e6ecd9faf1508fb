"""Seeded traffic schedules for the serve workloads.

The load driver owns its inputs: user popularity (Zipf), arrival times
(Poisson) and the request mix are drawn here from the workload seed, so
nothing in ``repro.edge.loadgen`` can move the numbers.  The same seed
always yields the same schedule; the program under test only ever sees
the requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WARM = 0
COLD = 1
FEEDBACK = 2

HISTORY_LEN = 5
MAX_FEEDBACK_ITEMS = 3


@dataclass(frozen=True)
class Mix:
    """Shares of warm recommends, cold recommends and feedback writes."""

    warm: float
    cold: float = 0.0
    feedback: float = 0.0

    def __post_init__(self):
        shares = (self.warm, self.cold, self.feedback)
        if min(shares) < 0 or not np.isclose(sum(shares), 1.0):
            raise ValueError(f"mix shares must be >= 0 and sum to 1, got {shares}")


@dataclass(frozen=True)
class Schedule:
    """``n`` requests in send order.

    ``arrival_s`` is the Poisson due time of each request from the start
    of an open-loop phase (a closed loop ignores it).  ``items`` holds
    the cold-user history (``HISTORY_LEN`` ids) or the feedback items
    (the first ``n_items[t]`` ids) of request ``t``.
    """

    kind: np.ndarray
    user: np.ndarray
    arrival_s: np.ndarray
    items: np.ndarray
    n_items: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)


def zipf_cdf(n: int, exponent: float) -> np.ndarray:
    """Cumulative Zipf(``exponent``) mass over ranks ``1..n``."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def make_schedule(
    seed: int,
    n: int,
    *,
    stream: int,
    warm_users: np.ndarray,
    n_items: int,
    zipf_s: float,
    mix: Mix,
    rate_per_s: float,
    cold_user_base: int,
) -> Schedule:
    """Draw ``n`` requests for the given seed and stream (one per phase).

    Warm and feedback users follow Zipf(``zipf_s``) over a seeded
    permutation of ``warm_users`` (so the popular users are spread over
    the id space, hence over store shards).  Cold users get fresh ids
    from ``cold_user_base`` up, each with ``HISTORY_LEN`` distinct
    history items.  Inter-arrival gaps are exponential at ``rate_per_s``.
    """
    # Popularity belongs to the seed, not the phase: the users the
    # warm-up makes hot are the users the measured phases favour.
    popularity = np.random.default_rng(np.random.SeedSequence([seed, 0x5C4ED]))
    by_rank = popularity.permutation(np.asarray(warm_users, dtype=np.int64))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C4ED, stream]))
    kind = rng.choice(
        np.array([WARM, COLD, FEEDBACK], dtype=np.int8), size=n,
        p=[mix.warm, mix.cold, mix.feedback],
    )
    user = by_rank[np.searchsorted(zipf_cdf(len(by_rank), zipf_s), rng.random(n))]
    cold = np.flatnonzero(kind == COLD)
    user[cold] = cold_user_base + np.arange(len(cold), dtype=np.int64)
    # Distinct ids per row: sorted draws from [0, n_items - HISTORY_LEN]
    # plus 0..HISTORY_LEN-1 are strictly increasing and stay in range.
    draws = np.sort(rng.integers(0, n_items - HISTORY_LEN + 1, size=(n, HISTORY_LEN)), axis=1)
    items = draws + np.arange(HISTORY_LEN, dtype=np.int64)
    n_feedback = rng.integers(1, MAX_FEEDBACK_ITEMS + 1, size=n)
    arrival_s = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))
    return Schedule(kind=kind, user=user, arrival_s=arrival_s, items=items, n_items=n_feedback)

