"""The one negative-rejection loop (``Sampler.redraw_observed``).

Each sampler used to run its own loop and re-check the whole batch every
round.  The references below are those loops, kept verbatim: the shared
loop re-checks only the redrawn positions, which gives the same mask, so
every draw and every obs counter must match them.  AoBPR's reference
falls back to uniform with the mask from *before* its last redraw; the
shared loop uses the fresh mask, as ABS and DSS always did.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.mf.params import FactorParams
from repro.obs import MetricsRegistry
from repro.sampling import AdaptiveOversampler, AlphaBetaSampler, UniformSampler
from repro.utils.exceptions import DataError

ROUNDS = 100


def reference_uniform(sampler, users, rng):
    train = sampler.train
    neg_j = rng.integers(0, train.n_items, size=len(users))
    sampler.obs.counter("sampler_draws_total", kind="negative").inc(len(users))
    for _ in range(ROUNDS):
        observed = sampler.contains_pairs(users, neg_j)
        if not observed.any():
            return neg_j
        n_observed = int(observed.sum())
        sampler.obs.counter("sampler_rejections_total", kind="negative").inc(n_observed)
        neg_j[observed] = rng.integers(0, train.n_items, size=n_observed)
    raise DataError("rejection sampling failed to find unobserved items; matrix is too dense")


def reference_aobpr(sampler, users, rng):
    sampler._cache.maybe_refresh()
    factors = sampler._factor_choice(users, rng)
    reverse = sampler.params.user_factors[users, factors] < 0
    ranks = sampler._ranks.draw(rng, len(users))
    neg_j = sampler._cache.items_at(factors, ranks, reverse)
    for _ in range(ROUNDS):
        observed = sampler.contains_pairs(users, neg_j)
        if not observed.any():
            return neg_j
        redo = int(observed.sum())
        ranks = sampler._ranks.draw(rng, redo)
        neg_j[observed] = sampler._cache.items_at(factors[observed], ranks, reverse[observed])
    neg_j[observed] = sampler.sample_negative_uniform(users[observed], rng)
    return neg_j


def reference_abs(sampler, users, rng):
    sampler._cache.maybe_refresh()
    factors = rng.integers(0, sampler.params.n_factors, size=len(users))
    reverse = sampler.params.user_factors[users, factors] < 0
    neg_j = sampler._cache.items_at(factors, sampler._window_ranks(len(users), rng), reverse)
    observed = sampler.contains_pairs(users, neg_j)
    for _ in range(ROUNDS):
        if not observed.any():
            return neg_j
        redo = int(observed.sum())
        neg_j[observed] = sampler._cache.items_at(
            factors[observed], sampler._window_ranks(redo, rng), reverse[observed]
        )
        observed = sampler.contains_pairs(users, neg_j)
    neg_j[observed] = sampler.sample_negative_uniform(users[observed], rng)
    return neg_j


def dense_matrix(n_users=40, n_items=30, density=0.6, seed=0) -> InteractionMatrix:
    """Most draws hit a positive, so most batches take several rounds."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    mask[:, 0] = True  # item 0 is everyone's positive
    mask[:, -1] = False  # the last item is nobody's
    users, items = np.nonzero(mask)
    return InteractionMatrix.from_pairs(list(zip(users, items)), n_users=n_users, n_items=n_items)


CASES = [
    (UniformSampler, "sample_negative_uniform", reference_uniform),
    (lambda: AdaptiveOversampler(tail=0.3), "sample_negative_ranked", reference_aobpr),
    (lambda: AlphaBetaSampler(alpha=0.1, beta=0.6), "sample_negative_windowed", reference_abs),
]


@pytest.mark.parametrize("make, method, reference", CASES, ids=["uniform", "aobpr", "abs"])
def test_draws_and_counters_match_the_per_batch_loops(make, method, reference):
    train = dense_matrix()
    params = FactorParams.init(train.n_users, train.n_items, 6, seed=1)
    shared, own = make(), make()
    shared.obs, own.obs = MetricsRegistry(), MetricsRegistry()
    shared.bind(train, params)
    own.bind(train, params)
    rng_shared, rng_own = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(40):
        users, _ = shared.sample_anchor_pairs(64, rng_shared)
        own.sample_anchor_pairs(64, rng_own)
        drawn = getattr(shared, method)(users, rng_shared)
        np.testing.assert_array_equal(drawn, reference(own, users, rng_own))
        assert not shared.contains_pairs(users, drawn).any()
    assert shared.obs.snapshot() == own.obs.snapshot()
    assert rng_shared.random() == rng_own.random()


def _aobpr_with_scripted_ranks(script):
    """An AoBPR sampler whose ``items_at`` call ``n`` returns ``script(n)``."""
    train = dense_matrix()
    sampler = AdaptiveOversampler().bind(
        train, FactorParams.init(train.n_users, train.n_items, 4, seed=2)
    )
    sampler.obs = MetricsRegistry()
    calls = []

    def items_at(factors, ranks, reverse):
        calls.append(len(factors))
        return np.full(len(factors), script(len(calls)), dtype=np.int64)

    sampler._cache.items_at = items_at
    return sampler, calls


def test_aobpr_keeps_a_last_round_redraw_that_succeeded():
    # Item 0 is observed for every user, the last item for none: the
    # first draw and the next 99 redraws fail, the 100th succeeds.
    last = dense_matrix().n_items - 1
    sampler, calls = _aobpr_with_scripted_ranks(lambda n: last if n == ROUNDS + 1 else 0)
    users = np.arange(16)
    drawn = sampler.sample_negative_ranked(users, np.random.default_rng(0))
    assert len(calls) == ROUNDS + 1
    np.testing.assert_array_equal(drawn, np.full(16, last))
    assert "sampler_draws_total{kind=negative}" not in sampler.obs.snapshot()  # no fallback

    # The per-batch loop threw that redraw away for a uniform one.
    sampler, _ = _aobpr_with_scripted_ranks(lambda n: last if n == ROUNDS + 1 else 0)
    drawn = reference_aobpr(sampler, users, np.random.default_rng(0))
    assert not (drawn == last).all()


def test_aobpr_falls_back_to_uniform_after_the_round_limit():
    sampler, calls = _aobpr_with_scripted_ranks(lambda n: 0)
    users = np.arange(16)
    drawn = sampler.sample_negative_ranked(users, np.random.default_rng(0))
    assert len(calls) == ROUNDS + 1
    assert not sampler.contains_pairs(users, drawn).any()
    assert sampler.obs.snapshot()["sampler_draws_total{kind=negative}"] == 16
