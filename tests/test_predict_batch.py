"""Properties of the batched scoring engine and the redesigned API.

Two contracts anchor the whole engine:

1. ``predict_batch(users)`` equals stacked ``predict_user(u)`` calls
   *bit-for-bit* for every model in the library, for any batch
   composition (chunk invariance);
2. the chunked / threaded evaluator reproduces the sequential per-user
   protocol's metrics exactly (``==``, not ``approx``).

Plus coverage for the satellite API changes: ``recommend_batch``,
batched ``validation_ndcg``, the ``make_sampler`` registry,
``run_method`` with a fitted recommender, the fold-in batch path, and
the deprecation of bare score callables.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro import make_profile_dataset, train_test_split
from repro.core.clapf import CLAPF
from repro.data.interactions import InteractionMatrix
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import make_model
from repro.experiments.runner import run_method
from repro.metrics import scoring
from repro.metrics.evaluator import Evaluator
from repro.mf.fold_in import fold_in_user_ridge, fold_in_users_ridge
from repro.mf.params import FactorParams
from repro.mf.sgd import SGDConfig
from repro.models import BPR, GBPR, MPR, WMF, CLiMF, ItemKNN, PopRank, RandomWalk
from repro.models.base import validation_ndcg
from repro.neural import GMF, NeuPR
from repro.sampling import (
    AdaptiveOversampler,
    DoubleSampler,
    DynamicNegativeSampler,
    UniformSampler,
    make_sampler,
    sampler_names,
)
from repro.utils import blas
from repro.utils.exceptions import ConfigError


@pytest.fixture(scope="module")
def split():
    dataset = make_profile_dataset("ML100K", scale=0.4, seed=11)
    return train_test_split(dataset, seed=11)


def _sgd(n_epochs=2):
    return SGDConfig(n_epochs=n_epochs)


@pytest.fixture(scope="module")
def fitted_models(split):
    """One fitted instance of every model family (tiny training budgets)."""
    return {
        "PopRank": PopRank().fit(split.train),
        "ItemKNN": ItemKNN(n_neighbors=10).fit(split.train),
        "RandomWalk": RandomWalk(walk_length=5).fit(split.train),
        "WMF": WMF(n_factors=8, n_iterations=2, seed=1).fit(split.train),
        "BPR": BPR(n_factors=8, sgd=_sgd(), seed=1).fit(split.train, split.validation),
        "MPR": MPR(n_factors=8, sgd=_sgd(), seed=1).fit(split.train, split.validation),
        "GBPR": GBPR(n_factors=8, sgd=_sgd(), seed=1).fit(split.train, split.validation),
        "CLiMF": CLiMF(n_factors=8, sgd=_sgd(), seed=1).fit(split.train, split.validation),
        "CLAPF-MAP": CLAPF("map", n_factors=8, sgd=_sgd(), seed=1).fit(
            split.train, split.validation
        ),
        "GMF": GMF(embedding_dim=4, n_epochs=1, seed=1).fit(split.train),
        "NeuPR": NeuPR(embedding_dim=4, n_epochs=1, seed=1).fit(split.train),
    }


class TestPredictBatchBitwise:
    """predict_batch == stacked predict_user, bit for bit, for every model."""

    def test_every_model_matches_stacked_predict_user(self, split, fitted_models):
        users = np.arange(split.train.n_users)
        for name, model in fitted_models.items():
            batch = model.predict_batch(users)
            stacked = np.stack([model.predict_user(int(user)) for user in users])
            assert batch.shape == (split.train.n_users, split.train.n_items), name
            assert np.array_equal(batch, stacked), f"{name}: batch != stacked predict_user"

    def test_chunk_invariance(self, split, fitted_models):
        """Rows are identical no matter how the batch is chunked."""
        users = np.arange(split.train.n_users)
        for name, model in fitted_models.items():
            full = model.predict_batch(users)
            pieces = [model.predict_batch(chunk) for chunk in np.array_split(users, 7)]
            assert np.array_equal(np.concatenate(pieces), full), name
            shuffled = users[::-1].copy()
            assert np.array_equal(model.predict_batch(shuffled), full[::-1]), name

    def test_factor_params_batch_kernel(self):
        params = FactorParams.init(50, 80, 12, seed=3)
        users = np.arange(50)
        batch = params.predict_batch(users)
        stacked = np.stack([params.predict_user(int(user)) for user in users])
        assert np.array_equal(batch, stacked)

    def test_default_stacking_path(self, split):
        """Recommender subclasses without an override still get predict_batch."""

        class Constant(PopRank):
            def predict_batch(self, users):  # force the ABC default
                from repro.models.base import Recommender

                return Recommender.predict_batch(self, users)

        model = Constant().fit(split.train)
        users = np.arange(5)
        assert np.array_equal(
            model.predict_batch(users),
            np.stack([model.predict_user(int(user)) for user in users]),
        )


class TableModel:
    """Scores read from a fixed ``(n_users, n_items)`` table."""

    def __init__(self, table: np.ndarray):
        self.table = table

    def predict_user(self, user: int) -> np.ndarray:
        return self.table[user].copy()

    def predict_batch(self, users: np.ndarray) -> np.ndarray:
        if np.array_equal(users, np.arange(len(self.table))):
            return self.table  # the model's own array, not a copy
        return self.table[users]


def _overlapping_split(train, test, validation, n_users, n_items):
    """A split whose test positives may overlap train (DatasetSplit forbids it)."""

    def as_matrix(pairs):
        return InteractionMatrix.from_pairs(pairs, n_users, n_items)

    return SimpleNamespace(
        train=as_matrix(train), test=as_matrix(test), validation=as_matrix(validation),
        n_items=n_items,
    )


@pytest.fixture(scope="module")
def adversarial():
    """Users and scores built to hit every edge of the batched metric kernels.

    Users: 140 and 12 relevant items (both branches of numpy's pairwise
    sum in AP), 3 and 2 candidates left (fewer than k), test positives
    all or partly inside train.  Scores: heavy ties, -inf candidates,
    NaN candidates and positives, signed-zero ties, 40 items tied at the
    top, all-NaN, all-equal and nearly all -inf rows.
    """
    n_users, n_items = 10, 400
    rng = np.random.default_rng(3)
    train, test, validation = [], [], []

    def add(user, n_train, n_test, n_overlap=0):
        items = rng.permutation(n_items)
        taken = items[:n_train]
        fresh = items[n_train : n_train + n_test - n_overlap]
        train.extend((user, int(i)) for i in taken)
        test.extend((user, int(i)) for i in np.concatenate([fresh, taken[:n_overlap]]))
        validation.append((user, int(items[-1])))

    add(0, 50, 140)
    add(1, 30, 12)
    add(2, 394, 3)
    add(3, 397, 2)
    add(4, 20, 5, n_overlap=5)
    add(5, 20, 10, n_overlap=4)
    for user in range(6, n_users):
        add(user, 15, 10)
    split = _overlapping_split(train, test, validation, n_users, n_items)

    table = rng.standard_normal((n_users, n_items)).round(1)
    first_test = {u: split.test.positives(u) for u in range(n_users)}
    table[0, first_test[0][:7]] = -np.inf
    table[0, rng.choice(n_items, 30, replace=False)] = -np.inf
    table[1, rng.choice(n_items, 25, replace=False)] = np.nan
    table[1, first_test[1][:3]] = np.nan
    table[1, split.train.positives(1)[:5]] = np.nan
    table[2] = 0.0
    table[2, rng.choice(n_items, 200, replace=False)] = -0.0
    table[2, split.train.positives(2)[:50]] = 1.0
    table[3, first_test[3][0]] = -np.inf
    table[5, rng.choice(n_items, 40, replace=False)] = 9.0
    table[5, first_test[5][:2]] = 9.0
    table[6] = np.nan
    table[7] = 1.0
    table[8] = -np.inf
    table[8, first_test[8][:2]] = 0.5
    table[8, rng.choice(n_items, 5, replace=False)] = 0.5
    return split, table


def _assert_bitwise_per_user(batched, sequential):
    assert batched.n_users == sequential.n_users
    for key, values in sequential.per_user.items():
        got = batched.per_user[key]
        assert got.dtype == values.dtype == np.float64, key
        assert np.array_equal(got.view(np.int64), values.view(np.int64)), key


class TestEvaluatorEquivalence:
    """Chunked / threaded evaluation == the sequential reference, exactly."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_chunked_matches_sequential(self, split, fitted_models, chunk_size):
        model = fitted_models["BPR"]
        sequential = Evaluator(split, ks=(1, 5), seed=0).evaluate_sequential(model)
        batched = Evaluator(split, ks=(1, 5), seed=0, chunk_size=chunk_size).evaluate(model)
        assert batched.n_users == sequential.n_users
        assert batched.metrics == sequential.metrics  # bitwise, not approx

    def test_all_models_match_sequential(self, split, fitted_models):
        for name, model in fitted_models.items():
            sequential = Evaluator(split, ks=(5,), seed=2).evaluate_sequential(model)
            batched = Evaluator(split, ks=(5,), seed=2, chunk_size=33).evaluate(model)
            assert batched.metrics == sequential.metrics, name

    def test_threaded_matches_sequential(self, split, fitted_models):
        """Every model, worker count and chunk budget gives the sequential bits."""
        budgets = (1, 7, scoring.CHUNK_SIZE, split.train.n_users + 1)
        for name, model in fitted_models.items():
            kwargs = dict(ks=(5,), seed=0, keep_per_user=True)
            sequential = Evaluator(split, **kwargs).evaluate_sequential(model)
            for n_jobs in (1, 2, 3):
                for chunk_size in budgets:
                    threaded = Evaluator(
                        split, chunk_size=chunk_size, n_jobs=n_jobs, **kwargs
                    ).evaluate(model)
                    assert threaded.metrics == sequential.metrics, (name, n_jobs, chunk_size)
                    _assert_bitwise_per_user(threaded, sequential)

    def test_per_user_arrays_match(self, split, fitted_models):
        model = fitted_models["ItemKNN"]
        sequential = Evaluator(split, ks=(5,), keep_per_user=True).evaluate_sequential(model)
        batched = Evaluator(split, ks=(5,), keep_per_user=True, chunk_size=10).evaluate(model)
        for key, values in sequential.per_user.items():
            assert np.array_equal(batched.per_user[key], values), key

    def test_validation_mode_matches(self, split, fitted_models):
        model = fitted_models["WMF"]
        kwargs = dict(ks=(5,), use_validation_as_relevant=True)
        sequential = Evaluator(split, **kwargs).evaluate_sequential(model)
        batched = Evaluator(split, chunk_size=13, **kwargs).evaluate(model)
        assert batched.metrics == sequential.metrics

    def test_max_users_matches(self, split, fitted_models):
        model = fitted_models["BPR"]
        sequential = Evaluator(split, ks=(5,), max_users=31, seed=7).evaluate_sequential(model)
        batched = Evaluator(split, ks=(5,), max_users=31, seed=7, chunk_size=8).evaluate(model)
        assert batched.n_users == sequential.n_users
        assert batched.metrics == sequential.metrics

    def test_sampled_candidates_matches(self, split, fitted_models):
        """The NCF-protocol subsample draws the same RNG stream either way."""
        model = fitted_models["BPR"]
        sequential = Evaluator(
            split, ks=(5,), seed=5, sampled_candidates=20
        ).evaluate_sequential(model)
        batched = Evaluator(
            split, ks=(5,), seed=5, sampled_candidates=20, chunk_size=9
        ).evaluate(model)
        assert batched.metrics == sequential.metrics

    def test_tied_scores_match(self, split):
        """All-constant scores exercise the tie fix-up path end to end."""

        class AllTied(PopRank):
            def fit(self, train, validation=None):
                super().fit(train, validation)
                self.scores_ = np.zeros(train.n_items)
                return self

        model = AllTied().fit(split.train)
        sequential = Evaluator(split, ks=(3,)).evaluate_sequential(model)
        batched = Evaluator(split, ks=(3,), chunk_size=17).evaluate(model)
        assert batched.metrics == sequential.metrics

    def test_bare_callable_raises_with_migration_hint(self, split):
        scores = np.linspace(1.0, 0.0, split.n_items)
        with pytest.raises(TypeError, match="predict_user"):
            Evaluator(split, ks=(1,)).evaluate(lambda user: scores)
        with pytest.raises(TypeError, match="no longer accepted"):
            scoring.as_batch_scorer(lambda user: scores)

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    @pytest.mark.parametrize(
        "mode",
        [{}, {"use_validation_as_relevant": True}, {"sampled_candidates": 20}],
        ids=["test", "validation", "sampled"],
    )
    def test_adversarial_scores_match_per_user(self, adversarial, chunk_size, mode):
        split, table = adversarial
        model = TableModel(table)
        kwargs = dict(ks=(1, 5, 10, 20), seed=4, keep_per_user=True, **mode)
        sequential = Evaluator(split, **kwargs).evaluate_sequential(model)
        batched = Evaluator(split, chunk_size=chunk_size, **kwargs).evaluate(model)
        _assert_bitwise_per_user(batched, sequential)

    def test_adversarial_drops_users_without_candidate_positives(self, adversarial):
        split, table = adversarial
        result = Evaluator(split, ks=(5,), keep_per_user=True).evaluate(TableModel(table))
        assert result.n_users == 9  # user 4's test items all lie in train

    def test_model_owned_scores_left_unchanged(self, adversarial):
        split, table = adversarial
        owned = table.copy()
        model = TableModel(owned)
        Evaluator(split, ks=(1, 5), chunk_size=1000).evaluate(model)
        assert np.array_equal(owned.view(np.int64), table.view(np.int64))

    def test_validation_ndcg_matches_evaluator(self, adversarial):
        split, table = adversarial
        model = TableModel(table)
        for k in (1, 5, 20):
            expected = Evaluator(split, ks=(k,), use_validation_as_relevant=True).evaluate(model)
            got = validation_ndcg(model, split.train, split.validation, k=k)
            assert got == expected[f"ndcg@{k}"]


class TestRecommendBatch:
    def test_matches_per_user_recommend(self, split, fitted_models):
        users = np.arange(0, split.train.n_users, 3)
        for name, model in fitted_models.items():
            batch = model.recommend_batch(users, k=4, chunk_size=11)
            stacked = np.stack([model.recommend(int(user), k=4) for user in users])
            assert np.array_equal(batch, stacked), name

    def test_without_exclusion(self, split, fitted_models):
        model = fitted_models["BPR"]
        users = np.arange(10)
        batch = model.recommend_batch(users, k=3, exclude_observed=False)
        stacked = np.stack(
            [model.recommend(int(user), k=3, exclude_observed=False) for user in users]
        )
        assert np.array_equal(batch, stacked)


class TestValidationNdcg:
    def test_accepts_params_and_model_identically(self, split, fitted_models):
        model = fitted_models["BPR"]
        via_params = validation_ndcg(model.params_, split.train, split.validation, k=5)
        via_model = validation_ndcg(model, split.train, split.validation, k=5)
        assert via_params == via_model
        assert 0.0 <= via_params <= 1.0
        with pytest.raises(TypeError, match="no longer accepted"):
            validation_ndcg(
                model.params_.predict_user, split.train, split.validation, k=5
            )

    def test_matches_evaluator_validation_mode(self, split, fitted_models):
        """Early stopping and the evaluator share one NDCG, bit for bit."""
        model = fitted_models["CLAPF-MAP"]
        expected = Evaluator(split, ks=(5,), use_validation_as_relevant=True).evaluate(model)
        assert validation_ndcg(model, split.train, split.validation, k=5) == expected["ndcg@5"]

    def test_chunking_does_not_change_result(self, split, fitted_models):
        model = fitted_models["BPR"]
        small = validation_ndcg(model.params_, split.train, split.validation, k=5, chunk_size=3)
        big = validation_ndcg(model.params_, split.train, split.validation, k=5, chunk_size=4096)
        assert small == big


class TestMakeSampler:
    def test_registry_specs(self):
        expected = {
            "uniform": UniformSampler,
            "dns": DynamicNegativeSampler,
            "aobpr": AdaptiveOversampler,
            "geometric": AdaptiveOversampler,
            "dss": DoubleSampler,
        }
        for spec, cls in expected.items():
            assert spec in sampler_names()
            assert isinstance(make_sampler(spec), cls)

    def test_kwargs_pass_through(self):
        sampler = make_sampler("dss", mode="mrr", tail=0.1)
        assert sampler.mode == "mrr"

    def test_spec_is_case_insensitive(self):
        assert isinstance(make_sampler("  DSS "), DoubleSampler)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError, match="unknown sampler"):
            make_sampler("nope")

    def test_instance_passes_through(self):
        sampler = UniformSampler()
        assert make_sampler(sampler) is sampler
        with pytest.raises(ConfigError, match="already-constructed"):
            make_sampler(sampler, tail=0.5)

    def test_make_model_accepts_spec(self, split):
        model = make_model("BPR", scale=ExperimentScale.quick(), sampler="dns")
        assert isinstance(model.sampler, DynamicNegativeSampler)

    def test_scale_sampler_spec_flows_through(self):
        scale = ExperimentScale(sampler_spec="aobpr")
        model = make_model("BPR", scale=scale)
        assert isinstance(model.sampler, AdaptiveOversampler)
        with pytest.raises(ConfigError, match="unknown sampler_spec"):
            ExperimentScale(sampler_spec="bogus")

    def test_clapf_plus_default_is_dss(self):
        model = make_model("CLAPF+-MRR", scale=ExperimentScale.quick())
        assert isinstance(model.sampler, DoubleSampler)
        assert model.sampler.mode == "mrr"


class TestRunMethodWithFittedModel:
    def test_fitted_recommender_is_evaluated_directly(self, split, fitted_models):
        model = fitted_models["PopRank"]
        result = run_method(model, [split], ks=(5,), chunk_size=32)
        assert result.name == "PopRank"
        assert result.train_seconds == 0.0
        expected = Evaluator(split, ks=(5,), seed=0).evaluate(model)
        assert result.means["ndcg@5"] == expected["ndcg@5"]

    def test_unfitted_recommender_rejected(self, split):
        with pytest.raises(ConfigError, match="not fitted"):
            run_method(PopRank(), [split])


class TestFoldInBatch:
    def test_batched_ridge_matches_per_user(self):
        params = FactorParams.init(30, 60, 8, seed=5)
        rng = np.random.default_rng(5)
        cohort = [np.sort(rng.choice(60, size=size, replace=False)) for size in (3, 7, 1, 12)]
        batched = fold_in_users_ridge(params, cohort)
        assert len(batched) == len(cohort)
        for result, positives in zip(batched, cohort):
            single = fold_in_user_ridge(params, positives)
            np.testing.assert_allclose(result.user_vector, single.user_vector, rtol=1e-10)
            np.testing.assert_allclose(result.predict(), single.predict(), rtol=1e-10)

    def test_empty_cohort(self):
        params = FactorParams.init(5, 9, 4, seed=0)
        assert fold_in_users_ridge(params, []) == []


class TestEngineKernels:
    def test_positives_mask_matches_positives(self, split):
        users = np.arange(split.train.n_users)
        mask = scoring.positives_mask(split.train, users)
        for user in users[::13]:
            row = np.zeros(split.train.n_items, dtype=bool)
            row[split.train.positives(int(user))] = True
            assert np.array_equal(mask[user], row)

    def test_ranking_orders_matches_argsort(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 4, size=(6, 40)).astype(float)  # heavy ties
        orders = scoring.ranking_orders(keys)
        for row in range(len(keys)):
            assert np.array_equal(orders[row], np.argsort(-keys[row], kind="stable"))

    @pytest.mark.parametrize("descending", [True, False])
    def test_ranking_orders_fast_path_is_the_stable_sort(self, descending):
        rng = np.random.default_rng(1)
        keys = rng.standard_normal((9, 300))
        keys[1, ::10] = keys[1, 5]  # ties
        keys[2, [3, 90, 250]] = np.nan
        keys[3, :5] = [0.0, -0.0, 0.0, -0.0, 0.0]  # signed zeros compare equal
        keys[4, [7, 8]] = [np.inf, -np.inf]
        keys[5] = rng.integers(0, 3, 300)
        keys[6, :] = np.nan
        keys[7, 10] = np.nan
        keys[7, 20] = keys[7, 30]
        orders = scoring.ranking_orders(keys, descending=descending)
        signed = -keys if descending else keys
        expected = np.argsort(signed, axis=1, kind="stable")
        assert orders.dtype == expected.dtype
        assert np.array_equal(orders, expected)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_segmented_searchsorted_matches_per_row(self, side):
        rng = np.random.default_rng(2)
        table = rng.integers(-3, 4, size=(9, 37)).astype(float)  # heavy ties
        table[1, :12] = [0.0, -0.0] * 6  # signed zeros compare equal
        table[2, [4, 9]] = [np.inf, -np.inf]
        table[3, rng.choice(37, 20, replace=False)] = -np.inf
        table[4, rng.choice(37, 6, replace=False)] = np.nan
        table[5] = np.nan
        table[6] = 0.0
        table[7, ::3] = np.inf
        sorted_rows = np.sort(table, axis=1)
        probes = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, -3.0, 0.5, 3.0, 2.0, -7.0])
        rows = np.repeat(np.arange(len(table)), len(probes) + 6)
        values = np.concatenate(
            [np.concatenate([probes, rng.choice(table[row], 6)]) for row in range(len(table))]
        )
        got = scoring.segmented_searchsorted(sorted_rows, rows, values, side=side)
        expected = np.array(
            [np.searchsorted(sorted_rows[r], v, side=side) for r, v in zip(rows, values)]
        )
        assert np.array_equal(got, expected)

    def test_segmented_searchsorted_row_lengths(self):
        """Every row length around a power of two takes its bit_length steps."""
        rng = np.random.default_rng(3)
        for n in [1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 65]:
            sorted_rows = np.sort(rng.integers(0, 5, size=(3, n)).astype(float), axis=1)
            rows = np.repeat(np.arange(3), 7)
            values = np.tile(np.array([-1.0, 0.0, 1.0, 2.5, 4.0, 5.0, np.nan]), 3)
            for side in ("left", "right"):
                got = scoring.segmented_searchsorted(sorted_rows, rows, values, side=side)
                expected = [
                    np.searchsorted(sorted_rows[r], v, side=side) for r, v in zip(rows, values)
                ]
                assert np.array_equal(got, expected), (n, side)

    @pytest.mark.parametrize("mode", ["test", "validation"])
    def test_hits_from_positions_match_topk(self, adversarial, mode):
        """Rank-derived top-k hits == isin(topk_from_matrix(masked, k))."""
        split, table = adversarial
        users = np.arange(table.shape[0])
        excluded = scoring.positives_mask(split.train, users)
        relevant_source = split.test
        if mode == "validation":
            relevant_source = split.validation
        else:
            scoring.positives_mask(split.validation, users, out=excluded)
        rows, items = scoring.positives_pairs(relevant_source, users)
        candidate = ~excluded[rows, items]
        rows, items = rows[candidate], items[candidate]
        counts = scoring.candidate_ranks(
            table, rows, items, excluded, np.count_nonzero(excluded, axis=1)
        )
        masked = np.where(excluded, -np.inf, table)
        for k in (1, 5, 10, 20, 400):
            hit_at = np.zeros((len(users), k), dtype=bool)
            top = counts.positions <= k
            hit_at[rows[top], counts.positions[top] - 1] = True
            ranked = scoring.topk_from_matrix(masked, k)
            n_items = table.shape[1]
            expected = np.isin(users[:, None] * n_items + ranked, rows * n_items + items)
            assert np.array_equal(hit_at, expected), k

    def test_as_batch_scorer_rejects_non_models(self):
        with pytest.raises(ConfigError, match="not evaluable"):
            scoring.as_batch_scorer(object())


class TestPopularityHoist:
    """The cold-user popularity ordering is computed once per call.

    Every cold user in a ``recommend_batch`` call gets the *same*
    popularity row, so recomputing it per chunk (or per user) is pure
    waste.  The counting test pins the hoist; the equality test pins
    that hoisting changed nothing about the output.
    """

    def test_popularity_computed_at_most_once_per_call(self, split, fitted_models, monkeypatch):
        model = fitted_models["BPR"]
        calls = {"n": 0}
        original = type(model)._popularity_topk

        def counting(self, train, k):
            calls["n"] += 1
            return original(self, train, k)

        monkeypatch.setattr(type(model), "_popularity_topk", counting)
        cold = np.flatnonzero(split.train.user_counts() == 0)
        warm = np.flatnonzero(split.train.user_counts() > 0)
        assert len(cold) >= 2, "split fixture should contain cold users"
        users = np.concatenate([cold, warm[: 3 * len(cold)]])
        model.recommend_batch(users, k=4, chunk_size=2)  # many tiny chunks
        assert calls["n"] == 1
        calls["n"] = 0
        model.recommend_batch(warm[:8], k=4, chunk_size=2)  # no cold users
        assert calls["n"] == 0

    def test_hoisted_output_identical_to_per_user_path(self, split, fitted_models):
        model = fitted_models["BPR"]
        cold = np.flatnonzero(split.train.user_counts() == 0)[:4]
        warm = np.flatnonzero(split.train.user_counts() > 0)[:8]
        users = np.concatenate([cold, warm, cold])
        batch = model.recommend_batch(users, k=5, chunk_size=3)
        stacked = np.stack([model.recommend(int(user), k=5) for user in users])
        assert np.array_equal(batch, stacked)


class TestWorkers:
    """Chunks balanced over the usable cores, each worker on one BLAS thread."""

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [1, 7, 512])
    @pytest.mark.parametrize("n_users", [0, 1, 5, 100, 985])
    def test_user_chunks_keep_order_and_balance(self, n_users, chunk_size, n_jobs):
        users = np.arange(n_users, dtype=np.int64) * 3 + 1
        chunks = scoring.iter_user_chunks(users, chunk_size, n_jobs)
        assert all(len(chunk) for chunk in chunks)
        assert np.array_equal(np.concatenate([users[:0], *chunks]), users)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes, default=0) <= max(1, chunk_size // n_jobs)
        if n_jobs == 1:
            # recommend_batch and validation_ndcg make as many calls as before.
            assert len(chunks) == -(-n_users // chunk_size)
        if len(chunks) > 1:
            assert max(sizes) - min(sizes) <= 1
            # Fewer users than a multiple of n_jobs: one user per chunk.
            assert len(chunks) % n_jobs == 0 or max(sizes) == 1

    @pytest.mark.parametrize("cores", [1, 3])
    def test_default_workers_are_the_usable_cores(self, split, monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert scoring.resolve_n_jobs(None) == scoring.resolve_n_jobs(-1) == cores
        assert scoring.resolve_n_jobs(1) == 1
        # The default budget keeps MIN_CHUNK_ROWS rows per worker; a larger
        # budget reaches every usable core.
        default = min(cores, scoring.CHUNK_SIZE // scoring.MIN_CHUNK_ROWS)
        assert Evaluator(split).n_jobs == default
        big = 8 * scoring.MIN_CHUNK_ROWS
        assert Evaluator(split, chunk_size=big).n_jobs == cores
        assert Evaluator(split, chunk_size=big, n_jobs=-1).n_jobs == cores

    def test_workers_never_exceed_the_row_budget(self, split):
        assert scoring.chunk_workers(None, scoring.MIN_CHUNK_ROWS - 1) == 1
        assert scoring.chunk_workers(3, 1) == 1
        assert scoring.chunk_workers(3, 7) == 3
        users = np.flatnonzero(split.test.user_counts() > 0)
        for n_jobs, chunk_size in [(3, 1), (3, 7), (2, 16), (4, 5)]:
            evaluator = Evaluator(split, chunk_size=chunk_size, n_jobs=n_jobs)
            chunks = scoring.iter_user_chunks(users, chunk_size, evaluator.n_jobs)
            assert evaluator.n_jobs * max(map(len, chunks)) <= chunk_size

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert scoring.resolve_n_jobs(None) == 5

    def test_threaded_evaluate_restores_the_blas_count(self, split, fitted_models):
        controls = blas.thread_controls()
        if controls is None:
            pytest.skip("no OpenBLAS thread controls in this process")
        get_threads, _ = controls
        start = get_threads()
        model = fitted_models["BPR"]
        seen: list[int] = []
        failing_user = int(split.test.user_counts().nonzero()[0][-1])

        def predict_batch(users):
            seen.append(get_threads())
            if fail and failing_user in users:
                raise RuntimeError("one chunk fails")
            return model.predict_batch(users)

        scorer = SimpleNamespace(predict_batch=predict_batch)
        fail = False
        Evaluator(split, chunk_size=16, n_jobs=2).evaluate(scorer)
        assert len(seen) > 1 and set(seen) == {1}
        assert get_threads() == start
        fail = True
        with pytest.raises(RuntimeError, match="one chunk fails"):
            Evaluator(split, chunk_size=16, n_jobs=2).evaluate(scorer)
        assert get_threads() == start

    def test_only_the_threaded_path_sets_the_blas_count(self, split, fitted_models, monkeypatch):
        made: list[int] = []
        monkeypatch.setattr(blas, "thread_controls", lambda: (lambda: 4, made.append))
        # linear_scores keeps the count, so only map_chunks could set it.
        monkeypatch.setattr(scoring, "ONE_THREAD_BELOW", 0)
        model = fitted_models["BPR"]
        Evaluator(split, chunk_size=16, n_jobs=1).evaluate(model)
        assert made == []
        Evaluator(split, chunk_size=16, n_jobs=2).evaluate(model)
        assert made == [1, 4]
