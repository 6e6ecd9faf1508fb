"""Behavioral tests for the baseline models."""

import warnings

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.metrics.evaluator import evaluate_model
from repro.mf.sgd import SGDConfig
from repro.models import BPR, MPR, WMF, CLiMF, PopRank, RandomWalk
from repro.utils.exceptions import ConfigError, NotFittedError

FAST_SGD = SGDConfig(n_epochs=25, learning_rate=0.08)
LONG_SGD = SGDConfig(n_epochs=60, learning_rate=0.08)


class TestPopRank:
    def test_scores_equal_popularity(self, tiny_matrix):
        model = PopRank().fit(tiny_matrix)
        assert np.array_equal(model.predict_user(0), tiny_matrix.item_counts())

    def test_same_scores_for_all_users(self, tiny_matrix):
        model = PopRank().fit(tiny_matrix)
        assert np.array_equal(model.predict_user(0), model.predict_user(3))

    def test_recommend_excludes_observed(self, tiny_matrix):
        model = PopRank().fit(tiny_matrix)
        recs = model.recommend(0, k=3)
        for item in recs:
            assert not tiny_matrix.contains(0, int(item))

    def test_recommend_can_include_observed(self, tiny_matrix):
        model = PopRank().fit(tiny_matrix)
        recs = model.recommend(0, k=1, exclude_observed=False)
        assert recs[0] == 2  # the most popular item overall

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            PopRank().predict_user(0)

    def test_invalid_k(self, tiny_matrix):
        model = PopRank().fit(tiny_matrix)
        with pytest.raises(ConfigError):
            model.recommend(0, k=0)


class TestRandomWalk:
    def test_scores_respect_neighbourhoods(self):
        """Two cliques of users; preferences must not leak across them."""
        pairs = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 4), (2, 5), (3, 4), (3, 6)]
        train = InteractionMatrix.from_pairs(pairs, 4, 7)
        model = RandomWalk(walk_length=5, reachable_threshold=1).fit(train)
        scores = model.predict_user(0)
        # User 0's clique (users 0, 1) interacts with items 0, 1, 2 only.
        assert scores[2] > scores[4]
        assert scores[2] > scores[6]

    def test_reachability_threshold_cuts_weak_links(self):
        pairs = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
        train = InteractionMatrix.from_pairs(pairs, 3, 3)
        strict = RandomWalk(walk_length=3, reachable_threshold=2).fit(train)
        # User 0 shares only one item with user 1 -> unreachable under
        # threshold 2, so item 1 gets no propagated mass beyond user 0.
        scores = strict.predict_user(0)
        assert scores[1] == pytest.approx(0.0, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            RandomWalk(walk_length=0)
        with pytest.raises(ConfigError):
            RandomWalk(reachable_threshold=0)
        with pytest.raises(ConfigError):
            RandomWalk(restart=1.0)

    def test_beats_nothing_on_empty_user(self, tiny_matrix):
        model = RandomWalk(walk_length=2, reachable_threshold=1).fit(tiny_matrix)
        scores = model.predict_user(3)  # user with no history
        assert scores.shape == (6,)


class TestWMF:
    def test_reconstructs_observed_cells(self):
        """On an easy block-structured matrix, WMF should score observed
        cells clearly above unobserved ones."""
        dense = np.zeros((8, 8), dtype=int)
        dense[:4, :4] = 1
        dense[4:, 4:] = 1
        train = InteractionMatrix.from_dense(dense)
        model = WMF(n_factors=4, weight=20, reg=0.05, n_iterations=10, seed=0).fit(train)
        scores = model.predict_user(0)
        assert scores[:4].min() > scores[4:].max()

    def test_improves_over_popularity(self, learnable_split):
        wmf = WMF(n_factors=8, weight=10, reg=0.1, n_iterations=25, seed=0)
        wmf.fit(learnable_split.train)
        pop = PopRank().fit(learnable_split.train)
        wmf_result = evaluate_model(wmf, learnable_split)
        pop_result = evaluate_model(pop, learnable_split)
        assert wmf_result["auc"] > pop_result["auc"]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            WMF(n_factors=0)
        with pytest.raises(ConfigError):
            WMF(weight=-1)


class TestBPR:
    def test_training_reduces_loss(self, learnable_split):
        model = BPR(n_factors=8, sgd=FAST_SGD, seed=0).fit(learnable_split.train)
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_improves_auc_over_popularity(self, learnable_split):
        model = BPR(n_factors=8, sgd=FAST_SGD, seed=0).fit(learnable_split.train)
        pop = PopRank().fit(learnable_split.train)
        assert (
            evaluate_model(model, learnable_split)["auc"]
            > evaluate_model(pop, learnable_split)["auc"]
        )

    def test_deterministic_given_seed(self, learnable_split):
        a = BPR(n_factors=4, sgd=SGDConfig(n_epochs=3), seed=5).fit(learnable_split.train)
        b = BPR(n_factors=4, sgd=SGDConfig(n_epochs=3), seed=5).fit(learnable_split.train)
        assert np.array_equal(a.params_.user_factors, b.params_.user_factors)

    def test_name(self):
        assert BPR().name == "BPR"


class TestMPR:
    def test_trains_and_predicts(self, learnable_split):
        model = MPR(n_factors=8, tradeoff=0.5, sgd=FAST_SGD, seed=0)
        model.fit(learnable_split.train)
        scores = model.predict_user(0)
        assert scores.shape == (learnable_split.n_items,)
        assert np.isfinite(scores).all()

    def test_improves_over_popularity(self, learnable_split):
        # MPR spreads each update over two pairwise criteria, so it needs
        # a longer schedule than BPR to clear the popularity baseline.
        model = MPR(n_factors=8, tradeoff=0.5, sgd=LONG_SGD, seed=0)
        model.fit(learnable_split.train)
        pop = PopRank().fit(learnable_split.train)
        assert (
            evaluate_model(model, learnable_split)["auc"]
            > evaluate_model(pop, learnable_split)["auc"]
        )

    def test_uncertain_items_are_unobserved(self, learnable_split, rng):
        model = MPR(n_factors=4, seed=0)
        model.fit(learnable_split.train)
        batch = model._make_batch(500, rng)
        for user, item in zip(batch.users, batch.pos_k):
            assert not learnable_split.train.contains(int(user), int(item))

    def test_uncertain_items_skew_popular(self, learnable_split, rng):
        model = MPR(n_factors=4, seed=0)
        model.fit(learnable_split.train)
        batch = model._make_batch(3000, rng)
        counts = learnable_split.train.item_counts()
        uncertain_popularity = counts[batch.pos_k].mean()
        uniform_popularity = counts[batch.neg_j].mean()
        assert uncertain_popularity > uniform_popularity

    def test_invalid_tradeoff(self):
        with pytest.raises(ConfigError):
            MPR(tradeoff=1.2)


class TestCLiMF:
    def test_only_observed_items_move(self, learnable_split):
        """CLiMF never touches unobserved items' factors (Section 3.3)."""
        model = CLiMF(n_factors=4, sgd=SGDConfig(n_epochs=2), seed=0)
        train = learnable_split.train
        model.fit(train)
        from repro.mf.params import FactorParams

        initial = FactorParams.init(train.n_users, train.n_items, 4, seed=np.random.default_rng(0))
        # Items never observed by anyone keep their initial factors...
        never_observed = np.flatnonzero(train.item_counts() == 0)
        if len(never_observed):
            assert np.array_equal(
                model.params_.item_factors[never_observed],
                initial.item_factors[never_observed],
            )

    def test_predict_shape(self, learnable_split):
        model = CLiMF(n_factors=4, sgd=SGDConfig(n_epochs=2), seed=0)
        model.fit(learnable_split.train)
        assert model.predict_user(1).shape == (learnable_split.n_items,)

    def test_objective_finite_for_very_negative_scores(self, learnable_split):
        """ln sigma(f) stays finite where sigma(f) underflows to 0."""
        model = CLiMF(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0)
        train = learnable_split.train
        model.fit(train)
        user = next(user for user, _ in train.iter_users())
        positives = train.positives(user)
        model.params_.item_bias[positives] = -1000.0
        scores = (
            model.params_.item_factors[positives] @ model.params_.user_factors[user]
            + model.params_.item_bias[positives]
        )
        assert scores.max() < -800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            objective = model._user_step(user, positives)
        assert np.isfinite(objective)
        assert objective <= -800.0 * len(positives)
