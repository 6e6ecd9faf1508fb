"""Tests of the MF substrate: stable logistic functions and parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mf.functional import log_sigmoid, sigmoid
from repro.mf.params import FactorParams
from repro.mf.sgd import RegularizationConfig, SGDConfig
from repro.utils.exceptions import ConfigError, DataError

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(np.log(3)) == pytest.approx(0.75)

    def test_extreme_values_do_not_overflow(self):
        assert sigmoid(-1000.0) == pytest.approx(0.0)
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert np.isfinite(log_sigmoid(-1000.0))
        assert log_sigmoid(1000.0) == pytest.approx(0.0)

    def test_vector_input(self):
        out = sigmoid(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    @given(x=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_complement_identity(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0)

    @given(x=st.floats(min_value=-500, max_value=500, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_log_sigmoid_consistent(self, x):
        # Range restricted to where sigmoid(x) is a normal float; below
        # ~-690 the naive log(sigmoid(x)) loses precision to denormals
        # while log_sigmoid stays exact (that is the point of it).
        assert log_sigmoid(x) == pytest.approx(np.log(sigmoid(x)), abs=1e-9)

    @given(x=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_log_sigmoid_nonpositive(self, x):
        assert log_sigmoid(x) <= 1e-12


class TestFactorParams:
    def test_init_shapes(self):
        params = FactorParams.init(5, 7, 3, seed=0)
        assert params.user_factors.shape == (5, 3)
        assert params.item_factors.shape == (7, 3)
        assert params.item_bias.shape == (7,)
        assert (params.n_users, params.n_items, params.n_factors) == (5, 7, 3)

    def test_init_scale_bounds(self):
        params = FactorParams.init(50, 50, 4, seed=0, scale=0.1)
        assert np.abs(params.user_factors).max() <= 0.05 + 1e-12

    def test_init_reproducible(self):
        a = FactorParams.init(5, 7, 3, seed=42)
        b = FactorParams.init(5, 7, 3, seed=42)
        assert np.array_equal(a.user_factors, b.user_factors)

    def test_invalid_factors(self):
        with pytest.raises(ConfigError):
            FactorParams.init(5, 7, 0)

    def test_shape_validation(self):
        with pytest.raises(DataError):
            FactorParams(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(DataError):
            FactorParams(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros(5))

    def test_predict_user_matches_formula(self):
        params = FactorParams.init(4, 6, 3, seed=1)
        expected = params.user_factors[2] @ params.item_factors.T + params.item_bias
        assert np.allclose(params.predict_user(2), expected)

    def test_predict_pairs_matches_predict_user(self):
        params = FactorParams.init(4, 6, 3, seed=1)
        users = np.array([0, 1, 2])
        items = np.array([5, 0, 3])
        expected = [params.predict_user(u)[i] for u, i in zip(users, items)]
        assert np.allclose(params.predict_pairs(users, items), expected)

    def test_copy_is_deep(self):
        params = FactorParams.init(3, 4, 2, seed=1)
        clone = params.copy()
        clone.user_factors[0, 0] += 1.0
        assert params.user_factors[0, 0] != clone.user_factors[0, 0]


class TestConfigs:
    def test_sgd_defaults_valid(self):
        config = SGDConfig()
        assert config.steps_per_epoch(10_000) >= 1

    def test_steps_per_epoch_scales(self):
        config = SGDConfig(batch_size=100, samples_per_pair=2.0)
        assert config.steps_per_epoch(1_000) == 20

    def test_steps_per_epoch_minimum_one(self):
        config = SGDConfig(batch_size=512)
        assert config.steps_per_epoch(10) == 1

    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigError):
            SGDConfig(learning_rate=0.0)

    def test_regularization_uniform(self):
        reg = RegularizationConfig.uniform(0.02)
        assert reg.alpha_u == reg.alpha_v == reg.beta_v == 0.02

    def test_negative_regularization_rejected(self):
        with pytest.raises(ConfigError):
            RegularizationConfig(alpha_u=-0.1)
