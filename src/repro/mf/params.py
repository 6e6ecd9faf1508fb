"""Factor-model parameter store for ``f_ui = U_u · V_i + b_i``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.exceptions import ConfigError, DataError
from repro.utils.rng import as_generator


@dataclass
class FactorParams:
    """Latent factors and item biases of a matrix-factorization model.

    Attributes
    ----------
    user_factors:
        ``(n_users, d)`` matrix ``U``.
    item_factors:
        ``(n_items, d)`` matrix ``V``.
    item_bias:
        ``(n_items,)`` vector ``b``.
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    item_bias: np.ndarray

    def __post_init__(self):
        if self.user_factors.ndim != 2 or self.item_factors.ndim != 2:
            raise DataError("factor matrices must be 2-D")
        if self.user_factors.shape[1] != self.item_factors.shape[1]:
            raise DataError(
                f"latent dims differ: {self.user_factors.shape[1]} vs {self.item_factors.shape[1]}"
            )
        if self.item_bias.shape != (self.item_factors.shape[0],):
            raise DataError("item_bias length must equal n_items")

    @classmethod
    def init(
        cls,
        n_users: int,
        n_items: int,
        n_factors: int,
        *,
        seed=None,
        scale: float = 0.1,
    ) -> "FactorParams":
        """Small-random initialization, ``(r - 0.5) * scale`` following Pan et al.

        The paper fixes ``d = 20`` for BPR/MPR/CLAPF and initializes
        parameters following [57] (Pan, Xiang & Yang, AAAI'12).
        """
        if n_factors < 1:
            raise ConfigError(f"n_factors must be >= 1, got {n_factors}")
        rng = as_generator(seed)
        return cls(
            user_factors=(rng.random((n_users, n_factors)) - 0.5) * scale,
            item_factors=(rng.random((n_items, n_factors)) - 0.5) * scale,
            item_bias=(rng.random(n_items) - 0.5) * scale,
        )

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def n_factors(self) -> int:
        return self.user_factors.shape[1]

    def predict_user(self, user: int) -> np.ndarray:
        """Scores of ``user`` over all items: ``U_u V^T + b``."""
        return self.predict_batch(np.asarray([user], dtype=np.int64))[0]

    def predict_batch(self, users) -> np.ndarray:
        """Scores of many users, shape ``(len(users), n_items)``.

        Runs the chunk-invariant fixed-block GEMM kernel, so each row is
        bitwise identical to :meth:`predict_user` for that user no
        matter how users are batched — the contract the chunked
        evaluator depends on.
        """
        from repro.metrics.scoring import linear_scores

        users = np.asarray(users, dtype=np.int64)
        return linear_scores(self.user_factors[users], self.item_factors, self.item_bias)

    def predict_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Scores of aligned ``(users[t], items[t])`` pairs."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        dots = np.einsum("td,td->t", self.user_factors[users], self.item_factors[items])
        return dots + self.item_bias[items]

    def copy(self) -> "FactorParams":
        """Deep copy (used by convergence traces and early stopping)."""
        return FactorParams(
            self.user_factors.copy(), self.item_factors.copy(), self.item_bias.copy()
        )
