"""CLiMF — Collaborative Less-is-More Filtering (Shi et al., RecSys 2012).

The listwise baseline: maximize the smoothed lower bound of Mean
Reciprocal Rank (Eq. 7 of the paper),

``F_u = sum_{i in I+} ln sigma(f_ui) + sum_{i,k in I+} ln sigma(f_ui - f_uk)``.

Only observed items appear in the objective — the paper's Section 3.3
critique — and each user's gradient couples *all pairs* of her observed
items, so one epoch costs ``O(sum_u (n_u+)^2 d)``: quadratic in profile
size, which is exactly why Table 2 reports CLiMF as the slow method
(and why it exceeds the 200-hour budget on Flixter/Netflix).
"""

from __future__ import annotations

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.mf.functional import log_sigmoid, sigmoid
from repro.mf.sgd import RegularizationConfig, SGDConfig
from repro.models.base import EpochCallback, EpochSGDRecommender
from repro.obs.registry import MetricsRegistry


class CLiMF(EpochSGDRecommender):
    """Smoothed-MRR listwise matrix factorization.

    Parameters mirror :class:`~repro.models.base.EpochSGDRecommender`
    but no sampler is involved: each epoch performs one exact
    full-profile gradient ascent step per user, in a fresh random user
    order (the original CLiMF learning scheme).  Resume, guards,
    checkpoints and metrics come from the shared epoch loop; the fault
    injector ticks once per *epoch* here (CLiMF has no sampled steps).
    The loop minimizes a loss, so each epoch reports the negated mean
    objective: ``loss_history_`` holds it and ``objective_history_``
    negates it back.
    """

    def __init__(
        self,
        n_factors: int = 20,
        *,
        sgd: SGDConfig | None = None,
        reg: RegularizationConfig | None = None,
        seed=None,
        epoch_callback: EpochCallback | None = None,
        guard=None,
        checkpoint=None,
        fault_injector=None,
        obs: MetricsRegistry | None = None,
    ):
        super().__init__(
            n_factors,
            sgd=sgd,
            reg=reg,
            seed=seed,
            epoch_callback=epoch_callback,
            guard=guard,
            checkpoint=checkpoint,
            fault_injector=fault_injector,
            obs=obs,
        )
        self._users_with_items: list[int] = []

    @property
    def name(self) -> str:
        return "CLiMF"

    @property
    def objective_history_(self) -> list[float]:
        """Mean smoothed-MRR bound per epoch (the negated ``loss_history_``)."""
        return [-loss for loss in self.loss_history_]

    def _on_fit_start(self, train: InteractionMatrix) -> None:
        self._users_with_items = [user for user, _ in train.iter_users()]

    def _run_epoch(self, rng: np.random.Generator) -> tuple[float, str | None]:
        total = 0.0
        for user in rng.permutation(self._users_with_items):
            total += self._user_step(int(user), self._train.positives(int(user)))
        if self.fault_injector is not None:
            self.fault_injector.tick(self.params_)
        return -(total / max(len(self._users_with_items), 1)), None

    def _user_step(self, user: int, positives: np.ndarray) -> float:
        """Exact ascent step on user ``user``'s smoothed-MRR bound."""
        params = self.params_
        lr = self.learning_rate_ if self.learning_rate_ is not None else self.sgd.learning_rate
        # Copy: integer indexing returns a live view, and the item update
        # below must use the pre-step user vector (simultaneous update).
        user_vec = params.user_factors[user].copy()
        item_vecs = params.item_factors[positives]
        bias = params.item_bias[positives]

        scores = item_vecs @ user_vec + bias
        # pair_matrix[i, k] = sigma(f_uk - f_ui); the diagonal (k == i)
        # is a constant sigma(0) term with zero gradient — exclude it.
        pair_matrix = sigmoid(scores[None, :] - scores[:, None])
        np.fill_diagonal(pair_matrix, 0.0)
        coeff = sigmoid(-scores) + pair_matrix.sum(axis=1) - pair_matrix.sum(axis=0)

        objective = float(
            np.sum(log_sigmoid(scores))
            + np.sum(np.log(np.maximum(sigmoid(scores[:, None] - scores[None, :]), 1e-12))
                     * (1.0 - np.eye(len(scores))))
        )

        params.user_factors[user] += lr * (item_vecs.T @ coeff - self.reg.alpha_u * user_vec)
        params.item_factors[positives] += lr * (coeff[:, None] * user_vec[None, :] - self.reg.alpha_v * item_vecs)
        params.item_bias[positives] += lr * (coeff - self.reg.beta_v * bias)
        return objective
