"""GBPR — Group Bayesian Personalized Ranking (Pan & Chen, IJCAI 2013).

The paper's related work (Section 2.1, class (1)) cites GBPR as the
method relaxing BPR's *user independence* assumption: the preference of
user ``u`` on her observed item ``i`` is blended with the preference of
a sampled *group* ``G`` of other users who also consumed ``i``,

``R = rho * mean_{w in G} f_wi + (1 - rho) * f_ui - f_uj``

and the usual logistic objective ``ln sigma(R)`` is maximized.  The
group preference does not fit the single-user linear-combination
``_tuple_terms`` contract, so GBPR overrides the SGD step itself —
but it rides the shared :class:`~repro.models.base.TupleSGDRecommender`
epoch loop, which gives it checkpoint/resume, divergence guards, early
stopping, and warm starts for free.  Group members are drawn inside
``_make_batch`` (immediately after the tuple draw, preserving the RNG
call order of the original dedicated loop, so training is bitwise
unchanged by the refactor).
"""

from __future__ import annotations

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.mf.functional import scatter_add_rows, sigmoid_and_log_sigmoid
from repro.models.base import TupleSGDRecommender
from repro.sampling.base import TupleBatch
from repro.utils.exceptions import ConfigError
from repro.utils.validation import check_probability


class GBPR(TupleSGDRecommender):
    """Group-preference BPR.

    Parameters
    ----------
    rho:
        Group-blend weight in ``[0, 1]``; ``rho = 0`` recovers BPR.
    group_size:
        Number of co-consumers sampled per tuple (the paper's |G|;
        users are drawn with replacement from item ``i``'s consumers,
        always including ``u`` itself when the item has no others).
    """

    def __init__(
        self,
        n_factors: int = 20,
        *,
        rho: float = 0.4,
        group_size: int = 3,
        **kwargs,
    ):
        super().__init__(n_factors, **kwargs)
        check_probability(rho, "rho")
        if group_size < 1:
            raise ConfigError(f"group_size must be >= 1, got {group_size}")
        self.rho = rho
        self.group_size = group_size
        self._item_major: InteractionMatrix | None = None
        self._pending_groups: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "GBPR"

    def _on_fit_start(self, train: InteractionMatrix) -> None:
        self._item_major = train.transpose()

    def _sample_groups(self, items: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """(B, group_size) users drawn from each item's consumer list."""
        item_major = self._item_major
        counts = item_major.user_counts()[items]
        offsets = rng.integers(0, counts[:, None], size=(len(items), self.group_size))
        return item_major.indices[item_major.indptr[items][:, None] + offsets]

    def _make_batch(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        batch = self.sampler.sample(batch_size, rng)
        self._pending_groups = self._sample_groups(batch.pos_i, rng)
        return batch

    def _tuple_terms(self, batch: TupleBatch):  # pragma: no cover - unused
        raise NotImplementedError("GBPR overrides _sgd_step directly")

    def _sgd_step(self, batch: TupleBatch) -> float:
        params = self.params_
        users, pos_i, neg_j = batch.users, batch.pos_i, batch.neg_j
        groups = self._pending_groups  # (B, G), drawn in _make_batch

        user_vecs = params.user_factors[users]  # (B, d)
        group_vecs = params.user_factors[groups]  # (B, G, d)
        item_i = params.item_factors[pos_i]
        item_j = params.item_factors[neg_j]

        f_ui = np.einsum("bd,bd->b", user_vecs, item_i) + params.item_bias[pos_i]
        f_uj = np.einsum("bd,bd->b", user_vecs, item_j) + params.item_bias[neg_j]
        f_group = np.einsum("bgd,bd->b", group_vecs, item_i) / self.group_size
        f_group = f_group + params.item_bias[pos_i]
        margin = self.rho * f_group + (1.0 - self.rho) * f_ui - f_uj
        probability, log_probability = sigmoid_and_log_sigmoid(margin)
        residual = 1.0 - probability

        lr = self.learning_rate_ if self.learning_rate_ is not None else self.sgd.learning_rate
        guard = self._active_guard
        reg = self.reg

        # dR/dU_u = (1 - rho) V_i - V_j ; group members get rho/|G| V_i.
        user_update = lr * (
            residual[:, None] * ((1 - self.rho) * item_i - item_j) - reg.alpha_u * user_vecs
        )
        group_grad = np.broadcast_to(
            (self.rho / self.group_size) * residual[:, None, None] * item_i[:, None, :],
            group_vecs.shape,
        )
        group_update = lr * (
            group_grad.reshape(-1, params.n_factors)
            - reg.alpha_u * group_vecs.reshape(-1, params.n_factors)
        )
        # dR/dV_i = rho mean(U_G) + (1 - rho) U_u ; dR/dV_j = -U_u.
        mean_group = group_vecs.mean(axis=1)
        item_i_update = lr * (
            residual[:, None] * (self.rho * mean_group + (1 - self.rho) * user_vecs)
            - reg.alpha_v * item_i
        )
        item_j_update = lr * (-residual[:, None] * user_vecs - reg.alpha_v * item_j)
        bias_i_update = lr * (residual - reg.beta_v * params.item_bias[pos_i])
        if guard is not None:
            user_update = guard.clip_rows(user_update)
            group_update = guard.clip_rows(group_update)
            item_i_update = guard.clip_rows(item_i_update)
            item_j_update = guard.clip_rows(item_j_update)
            bias_i_update = guard.clip_rows(bias_i_update)
        scatter_add_rows(params.user_factors, users, user_update)
        scatter_add_rows(params.user_factors, groups.ravel(), group_update)
        scatter_add_rows(params.item_factors, pos_i, item_i_update)
        scatter_add_rows(params.item_factors, neg_j, item_j_update)
        scatter_add_rows(params.item_bias, pos_i, bias_i_update)
        # The negative-bias regularizer reads the *post-positive-update*
        # bias, matching the update order of the original GBPR loop.
        bias_j_update = lr * (-residual - reg.beta_v * params.item_bias[neg_j])
        if guard is not None:
            bias_j_update = guard.clip_rows(bias_j_update)
        scatter_add_rows(params.item_bias, neg_j, bias_j_update)
        return float(np.mean(-log_probability))
