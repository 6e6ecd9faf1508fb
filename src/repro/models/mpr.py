"""Multiple Pairwise Ranking (Yu et al., CIKM 2018).

MPR relaxes BPR's single pairwise assumption into *multiple* pairwise
criteria over three item classes: a positive ``i``, an "uncertain"
item ``v`` and a negative ``j``, fused as
``R = lambda (f_ui - f_uv) + (1 - lambda)(f_uv - f_uj)``.

The original work identifies the uncertain class from auxiliary *view*
data (viewed-but-not-purchased items).  When view data is available,
pass it as ``view_data`` and the uncertain item is drawn from the
user's actual views.  View logs are not part of the paper's six
datasets, so by default the uncertain class is proxied by
*popularity-weighted unobserved* items: popular items the user never
touched are the ones the user most plausibly saw and skipped.  This
substitution is documented in DESIGN.md;
:func:`repro.data.synthetic.generate_synthetic_with_views` produces
synthetic view data for the faithful mode.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import TupleSGDRecommender
from repro.sampling.base import TupleBatch
from repro.utils.validation import check_probability


class MPR(TupleSGDRecommender):
    """Multiple pairwise ranking with a popularity-proxied middle class.

    Parameters
    ----------
    tradeoff:
        The MPR fusion parameter ``lambda`` over the two pairwise
        criteria (paper searches {0.0, 0.1, ..., 1.0}).
    view_data:
        Optional auxiliary view feedback (same shape as the training
        matrix).  Users with views draw their uncertain item from them;
        users without fall back to the popularity proxy.
    """

    def __init__(
        self,
        n_factors: int = 20,
        *,
        tradeoff: float = 0.5,
        view_data=None,
        **kwargs,
    ):
        super().__init__(n_factors, **kwargs)
        check_probability(tradeoff, "tradeoff")
        self.tradeoff = tradeoff
        self.view_data = view_data
        self._popularity_cdf: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "MPR"

    def fit(self, train, validation=None) -> "MPR":
        counts = train.item_counts().astype(np.float64) + 1.0  # smooth empty items
        self._popularity_cdf = np.cumsum(counts / counts.sum())
        return super().fit(train, validation)

    def _sample_from_views(self, users: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Uniform draw from each user's views; mask marks users without any."""
        views = self.view_data
        counts = views.user_counts()[users]
        has_views = counts > 0
        items = np.zeros(len(users), dtype=np.int64)
        if has_views.any():
            safe_counts = np.maximum(counts[has_views], 1)
            offsets = rng.integers(0, safe_counts)
            items[has_views] = views.indices[views.indptr[users[has_views]] + offsets]
        return items, has_views

    def _sample_uncertain(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """View item when available, else a popularity-weighted unobserved one."""
        if self.view_data is not None:
            items, has_views = self._sample_from_views(users, rng)
            if has_views.all():
                return items
            fallback = self._sample_uncertain_popularity(users[~has_views], rng)
            items[~has_views] = fallback
            return items
        return self._sample_uncertain_popularity(users, rng)

    def _sample_uncertain_popularity(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Popularity-proportional unobserved item per user."""
        cdf = self._popularity_cdf

        def draw(size: int) -> np.ndarray:
            return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)

        return self.sampler.redraw_observed(
            users, draw(len(users)), lambda where: draw(len(where)), rng
        )

    def _make_batch(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        batch = self.sampler.sample(batch_size, rng)
        # Repurpose the k slot for the uncertain (view-proxy) item v.
        uncertain = self._sample_uncertain(batch.users, rng)
        return TupleBatch(users=batch.users, pos_i=batch.pos_i, pos_k=uncertain, neg_j=batch.neg_j)

    def _tuple_terms(self, batch: TupleBatch) -> tuple[np.ndarray, np.ndarray]:
        lam = self.tradeoff
        items = np.stack([batch.pos_i, batch.pos_k, batch.neg_j], axis=1)
        coefficients = np.array([lam, 1.0 - 2.0 * lam, -(1.0 - lam)])
        return items, coefficients
