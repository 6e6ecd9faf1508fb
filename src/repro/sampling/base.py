"""Sampler interface and shared uniform-sampling machinery."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.mf.params import FactorParams
from repro.obs.registry import NULL_REGISTRY
from repro.utils.exceptions import DataError, NotFittedError

_MAX_REJECTION_ROUNDS = 100


@dataclass(frozen=True)
class TupleBatch:
    """A batch of sampled training tuples.

    Attributes
    ----------
    users:
        User ids, shape ``(B,)``.
    pos_i:
        Observed items ``i`` (the anchor positive), shape ``(B,)``.
    pos_k:
        Second observed items ``k`` (listwise partner), shape ``(B,)``.
        For users with a single positive, ``k == i``.
    neg_j:
        Unobserved items ``j``, shape ``(B,)``.
    """

    users: np.ndarray
    pos_i: np.ndarray
    pos_k: np.ndarray
    neg_j: np.ndarray

    def __post_init__(self):
        shape = self.users.shape
        for name in ("pos_i", "pos_k", "neg_j"):
            if getattr(self, name).shape != shape:
                raise DataError(f"{name} shape {getattr(self, name).shape} != users shape {shape}")

    def __len__(self) -> int:
        return len(self.users)


class Sampler(ABC):
    """Draws :class:`TupleBatch` batches against a bound training matrix.

    Lifecycle: the owning model calls :meth:`bind` once at the start of
    ``fit`` (providing the training data and, for adaptive samplers, the
    live parameter object), then :meth:`sample` per SGD step.  Adaptive
    samplers refresh internal ranking caches inside ``sample`` based on
    a step counter.

    The ``obs`` attribute is a metrics registry the owning model shares
    at fit time (the no-op registry until then); samplers record draw
    and rejection counters through it.  Instrumentation never draws from
    ``rng`` or alters the returned batches.
    """

    def __init__(self):
        self._train: InteractionMatrix | None = None
        self._params: FactorParams | None = None
        self._encoded_pairs: np.ndarray | None = None
        self._pair_users: np.ndarray | None = None
        self._user_counts: np.ndarray | None = None
        self._step = 0
        self.obs = NULL_REGISTRY

    # -- lifecycle ------------------------------------------------------
    def bind(self, train: InteractionMatrix, params: FactorParams | None = None) -> "Sampler":
        """Attach the sampler to a training matrix (and live parameters)."""
        if train.n_interactions == 0:
            raise DataError("cannot sample from an empty training matrix")
        if train.n_interactions >= train.n_users * train.n_items:
            raise DataError("training matrix has no unobserved items to sample")
        self._train = train
        self._params = params
        self._user_counts = train.user_counts()
        # The user owning each stored pair, in the CSR order of ``indices``.
        self._pair_users = np.repeat(np.arange(train.n_users, dtype=np.int64), self._user_counts)
        self._encoded_pairs = np.sort(self._pair_users * train.n_items + train.indices)
        self._step = 0
        self._on_bind()
        return self

    def _on_bind(self) -> None:
        """Hook for subclasses to build caches after binding."""

    @property
    def train(self) -> InteractionMatrix:
        if self._train is None:
            raise NotFittedError(f"{type(self).__name__} is not bound; call bind() first")
        return self._train

    @property
    def params(self) -> FactorParams:
        if self._params is None:
            raise NotFittedError(f"{type(self).__name__} requires model parameters at bind time")
        return self._params

    # -- shared primitives ------------------------------------------------
    def contains_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized test: is each ``(users[t], items[t])`` observed?"""
        encoded = np.asarray(users, dtype=np.int64) * self.train.n_items + np.asarray(items, dtype=np.int64)
        positions = np.searchsorted(self._encoded_pairs, encoded)
        positions = np.minimum(positions, len(self._encoded_pairs) - 1)
        return self._encoded_pairs[positions] == encoded

    def sample_anchor_pairs(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Uniform ``(u, i)`` over observed pairs (BPR's anchor draw)."""
        train = self.train
        idx = rng.integers(0, train.n_interactions, size=batch_size)
        return self._pair_users[idx], train.indices[idx]

    def sample_second_positive_uniform(
        self, users: np.ndarray, pos_i: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform second positive ``k != i`` where the user allows it."""
        train = self.train
        counts = self._user_counts[users]
        offsets = rng.integers(0, counts)
        pos_k = train.indices[train.indptr[users] + offsets]
        self.obs.counter("sampler_draws_total", kind="second_positive").inc(len(users))
        for _ in range(_MAX_REJECTION_ROUNDS):
            clash = (pos_k == pos_i) & (counts > 1)
            if not clash.any():
                break
            n_clash = int(clash.sum())
            self.obs.counter("sampler_rejections_total", kind="second_positive").inc(n_clash)
            offsets = rng.integers(0, counts[clash])
            pos_k[clash] = train.indices[train.indptr[users[clash]] + offsets]
        return pos_k

    def redraw_observed(
        self,
        users: np.ndarray,
        items: np.ndarray,
        redraw: Callable[[np.ndarray], np.ndarray],
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Redraw ``items`` in place until no ``(users[t], items[t])`` is observed.

        Each round sets ``items[where] = redraw(where)`` for the observed
        positions ``where`` (ascending) and re-checks only those, so the
        mask is the one a whole-batch check would give.  Positions still
        observed after ``_MAX_REJECTION_ROUNDS`` rounds fall back to
        :meth:`sample_negative_uniform` with ``rng``; without ``rng``
        (the uniform draw itself) they raise :class:`DataError`.
        """
        observed = self.contains_pairs(users, items)
        for _ in range(_MAX_REJECTION_ROUNDS):
            if not observed.any():
                return items
            where = np.flatnonzero(observed)
            items[where] = redraw(where)
            observed[where] = self.contains_pairs(users[where], items[where])
        if observed.any():
            if rng is None:
                raise DataError(
                    "rejection sampling failed to find unobserved items; matrix is too dense"
                )
            items[observed] = self.sample_negative_uniform(users[observed], rng)
        return items

    def sample_negative_uniform(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Uniform unobserved item per user, by vectorized rejection."""
        n_items = self.train.n_items
        neg_j = rng.integers(0, n_items, size=len(users))
        self.obs.counter("sampler_draws_total", kind="negative").inc(len(users))

        def redraw(where: np.ndarray) -> np.ndarray:
            self.obs.counter("sampler_rejections_total", kind="negative").inc(len(where))
            return rng.integers(0, n_items, size=len(where))

        return self.redraw_observed(users, neg_j, redraw)

    # -- main API ---------------------------------------------------------
    def sample(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        """Draw one batch of training tuples."""
        self._step += 1
        batch = self._sample(batch_size, rng)
        sampler = type(self).__name__
        self.obs.counter("sampler_batches_total", sampler=sampler).inc()
        self.obs.counter("sampler_tuples_total", sampler=sampler).inc(len(batch))
        return batch

    @abstractmethod
    def _sample(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        """Subclass sampling logic (step counter already advanced)."""

    @property
    def step(self) -> int:
        """Number of batches drawn since the last bind."""
        return self._step

    # -- checkpoint/resume ------------------------------------------------
    def _ranking_caches(self) -> dict:
        """Named ranking caches whose refresh state a checkpoint carries."""
        return {}

    def state_dict(self) -> dict:
        """Sampler state captured at a checkpoint.

        The step counter, plus for each ranking cache the steps since
        its last rebuild (``"<cache>.calls_since_refresh"``) and the
        item factors that rebuild ranked (``"<cache>.snapshot"``, an
        array).  Restoring them rebuilds the same orders and keeps the
        refresh phase, so a resumed run is bitwise identical to an
        uninterrupted one for the adaptive samplers as well as the
        uniform one.
        """
        state: dict = {"step": self._step}
        for name, cache in self._ranking_caches().items():
            if cache is None:  # not bound yet
                continue
            for key, value in cache.state_dict().items():
                state[f"{name}.{key}"] = value
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (after ``bind``).

        Caches missing from ``state`` (an older checkpoint) stay cold and
        rebuild from the restored parameters on the next step.
        """
        self._step = int(state.get("step", 0))
        for name, cache in self._ranking_caches().items():
            prefix = f"{name}."
            cache.load_state_dict(
                {key[len(prefix):]: value for key, value in state.items() if key.startswith(prefix)}
            )
