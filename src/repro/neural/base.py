"""Shared training loop for the neural baselines."""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.models.base import Recommender
from repro.neural.autograd import Tensor, no_grad
from repro.neural.optim import Adam
from repro.sampling.uniform import UniformSampler
from repro.utils.exceptions import ConfigError, DataError
from repro.utils.rng import as_generator


class NeuralRecommender(Recommender):
    """Adam-trained neural recommender base.

    Subclasses implement :meth:`_build` (construct the network) and
    :meth:`_batch_loss` (loss over one batch of observed pairs); this
    base handles epoch/batch iteration, uniform negative sampling with
    exact membership rejection, and chunked inference.

    Parameters
    ----------
    n_epochs, batch_size, learning_rate:
        Training schedule (the NCF family uses Adam).
    n_negatives:
        Uniform negatives sampled per observed pair (pointwise models).
    embedding_dim:
        Latent size of the embedding tables (paper searches {4, 8, 16, 32}).
    """

    def __init__(
        self,
        *,
        embedding_dim: int = 8,
        n_epochs: int = 10,
        batch_size: int = 256,
        learning_rate: float = 0.005,
        n_negatives: int = 4,
        weight_decay: float = 1e-6,
        seed=None,
        epoch_callback=None,
    ):
        super().__init__()
        if embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {embedding_dim}")
        if n_epochs < 1 or batch_size < 1 or n_negatives < 1:
            raise ConfigError("n_epochs, batch_size and n_negatives must be >= 1")
        self.embedding_dim = embedding_dim
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.n_negatives = n_negatives
        self.weight_decay = weight_decay
        self.seed = seed
        self.epoch_callback = epoch_callback
        self.loss_history_: list[float] = []
        self._module = None
        self._negatives: UniformSampler | None = None

    # -- subclass interface ----------------------------------------------
    @abstractmethod
    def _build(self, n_users: int, n_items: int, rng: np.random.Generator) -> None:
        """Construct the network into ``self._module``."""

    @abstractmethod
    def _forward(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Predicted logits for aligned ``(users, items)`` pairs, shape (B,)."""

    @abstractmethod
    def _batch_loss(self, users: np.ndarray, items: np.ndarray, rng: np.random.Generator) -> Tensor:
        """Scalar loss over one batch of observed positives."""

    # -- shared machinery ----------------------------------------------------
    def _sample_negatives(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._negatives.sample_negative_uniform(users, rng)

    def fit(self, train: InteractionMatrix, validation: InteractionMatrix | None = None) -> "NeuralRecommender":
        if train.n_interactions == 0:
            raise DataError("cannot train on an empty interaction matrix")
        rng = as_generator(self.seed)
        self._train = train
        self._negatives = UniformSampler().bind(train)
        self._build(train.n_users, train.n_items, rng)
        optimizer = Adam(
            self._module.parameters(),
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        pairs = train.pairs()
        self.loss_history_ = []
        for epoch in range(self.n_epochs):
            order = rng.permutation(len(pairs))
            epoch_loss, n_batches = 0.0, 0
            for start in range(0, len(pairs), self.batch_size):
                batch = pairs[order[start : start + self.batch_size]]
                optimizer.zero_grad()
                loss = self._batch_loss(batch[:, 0], batch[:, 1], rng)
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                n_batches += 1
            self.loss_history_.append(epoch_loss / max(n_batches, 1))
            if self.epoch_callback is not None:
                self.epoch_callback(self, epoch)
        return self

    def predict_user(self, user: int) -> np.ndarray:
        train = self._require_fitted()
        items = np.arange(train.n_items, dtype=np.int64)
        users = np.full(train.n_items, user, dtype=np.int64)
        chunks = []
        with no_grad():
            for start in range(0, train.n_items, 4096):
                logits = self._forward(users[start : start + 4096], items[start : start + 4096])
                chunks.append(logits.data.ravel())
        return np.concatenate(chunks)

    def predict_batch(self, users) -> np.ndarray:
        """Batched inference into one preallocated ``(B, n_items)`` matrix.

        The forward passes keep the exact per-user 4096-item chunk
        shapes of :meth:`predict_user`: fusing users into larger pair
        batches would route the dense layers through differently-blocked
        GEMMs and change low-order bits, breaking the chunk-invariance
        contract the evaluator relies on.  The batch win here is holding
        ``no_grad`` open and reusing the id buffers across users.
        """
        train = self._require_fitted()
        users = np.asarray(users, dtype=np.int64)
        items = np.arange(train.n_items, dtype=np.int64)
        out = np.empty((len(users), train.n_items))
        with no_grad():
            for row, user in enumerate(users):
                user_ids = np.full(train.n_items, int(user), dtype=np.int64)
                for start in range(0, train.n_items, 4096):
                    logits = self._forward(
                        user_ids[start : start + 4096], items[start : start + 4096]
                    )
                    out[row, start : start + 4096] = logits.data.ravel()
        return out


class PointwiseNeuralRecommender(NeuralRecommender):
    """Pointwise training: BCE over positives plus sampled negatives."""

    def _batch_loss(self, users: np.ndarray, items: np.ndarray, rng: np.random.Generator) -> Tensor:
        from repro.neural.losses import bce_with_logits

        neg_users = np.repeat(users, self.n_negatives)
        neg_items = self._sample_negatives(neg_users, rng)
        all_users = np.concatenate([users, neg_users])
        all_items = np.concatenate([items, neg_items])
        targets = np.concatenate([np.ones(len(users)), np.zeros(len(neg_users))])
        logits = self._forward(all_users, all_items)
        return bce_with_logits(logits, targets)
