"""Recommender interfaces and the shared SGD training loop.

Every pairwise / list-and-pairwise model in the paper maximizes an
objective of the form ``sum ln sigma(R)`` where ``R`` is a *linear
combination of predicted scores* over a sampled tuple of items
(Section 4.3).  :class:`TupleSGDRecommender` implements that loop once —
vectorized mini-batch SGD with L2 regularization and scatter-add
updates — and concrete models only declare which items participate and
with which coefficients:

============  =======================  ==========================
model         items                    coefficients
============  =======================  ==========================
BPR           (i, j)                   (1, -1)
CLAPF-MAP     (k, i, j)                (λ, 1-2λ, -(1-λ))
CLAPF-MRR     (i, k, j)                (1, -λ, -(1-λ))
MPR           (i, v, j)                (λ, 1-2λ, -(1-λ))
============  =======================  ==========================

Its epoch is one hook of :class:`EpochSGDRecommender`, the only
resilient training loop: CLiMF plugs its exact per-user pass into the
same loop, so resume, guard rollback, checkpoints and metrics exist once.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.metrics import scoring
from repro.metrics.evaluator import ndcg_from_hits
from repro.mf.functional import scatter_add_rows, sigmoid_and_log_sigmoid
from repro.mf.params import FactorParams
from repro.mf.sgd import EarlyStoppingConfig, RegularizationConfig, SGDConfig
from repro.obs.registry import MetricsRegistry, as_registry
from repro.sampling.base import Sampler, TupleBatch
from repro.sampling.uniform import UniformSampler
from repro.utils.exceptions import CheckpointError, ConfigError, NotFittedError
from repro.utils.rng import as_generator

EpochCallback = Callable[["Recommender", int], None]


def validation_ndcg(
    model,
    train: InteractionMatrix,
    validation: InteractionMatrix,
    *,
    k: int = 5,
    max_users: int | None = None,
    seed: int = 0,
    chunk_size: int = 2048,
) -> float:
    """Mean NDCG@k on the validation positives (train items excluded).

    A lightweight version of the full evaluator used for early stopping
    and model selection inside training loops.  ``model`` is anything
    :func:`repro.metrics.scoring.as_batch_scorer` accepts — a fitted
    recommender, or any object exposing ``predict_batch(users)`` or
    ``predict_user(user)``; users are scored in batches of
    ``chunk_size`` through the chunk-invariant engine, so the result
    does not depend on the chunking.

    The chunks run serially on the calling thread, never through
    :func:`~repro.metrics.scoring.map_chunks`: this runs inside serving
    processes (``serving/reload.py`` gates a candidate model on it),
    where the threaded path's process-wide one-BLAS-thread scope would
    also slow the serving threads' GEMMs.
    """
    users = np.flatnonzero(validation.user_counts() > 0)
    if max_users is not None and len(users) > max_users:
        users = np.sort(as_generator(seed).choice(users, size=max_users, replace=False))
    if len(users) == 0:
        return 0.0
    scorer = scoring.as_batch_scorer(model)
    validation_counts = validation.user_counts()
    values = []
    for chunk in scoring.iter_user_chunks(users, chunk_size):
        scores = np.asarray(scorer(chunk), dtype=np.float64)
        masked = np.where(scoring.positives_mask(train, chunk), -np.inf, scores)
        ranked = scoring.topk_from_matrix(masked, k)
        hit_at = np.take_along_axis(scoring.positives_mask(validation, chunk), ranked, axis=1)
        values.append(ndcg_from_hits(hit_at, validation_counts[chunk], k))
    return float(np.mean(np.concatenate(values)))


class Recommender(ABC):
    """Base interface every model in the library implements."""

    def __init__(self):
        self._train: InteractionMatrix | None = None

    @property
    def name(self) -> str:
        """Display name used in tables (defaults to the class name)."""
        return type(self).__name__

    @property
    def is_fitted(self) -> bool:
        return self._train is not None

    def _require_fitted(self) -> InteractionMatrix:
        if self._train is None:
            raise NotFittedError(f"{self.name} has not been fitted; call fit() first")
        return self._train

    @abstractmethod
    def fit(self, train: InteractionMatrix, validation: InteractionMatrix | None = None) -> "Recommender":
        """Train on the observed positive-feedback matrix."""

    @abstractmethod
    def predict_user(self, user: int) -> np.ndarray:
        """Predicted relevance scores of one user over all items."""

    def predict_batch(self, users) -> np.ndarray:
        """Scores for many users at once, shape ``(len(users), n_items)``.

        The batched scoring API: row ``r`` equals ``predict_user(users[r])``
        *bitwise*, for any batch composition (the chunk-invariance
        contract of :mod:`repro.metrics.scoring`, which the evaluator
        relies on to shard users into chunks).  This default stacks
        ``predict_user`` calls; models with a vectorizable scoring rule
        override it with a native batch kernel.
        """
        users = np.asarray(users, dtype=np.int64)
        if len(users) == 0 and self._train is not None:
            return np.zeros((0, self._train.n_items))
        return np.stack([np.asarray(self.predict_user(int(user)), dtype=np.float64) for user in users])

    def _popularity_topk(self, train: InteractionMatrix, k: int) -> np.ndarray:
        """The popularity tier's ordering: item counts ranked stably.

        This is the defined serving behavior for *cold* users (zero
        observed interactions): their scores under most models are
        arbitrary — initialization noise for factor models, all-zero
        ties for neighbourhood models — so instead of returning an
        arbitrary ordering they get exactly what
        :class:`~repro.models.poprank.PopRank` would serve, computed
        through the same stable top-k kernel.
        """
        counts = train.item_counts().astype(np.float64)
        return scoring.topk_from_matrix(counts[None, :], min(k, train.n_items))[0]

    def recommend(self, user: int, k: int = 5, *, exclude_observed: bool = True) -> np.ndarray:
        """Top-k item ids for ``user``, best first.

        Training positives are excluded by default (the deployment
        setting: never re-recommend what the user already has).  Users
        with zero observed interactions get the popularity ordering —
        see :meth:`_popularity_topk`.
        """
        train = self._require_fitted()
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if not (0 <= user < train.n_users) or train.n_positives(user) == 0:
            return self._popularity_topk(train, k)
        scores = np.asarray(self.predict_user(user), dtype=np.float64).copy()
        if exclude_observed:
            scores[train.positives(user)] = -np.inf
        # The shared kernel owns the k-boundary discipline (clamp at the
        # catalog size, stable full sort instead of a raw argpartition),
        # so per-user and batched rankings agree bitwise even at k >=
        # n_items with tied scores.
        return scoring.topk_from_matrix(scores[None, :], min(k, train.n_items))[0]

    def recommend_batch(
        self,
        users,
        k: int = 5,
        *,
        exclude_observed: bool = True,
        chunk_size: int = scoring.CHUNK_SIZE,
    ) -> np.ndarray:
        """Top-k recommendations for many users at once, shape ``(U, k)``.

        The serving-path API: scores come from :meth:`predict_batch` in
        chunks of ``chunk_size`` users, exclusion masks are built with a
        vectorized CSR scatter, and top-k is a row-wise argpartition —
        identical output to calling :meth:`recommend` per user, without
        the per-user Python loop.  Cold users (zero observed
        interactions) get the popularity ordering on both paths, so the
        native batch kernel and the generic per-user path agree.
        """
        train = self._require_fitted()
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        users = np.asarray(users, dtype=np.int64)
        k = min(k, train.n_items)
        user_counts = train.user_counts()
        # Hoisted: the popularity ordering is identical for every cold
        # user in the call, so it is computed at most once per call —
        # never per chunk, never per user (pinned by a counting test).
        cold_row = (
            self._popularity_topk(train, k)
            if np.any(user_counts[users] == 0)
            else None
        )
        blocks = []
        for chunk in scoring.iter_user_chunks(users, chunk_size):
            scores = np.asarray(self.predict_batch(chunk), dtype=np.float64)
            if exclude_observed:
                scores = np.where(scoring.positives_mask(train, chunk), -np.inf, scores)
            block = scoring.topk_from_matrix(scores, k)
            cold = np.flatnonzero(user_counts[chunk] == 0)
            if len(cold):
                block[cold] = cold_row
            blocks.append(block)
        if not blocks:
            return np.zeros((0, k), dtype=np.int64)
        return np.concatenate(blocks, axis=0)


class FactorRecommender(Recommender):
    """A recommender backed by :class:`FactorParams` (``f = U V^T + b``)."""

    def __init__(self):
        super().__init__()
        self.params_: FactorParams | None = None

    def predict_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        return self.params_.predict_user(user)

    def predict_batch(self, users) -> np.ndarray:
        self._require_fitted()
        return self.params_.predict_batch(users)


class EpochSGDRecommender(FactorRecommender):
    """A factor model trained by the shared resilient epoch loop.

    :meth:`fit` owns everything around one epoch — initialization or
    resume, the divergence guard and its rollback, epoch-boundary
    checkpoints, early stopping, and per-epoch metrics — and keeps all
    of its state in one :class:`~repro.resilience.checkpoint.TrainingCheckpoint`
    record: the same capture feeds the checkpoint files and the guard's
    in-memory copy of the last healthy epoch, and the same restore
    serves ``fit(resume_from=...)`` and rollback.  Subclasses supply the
    epoch itself (:meth:`_run_epoch`) and, when they draw tuples, the
    sampler hooks.

    Parameters
    ----------
    n_factors:
        Latent dimensionality ``d`` (the paper fixes 20).
    sgd:
        Learning-rate / epoch / batch configuration.
    reg:
        L2 weights (alpha_u, alpha_v, beta_v).
    seed:
        Seed for initialization and the epoch's random draws.
    epoch_callback:
        Called as ``callback(model, epoch)`` after each epoch — used by
        the convergence experiments (Fig. 4) to trace metrics.
    early_stopping:
        Optional :class:`~repro.mf.sgd.EarlyStoppingConfig`; requires a
        validation matrix to be passed to ``fit``.
    warm_start:
        When true, a second ``fit`` call continues from the current
        parameters instead of re-initializing (shapes permitting) — the
        online-loop refit path.
    guard:
        Optional divergence guard — a
        :class:`~repro.resilience.guard.GuardConfig` or a ready
        :class:`~repro.resilience.guard.TrainingGuard`.  Adds gradient
        clipping inside the SGD step, NaN/Inf and exploding-loss
        detection at epoch boundaries, and LR-backoff rollback to the
        last healthy epoch (or a typed abort), per the configured
        policy.
    checkpoint:
        Optional epoch-boundary checkpointing — a
        :class:`~repro.resilience.checkpoint.CheckpointConfig` or a
        ready :class:`~repro.resilience.checkpoint.CheckpointManager`.
        Snapshots parameters + RNG/sampler/early-stopping state so a
        killed run restarts with ``fit(..., resume_from=...)``.
    fault_injector:
        Testing hook — a
        :class:`~repro.resilience.chaos.FaultInjector` ticked by the
        epoch (once per SGD step in the tuple-SGD models), used by the
        fault-injection suite.
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The
        training loop records per-epoch loss / learning rate / wall
        time, grad-clip activations, divergence-guard rollbacks, and
        validation scores; a sampler shares the registry for draw and
        rejection counters.  Defaults to the no-op registry, which
        leaves training bitwise identical to the uninstrumented path.
    """

    def __init__(
        self,
        n_factors: int = 20,
        *,
        sgd: SGDConfig | None = None,
        reg: RegularizationConfig | None = None,
        seed=None,
        epoch_callback: EpochCallback | None = None,
        early_stopping: EarlyStoppingConfig | None = None,
        warm_start: bool = False,
        guard=None,
        checkpoint=None,
        fault_injector=None,
        obs: MetricsRegistry | None = None,
    ):
        super().__init__()
        self.n_factors = int(n_factors)
        self.sgd = sgd or SGDConfig()
        self.reg = reg or RegularizationConfig()
        self.seed = seed
        self.epoch_callback = epoch_callback
        self.early_stopping = early_stopping
        self.warm_start = warm_start
        self.guard = guard
        self.checkpoint = checkpoint
        self.fault_injector = fault_injector
        self.obs = as_registry(obs)
        self.learning_rate_: float | None = None
        self.loss_history_: list[float] = []
        self.validation_history_: list[float] = []
        self.best_epoch_: int | None = None
        self.stopped_early_: bool = False
        self._active_guard = None

    # -- model-specific structure --------------------------------------
    @abstractmethod
    def _run_epoch(self, rng: np.random.Generator) -> tuple[float, str | None]:
        """One pass over the training data: ``(mean loss, divergence)``.

        The loss is the value the guard watches and ``loss_history_``
        records (lower is better).  ``divergence`` is a reason string
        when the pass stopped early on a non-finite step, else ``None``.
        """

    def _on_fit_start(self, train: InteractionMatrix) -> None:
        """Hook for subclasses that precompute per-fit structures."""

    def _bind_sampler(self, state: dict | None) -> None:
        """Attach the sampler to the live parameters, then load ``state``.

        Called at fit start (``state=None``) and on every restore.
        Models without a sampler have nothing to bind.
        """

    def _sampler_state(self) -> dict:
        """The sampler's ``state_dict`` (empty without a sampler)."""
        return {}

    # -- training state ------------------------------------------------
    def _resolve_checkpoint_manager(self):
        from repro.resilience.checkpoint import CheckpointConfig, CheckpointManager

        if self.checkpoint is None:
            return None
        if isinstance(self.checkpoint, CheckpointManager):
            return self.checkpoint
        if isinstance(self.checkpoint, CheckpointConfig):
            return CheckpointManager(self.checkpoint)
        raise ConfigError(
            f"checkpoint must be a CheckpointConfig or CheckpointManager, "
            f"got {type(self.checkpoint).__name__}"
        )

    def _capture(self, epoch: int, rng, stopping_state: dict):
        """The training state after ``epoch``, copied so training can go on."""
        from repro.resilience.checkpoint import TrainingCheckpoint

        best_score = stopping_state["best_score"]
        sampler_state = self._sampler_state()
        return TrainingCheckpoint(
            epoch=epoch,
            params=self.params_.copy(),
            rng_state=copy.deepcopy(rng.bit_generator.state),
            sampler_step=sampler_state.pop("step", 0),
            sampler_state=sampler_state,
            learning_rate=self.learning_rate_,
            loss_history=list(self.loss_history_),
            validation_history=list(self.validation_history_),
            best_epoch=self.best_epoch_,
            best_score=None if not np.isfinite(best_score) else float(best_score),
            stale_evals=stopping_state["stale"],
            best_params=stopping_state["best_params"],
            extra={"model": self.name},
        )

    def _restore(self, checkpoint, rng, stopping_state: dict) -> int:
        """Continue training from ``checkpoint``; returns the epoch to run next."""
        self.params_ = checkpoint.params.copy()
        try:
            rng.bit_generator.state = copy.deepcopy(checkpoint.rng_state)
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"cannot restore RNG state: {error}") from error
        self._bind_sampler({**checkpoint.sampler_state, "step": checkpoint.sampler_step})
        self.learning_rate_ = (
            checkpoint.learning_rate
            if checkpoint.learning_rate is not None
            else self.sgd.learning_rate
        )
        self.loss_history_ = list(checkpoint.loss_history)
        self.validation_history_ = list(checkpoint.validation_history)
        self.best_epoch_ = checkpoint.best_epoch
        best_params = checkpoint.best_params
        stopping_state.update(
            best_score=checkpoint.best_score if checkpoint.best_score is not None else -np.inf,
            best_params=best_params.copy() if best_params is not None else None,
            stale=checkpoint.stale_evals,
        )
        return checkpoint.epoch + 1

    # -- training --------------------------------------------------------
    def fit(
        self,
        train: InteractionMatrix,
        validation: InteractionMatrix | None = None,
        *,
        resume_from=None,
    ) -> "EpochSGDRecommender":
        """Train the model; optionally resume from a saved checkpoint.

        ``resume_from`` accepts a
        :class:`~repro.resilience.checkpoint.TrainingCheckpoint`, a
        checkpoint file path, or a checkpoint directory (latest epoch
        wins).  Resuming restores parameters, RNG and sampler state,
        the effective learning rate, and the early-stopping bookkeeping,
        so the resumed run is bitwise identical to the uninterrupted one
        (adaptive samplers included: their ranking caches are restored
        from the checkpoint, not rebuilt from the resumed parameters).
        A guard rollback restores the last healthy epoch the same way,
        keeping only the backed-off learning rate.
        """
        from repro.resilience.checkpoint import resolve_checkpoint
        from repro.resilience.guard import as_guard

        if self.early_stopping is not None and validation is None:
            raise ConfigError("early_stopping requires a validation matrix in fit()")
        guard = as_guard(self.guard)
        manager = self._resolve_checkpoint_manager()
        rng = as_generator(self.seed)

        stopping_state = {"best_score": -np.inf, "best_params": None, "stale": 0}
        resumed = None
        if resume_from is not None:
            resumed = resolve_checkpoint(resume_from)
            if (resumed.params.n_users, resumed.params.n_items) != (train.n_users, train.n_items):
                raise CheckpointError(
                    f"checkpoint shape ({resumed.params.n_users}x{resumed.params.n_items}) "
                    f"does not match training data ({train.n_users}x{train.n_items})"
                )
        elif not (
            self.warm_start
            and self.params_ is not None
            and self.params_.n_users == train.n_users
            and self.params_.n_items == train.n_items
        ):
            self.params_ = FactorParams.init(
                train.n_users, train.n_items, self.n_factors, seed=rng
            )
        self._train = train
        self._on_fit_start(train)
        if resumed is not None:
            start_epoch = self._restore(resumed, rng, stopping_state)
        else:
            self._bind_sampler(None)
            self.learning_rate_ = self.sgd.learning_rate
            self.loss_history_ = []
            self.validation_history_ = []
            self.best_epoch_ = None
            start_epoch = 0
        self.stopped_early_ = False
        if guard is not None:
            guard.reset()
        self._active_guard = guard
        if self.fault_injector is not None:
            self.fault_injector.reset()

        stopping = self.early_stopping
        last_healthy = (
            self._capture(start_epoch - 1, rng, stopping_state)
            if guard is not None
            else None
        )

        obs = self.obs
        try:
            epoch = start_epoch
            while epoch < self.sgd.n_epochs:
                epoch_start = obs.clock.monotonic()
                clips_before = guard.clips_ if guard is not None else 0
                mean_loss, diverged = self._run_epoch(rng)
                if guard is not None:
                    clips = guard.clips_ - clips_before
                    if clips:
                        obs.counter("train_grad_clip_total", model=self.name).inc(clips)
                    reason = diverged or guard.check_epoch(self.params_, mean_loss)
                    if reason is not None:
                        obs.counter("train_rollbacks_total", model=self.name).inc()
                        obs.event(
                            "rollback", model=self.name, epoch=epoch, reason=reason,
                            learning_rate=self.learning_rate_,
                        )
                        # May raise DivergenceError (abort policy / budget spent).
                        guard.record_backoff(reason, epoch=epoch)
                        learning_rate = self.learning_rate_ * guard.config.backoff_factor
                        epoch = self._restore(last_healthy, rng, stopping_state)
                        self.learning_rate_ = learning_rate
                        continue
                self.loss_history_.append(mean_loss)
                epoch_seconds = obs.clock.monotonic() - epoch_start
                obs.counter("train_epochs_total", model=self.name).inc()
                obs.histogram("train_epoch_seconds", model=self.name).observe(epoch_seconds)
                obs.gauge("train_loss", model=self.name).set(mean_loss)
                obs.gauge("train_learning_rate", model=self.name).set(self.learning_rate_)
                obs.event(
                    "epoch", model=self.name, epoch=epoch, loss=mean_loss,
                    learning_rate=self.learning_rate_, seconds=epoch_seconds,
                )
                if self.epoch_callback is not None:
                    self.epoch_callback(self, epoch)
                stop = False
                if stopping is not None and (epoch + 1) % stopping.eval_every == 0:
                    score = validation_ndcg(
                        self.params_, train, validation,
                        k=stopping.k, max_users=stopping.max_users,
                    )
                    self.validation_history_.append(score)
                    obs.gauge("train_validation_score", model=self.name).set(score)
                    obs.event("validation", model=self.name, epoch=epoch, score=score)
                    if score > stopping_state["best_score"] + stopping.min_delta:
                        stopping_state.update(
                            best_score=score, best_params=self.params_.copy(), stale=0
                        )
                        self.best_epoch_ = epoch
                    else:
                        stopping_state["stale"] += 1
                        if stopping_state["stale"] >= stopping.patience:
                            self.stopped_early_ = True
                            stop = True
                    if guard is not None and not stop and guard.observe_validation(score):
                        # Stalled validation: stop rather than burn epochs.
                        self.stopped_early_ = True
                        stop = True
                saving = manager is not None and manager.should_save(epoch)
                if guard is not None or saving:
                    last_healthy = self._capture(epoch, rng, stopping_state)
                if saving:
                    manager.save(last_healthy)
                if stop:
                    break
                epoch += 1
        finally:
            self._active_guard = None
        if stopping_state["best_params"] is not None:
            self.params_ = stopping_state["best_params"]
        return self


class TupleSGDRecommender(EpochSGDRecommender):
    """Generic maximizer of ``sum ln sigma(R(u, tuple))`` by mini-batch SGD.

    Each epoch draws ``SGDConfig.steps_per_epoch`` mini-batches of tuples
    from ``sampler`` and takes one vectorized ascent step on each.  The
    other parameters are those of :class:`EpochSGDRecommender`.

    Parameters
    ----------
    sampler:
        Tuple sampler; defaults to :class:`UniformSampler`.  Adaptive
        samplers receive the live parameters at bind time.
    """

    def __init__(self, n_factors: int = 20, *, sampler: Sampler | None = None, **kwargs):
        super().__init__(n_factors, **kwargs)
        self.sampler = sampler or UniformSampler()

    # -- model-specific structure --------------------------------------
    @abstractmethod
    def _tuple_terms(self, batch: TupleBatch) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(items, coefficients)`` defining ``R`` for the batch.

        ``items`` is ``(B, S)`` int64 — the item ids entering ``R``;
        ``coefficients`` is ``(S,)`` or ``(B, S)`` float — their weights,
        so ``R_b = sum_s coefficients[s] * f(u_b, items[b, s])``.
        """

    def _make_batch(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        """Hook for models that post-process the sampled batch (MPR)."""
        return self.sampler.sample(batch_size, rng)

    # -- the shared loop's hooks ----------------------------------------
    def _bind_sampler(self, state: dict | None) -> None:
        self.sampler.bind(self._train, self.params_)
        self.sampler.obs = self.obs
        if state is not None:
            self.sampler.load_state_dict(state)

    def _sampler_state(self) -> dict:
        return self.sampler.state_dict()

    def _run_epoch(self, rng: np.random.Generator) -> tuple[float, str | None]:
        guard = self._active_guard
        injector = self.fault_injector
        steps = self.sgd.steps_per_epoch(self._train.n_interactions)
        epoch_loss = 0.0
        for _ in range(steps):
            batch = self._make_batch(self.sgd.batch_size, rng)
            loss = self._sgd_step(batch)
            epoch_loss += loss
            if injector is not None:
                injector.tick(self.params_)
            if guard is not None and not np.isfinite(loss):
                return epoch_loss / steps, f"non-finite step loss ({loss})"
        return epoch_loss / steps, None

    def _sgd_step(self, batch: TupleBatch) -> float:
        """One vectorized ascent step on the batch; returns mean -ln sigma(R).

        The updates are formed in place on the step's own gathered copies
        of the rows, with the operations of ``lr * (residual * grad -
        alpha * row)`` in that order, so working in place changes no bit.
        """
        params = self.params_
        users = batch.users
        items, coefficients = self._tuple_terms(batch)
        if coefficients.ndim == 1:
            coefficients = np.broadcast_to(coefficients, items.shape)

        user_vecs = params.user_factors[users]  # (B, d)
        item_vecs = params.item_factors[items]  # (B, S, d)
        item_bias = params.item_bias[items]  # (B, S)
        scores = np.einsum("bd,bsd->bs", user_vecs, item_vecs) + item_bias
        margin = np.einsum("bs,bs->b", coefficients, scores)
        probability, log_probability = sigmoid_and_log_sigmoid(margin)
        residual = 1.0 - probability  # (B,)

        lr = self.learning_rate_ if self.learning_rate_ is not None else self.sgd.learning_rate
        guard = self._active_guard
        reg = self.reg
        # Item factors and biases: dR/dV_s = c_s U_u, dR/db_s = c_s.
        weight = residual[:, None] * coefficients  # (B, S)
        item_update = weight[:, :, None] * user_vecs[:, None, :]  # (B, S, d)
        # User factors: dR/dU_u = sum_s c_s V_s.
        user_update = np.einsum("bs,bsd->bd", coefficients, item_vecs)
        user_update *= residual[:, None]
        user_vecs *= reg.alpha_u
        user_update -= user_vecs
        user_update *= lr
        item_vecs *= reg.alpha_v
        item_update -= item_vecs
        item_update *= lr
        item_update = item_update.reshape(-1, params.n_factors)
        item_bias *= reg.beta_v
        bias_update = np.subtract(weight, item_bias, out=item_bias).ravel()
        bias_update *= lr
        if guard is not None:
            user_update = guard.clip_rows(user_update)
            item_update = guard.clip_rows(item_update)
            bias_update = guard.clip_rows(bias_update)
        flat_items = items.ravel()
        scatter_add_rows(params.user_factors, users, user_update)
        scatter_add_rows(params.item_factors, flat_items, item_update)
        scatter_add_rows(params.item_bias, flat_items, bias_update)
        return float(np.mean(-log_probability))
