"""Bitwise properties of :func:`repro.metrics.scoring.linear_scores`.

The kernel runs one GEMM per fixed block of ``scoring.BLOCK`` rows so
that a score row does not depend on the batch it was computed in.  That
holds only for a block size the BLAS computes position-independently,
so these tests compare every slice of a batch against the same rows of
one full call, bit for bit, across dtypes, shapes, start offsets, ``V``
memory layouts and BLAS thread counts.  ``test_predict_batch.py`` checks
the same contract through the models, but only on small batches that a
too-large block still passes; this module fails when ``BLOCK`` is 16.

``linear_scores`` runs the block GEMMs of a small call on one BLAS
thread (``scoring.ONE_THREAD_BELOW``), so the thread-count tests patch
that bound to 0 (every GEMM at the process's count) or to infinity
(every GEMM on one thread).  On a one-core runner both are one thread;
CI runs this module again under ``OPENBLAS_NUM_THREADS=2``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.metrics import scoring
from repro.metrics.scoring import linear_scores
from repro.utils import blas

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    (np.float64, 3500, 20),
    (np.float64, 777, 13),
    (np.float64, 1001, 7),
    (np.float32, 32768, 32),
    (np.float32, 999, 33),
]
BATCH_SIZES = [*range(1, 41), 100, 255, 299]
OFFSETS = [0, 1, 3, 17]
N_ROWS = max(OFFSETS) + max(BATCH_SIZES)


def case_id(case) -> str:
    dtype, n_items, n_factors = case
    return f"{np.dtype(dtype).name}-{n_items}x{n_factors}"


def case_arrays(case) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(users, items, bias)`` for one case, from a fixed seed."""
    dtype, n_items, n_factors = case
    rng = np.random.default_rng(n_items * 100 + n_factors)
    users = rng.standard_normal((N_ROWS, n_factors)).astype(dtype)
    items = rng.standard_normal((n_items, n_factors)).astype(dtype)
    bias = rng.standard_normal(n_items).astype(dtype)
    return users, items, bias


def digests() -> dict[str, str]:
    """SHA-256 of the full-batch and single-row scores of every case."""
    out = {}
    for case in CASES:
        users, items, bias = case_arrays(case)
        full = linear_scores(users, items, bias)
        single = linear_scores(users[5], items, bias)
        out[case_id(case)] = hashlib.sha256(full.tobytes() + single.tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_every_slice_matches_the_full_batch(case):
    users, items, bias = case_arrays(case)
    full = linear_scores(users, items, bias)
    assert full.dtype == np.dtype(case[0])
    for offset in OFFSETS:
        for size in BATCH_SIZES:
            part = linear_scores(users[offset : offset + size], items, bias)
            assert np.array_equal(part, full[offset : offset + size]), (
                f"rows {offset}..{offset + size} differ from the full batch"
            )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_single_vectors_match_the_full_batch(case):
    users, items, bias = case_arrays(case)
    full = linear_scores(users, items, bias)
    for row in (0, 7, 8, 12, 15, N_ROWS - 1):
        single = linear_scores(users[row], items, bias)
        assert single.shape == (case[1],)
        assert np.array_equal(single, full[row])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_item_layout_does_not_change_bits(case):
    users, items, bias = case_arrays(case)
    expected = linear_scores(users, items, bias)
    wide = np.zeros((items.shape[0], items.shape[1] + 5), dtype=items.dtype)
    wide[:, 2 : 2 + items.shape[1]] = items
    every_other_row = np.repeat(items, 2, axis=0)[::2]
    for layout in (np.asfortranarray(items), wide[:, 2 : 2 + items.shape[1]], every_other_row):
        assert np.array_equal(linear_scores(users, layout, bias), expected)


def test_blas_thread_count_does_not_change_bits(monkeypatch):
    """A single-threaded BLAS in a fresh process returns the same bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    script = ("import json; from tests.test_scoring_kernel import digests; "
              "print(json.dumps(digests()))")
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    monkeypatch.setattr(scoring, "ONE_THREAD_BELOW", 0)
    assert json.loads(result.stdout.strip().splitlines()[-1]) == digests()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_one_thread_rule_does_not_change_bits(case, monkeypatch):
    """Every shape scores the same bits at the process's count and on one thread."""
    users, items, bias = case_arrays(case)
    scored = {}
    for bound in (0, float("inf")):
        monkeypatch.setattr(scoring, "ONE_THREAD_BELOW", bound)
        scored[bound] = (linear_scores(users, items, bias), linear_scores(users[5], items, bias))
    assert all(np.array_equal(a, b) for a, b in zip(scored[0], scored[float("inf")]))


@pytest.fixture
def controls():
    """The loaded OpenBLAS's ``(get, set)`` pair; skips on another BLAS."""
    found = blas.thread_controls()
    if found is None:
        pytest.skip("no OpenBLAS thread controls in this process")
    return found


def gemm_thread_counts(monkeypatch, get_threads) -> list[int]:
    """Record the BLAS thread count at every ``np.matmul`` call."""
    seen: list[int] = []
    matmul = np.matmul

    def recording(*args, **kwargs):
        seen.append(get_threads())
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return seen


def test_small_calls_run_on_one_thread_and_large_calls_keep_the_count(controls, monkeypatch):
    get_threads, _ = controls
    start = get_threads()
    users, items, bias = case_arrays(CASES[0])
    assert scoring.BLOCK * items.size < scoring.ONE_THREAD_BELOW <= len(users) * items.size
    seen = gemm_thread_counts(monkeypatch, get_threads)
    linear_scores(users[:3], items, bias)
    assert seen and set(seen) == {1}
    assert get_threads() == start
    seen.clear()
    linear_scores(users, items, bias)
    assert set(seen) == {start}


def test_overlapping_scopes_restore_once_the_last_one_leaves(controls):
    get_threads, _ = controls
    start = get_threads()
    first, second = blas.one_blas_thread(), blas.one_blas_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert get_threads() == 1
    second.__exit__(None, None, None)
    assert get_threads() == start
    with pytest.raises(RuntimeError), blas.one_blas_thread():
        raise RuntimeError("the count is restored on the way out")
    assert get_threads() == start


def test_concurrent_scopes_leave_the_count_where_it_started(controls):
    """Eight threads entering and leaving scopes never strand the count at one."""
    get_threads, _ = controls
    start = get_threads()
    inside: list[int] = []
    switch = sys.getswitchinterval()

    def worker():
        for _ in range(300):
            with blas.one_blas_thread():
                inside.append(get_threads())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(inside) == 8 * 300 and set(inside) == {1}
    assert get_threads() == start


@pytest.mark.parametrize("start, calls", [(4, [1, 4]), (1, [])])
def test_scope_only_lowers_the_count_and_restores_it(monkeypatch, start, calls):
    """It never raises the count, so ``OPENBLAS_NUM_THREADS=1`` is respected."""
    made: list[int] = []
    monkeypatch.setattr(blas, "thread_controls", lambda: (lambda: start, made.append))
    with blas.one_blas_thread():
        pass
    assert made == calls


def test_scope_is_a_noop_without_a_setter(monkeypatch):
    real = blas.thread_controls()
    start = real[0]() if real else None
    monkeypatch.setattr(blas, "SYMBOLS", (("no_such_get_threads", "no_such_set_threads"),))
    blas.thread_controls.cache_clear()
    try:
        assert blas.thread_controls() is None
        monkeypatch.setattr(scoring, "ONE_THREAD_BELOW", float("inf"))
        users, items, bias = case_arrays(CASES[1])
        expected = linear_scores(users, items, bias)
        with blas.one_blas_thread():
            if real:
                assert real[0]() == start
            assert np.array_equal(linear_scores(users, items, bias), expected)
    finally:
        blas.thread_controls.cache_clear()


def test_empty_batch_and_empty_catalog():
    users = np.ones((3, 4))
    assert linear_scores(users[:0], np.ones((6, 4))).shape == (0, 6)
    assert linear_scores(users, np.ones((0, 4)), np.ones(0)).shape == (3, 0)


def test_mixed_dtypes_follow_the_result_type():
    users = np.ones((2, 3), dtype=np.float32)
    items = np.ones((4, 3), dtype=np.float64)
    scores = linear_scores(users, items)
    assert scores.dtype == np.float64
    assert np.array_equal(scores, np.full((2, 4), 3.0))
