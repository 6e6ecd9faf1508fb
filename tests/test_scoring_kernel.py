"""Bitwise properties of :func:`repro.metrics.scoring.linear_scores`.

The kernel runs one GEMM per fixed block of ``scoring.BLOCK`` rows so
that a score row does not depend on the batch it was computed in.  That
holds only for a block size the BLAS computes position-independently,
so these tests compare every slice of a batch against the same rows of
one full call, bit for bit, across dtypes, shapes, start offsets, ``V``
memory layouts and BLAS thread counts.  ``test_predict_batch.py`` checks
the same contract through the models, but only on small batches that a
too-large block still passes; this module fails when ``BLOCK`` is 16.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.metrics.scoring import linear_scores

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


def test_blas_thread_count_does_not_change_bits():
    """A single-threaded BLAS in a fresh process returns the same bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    script = ("import json; from tests.test_scoring_kernel import digests; "
              "print(json.dumps(digests()))")
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(result.stdout.strip().splitlines()[-1]) == digests()


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
