"""Numerically stable logistic functions used throughout the models."""

from __future__ import annotations

import numpy as np


def sigmoid_and_log_sigmoid(x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma(x), ln sigma(x))`` elementwise, both from one ``exp(-|x|)``.

    With ``e = exp(-|x|)``, ``sigma(x)`` is ``1 / (1 + e)`` where ``x >= 0``
    and ``e / (1 + e)`` elsewhere, and ``ln sigma(x) = min(x, 0) -
    log1p(e)``: no branch overflows.  ``-|x|`` is taken as ``min(x, -x)``,
    which keeps a NaN's sign, so both results equal the sign-masked
    two-``exp`` formulas bit for bit, at ``±0``, ``±inf`` and NaN too.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), np.minimum(x, 0.0) - np.log1p(e)


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Stable elementwise sigmoid ``1 / (1 + exp(-x))``.

    See :func:`sigmoid_and_log_sigmoid`.
    """
    out = sigmoid_and_log_sigmoid(x)[0]
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Stable elementwise ``ln sigma(x) = -log(1 + exp(-x))``.

    See :func:`sigmoid_and_log_sigmoid`.
    """
    out = sigmoid_and_log_sigmoid(x)[1]
    if out.ndim == 0:
        return float(out)
    return out


def scatter_add_rows(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """In place ``matrix[rows[t]] += updates[t]`` for every ``t``, in order.

    The unbuffered scatter of ``np.add.at(matrix, rows, updates)``: a row
    that repeats accumulates each of its updates in turn, the sequential
    per-element order of LearnBPR.  A C-contiguous 2-D ``matrix`` is
    updated through its flat view with element indices ``row * d + col``,
    which applies the same additions in the same order as the 2-D call
    at a third of its cost; a 1-D or non-contiguous ``matrix`` takes the
    plain call.
    """
    if matrix.ndim == 1 or not matrix.flags.c_contiguous:
        np.add.at(matrix, rows, updates)
        return
    d = matrix.shape[1]
    index = np.asarray(rows, dtype=np.intp)[:, None] * d + np.arange(d)
    np.add.at(matrix.reshape(-1), index.ravel(), updates.ravel())
