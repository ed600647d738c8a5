"""Cosine helpers shared by scoring and evaluation, and population stats.

Cosine scores scale each row to unit norm, with the norm floored at
NORM_EPS: on the tape through `unit_rows`, on plain arrays through
`normalize_rows` and `cosine_matrix`.
Softmax and logsumexp exist once, as `autodiff` ops.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Var, as_var

# Guard against division by a vanishing norm product in cosine scores.
NORM_EPS = 1e-12


def population_stats(values, mask=None):
    """(mean, population variance) along the last axis, over the entries
    where mask is true (every entry when mask is None). Each row needs at
    least one such entry; a 1-D input gives scalars."""
    v = np.asarray(values, dtype=np.float64)
    m = np.ones(v.shape, dtype=bool) if mask is None else np.broadcast_to(mask, v.shape)
    n = np.count_nonzero(m, axis=-1)
    if v.ndim == 0 or np.any(n == 0):
        raise ContractError("population_stats expects at least one value in each row")
    mean = np.where(m, v, 0.0).sum(axis=-1) / n
    dev = np.where(m, v - mean[..., None], 0.0)
    return mean, (dev * dev).sum(axis=-1) / n


def unit_rows(x) -> Var:
    """Rows scaled to unit norm, each norm floored at NORM_EPS."""
    xv = as_var(x)
    if xv.value.ndim != 2:
        raise ContractError("unit_rows expects a 2-D matrix")
    norms = ad.l2norm(xv, axis=1, keepdims=True)
    return ad.div(xv, ad.clip_min(norms, NORM_EPS))


def normalize_rows(a: np.ndarray) -> np.ndarray:
    """Plain-ndarray vectors along the last axis scaled to unit norm, each
    norm floored at NORM_EPS."""
    a = np.asarray(a, dtype=np.float64)
    return a / np.maximum(np.sqrt(np.sum(a * a, axis=-1, keepdims=True)), NORM_EPS)


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain-ndarray cosine table between the rows of a and the rows of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ContractError("cosine_matrix expects 2-D inputs with equal row length")
    table = normalize_rows(a) @ normalize_rows(b).T
    return np.clip(table, -1.0, 1.0, out=table)
