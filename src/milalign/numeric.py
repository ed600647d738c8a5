"""Cosine helpers shared by scoring and evaluation, and population stats.

Cosine scores scale each row to unit norm, with the norm floored at
NORM_EPS: on the tape through `unit_rows`, on plain arrays through
`cosine_matrix`.
Softmax and logsumexp exist once, as `autodiff` ops.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Var, as_var

# Guard against division by a vanishing norm product in cosine scores.
NORM_EPS = 1e-12


def population_stats(values) -> tuple[float, float]:
    """(mean, population variance) of a non-empty sequence of floats."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ContractError("population_stats expects a non-empty 1-D sequence")
    mean = float(np.mean(v))
    var = float(np.mean((v - mean) ** 2))
    return mean, var


def unit_rows(x) -> Var:
    """Rows scaled to unit norm, each norm floored at NORM_EPS."""
    xv = as_var(x)
    if xv.value.ndim != 2:
        raise ContractError("unit_rows expects a 2-D matrix")
    norms = ad.l2norm(xv, axis=1, keepdims=True)
    return ad.div(xv, ad.clip_min(norms, NORM_EPS))


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain-ndarray cosine table between the rows of a and the rows of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ContractError("cosine_matrix expects 2-D inputs with equal row length")
    an = a / np.maximum(np.sqrt(np.sum(a * a, axis=1, keepdims=True)), NORM_EPS)
    bn = b / np.maximum(np.sqrt(np.sum(b * b, axis=1, keepdims=True)), NORM_EPS)
    return np.clip(an @ bn.T, -1.0, 1.0)
