"""Asymmetric text-to-image contrastive loss over a batch score table.

Each document (a column of the table) is contrasted against its matched
image (the diagonal) and every other image in the batch; images are
never contrasted against documents. Per document the loss is
log(sum_j exp(gamma * s_j)) - gamma * s_pos, evaluated through a
max-shifted logsumexp so any temperature magnitude is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Var, as_var


@dataclass(frozen=True, eq=False)
class Temperature:
    """Contrast sharpness, stored as log(gamma) so training keeps gamma > 0."""

    log_gamma: object

    @property
    def gamma(self) -> Var:
        return ad.exp(as_var(self.log_gamma))


def _gamma_var(temp) -> Var:
    if isinstance(temp, Temperature):
        return temp.gamma
    g = as_var(temp)
    if g.value.ndim != 0:
        raise ContractError("temperature must be a scalar")
    if not np.isfinite(g.value) or g.value < 0.0:
        raise ContractError("temperature must be finite and >= 0")
    return g


def infonce_score_table(table, temp) -> Var:
    """Mean contrastive loss over a square score table.

    Rows are images, columns are documents; the diagonal holds the
    matched pairs and every off-diagonal image in the column is a
    negative. `temp` is a Temperature (trainable) or a plain gamma value.
    """
    t = as_var(table)
    if t.value.ndim != 2 or t.value.shape[0] != t.value.shape[1]:
        raise ContractError("score table must be square (one column per document)")
    if t.value.shape[0] < 2:
        raise ContractError("need at least two pairs for in-batch contrast")
    gamma = _gamma_var(temp)
    scaled = ad.mul(gamma, t)
    per_doc = ad.sub(ad.logsumexp(scaled, 1.0, axis=0), ad.diag_part(scaled))
    return ad.vmean(per_doc, axis=0)
