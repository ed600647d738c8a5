"""Image-document score functions over unordered feature bags.

An image is a bag of N region features and a document a bag of M
sentence features, both already in the shared embedding space. The local
route aggregates per-region cosine scores per sentence; the global route
pools the regions into one vector per sentence and scores that vector.
Either way the per-sentence scores are reduced by a sentence aggregator
to a single scalar in [-1, 1]. `pairwise_score_tables` scores a whole
batch of images against a whole batch of documents in one pass; a single
pair is a 1x1 call. Every route is one whole-batch expression: per-image
products run as (B, ., .) stacked matmuls, so no Python loop walks the
images and the tape's size does not depend on the batch size.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Var, as_var
from .aggregators import (
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    SentenceAggregatorSpec,
    aggregate_local_axis,
    aggregate_sentences_axis,
)

# Guard against division by a vanishing norm in cosine scores.
NORM_EPS = 1e-12


def unit_rows(x) -> Var:
    """Rows scaled to unit norm, each norm floored at NORM_EPS. The score
    tables build their cosines from these rows on the tape, and grounding
    and retrieval from their `.value`."""
    xv = as_var(x)
    if xv.value.ndim != 2:
        raise ContractError("unit_rows expects a 2-D matrix")
    norms = ad.l2norm(xv, axis=1, keepdims=True)
    return ad.div(xv, ad.clip_min(norms, NORM_EPS))


def _as_bag(x, name: str) -> Var:
    v = as_var(x)
    if v.value.ndim != 2 or v.value.shape[0] == 0:
        raise ContractError(f"{name} must be a non-empty (count, dim) feature bag")
    return v


def _attention_pool(spec: GlobalAggregatorSpec, regions: Var, bi: int,
                    n_regions: int) -> Var:
    """Attention-MIL pooling (Ilse et al., 2018) of every image at once:
    each image's regions are weighted by the softmax over that image of
    att_vec . tanh(att_proj @ region). Returns (bi, D)."""
    if spec.att_proj is None or spec.att_vec is None:
        raise ContractError("Att aggregator requires att_proj and att_vec")
    proj = as_var(spec.att_proj)
    vec = as_var(spec.att_vec)
    dim = regions.value.shape[1]
    if proj.value.ndim != 2 or proj.value.shape[1] != dim:
        raise ContractError("att_proj must be (H, D) for D-dim regions")
    if vec.value.ndim != 1 or vec.value.shape[0] != proj.value.shape[0]:
        raise ContractError("att_vec length must match att_proj rows")
    logits = ad.matmul(ad.tanh(ad.matmul(regions, ad.transpose(proj))), vec)
    weights = ad.softmax(ad.reshape(logits, (bi, n_regions)), 1.0, axis=1)
    bags = ad.reshape(regions, (bi, n_regions, dim))
    return ad.vsum(ad.mul(ad.reshape(weights, (bi, n_regions, 1)), bags), axis=1)


def _nonlocal_weights(spec: GlobalAggregatorSpec, regions: Var, sm_all: Var,
                      bi: int, n_regions: int) -> Var:
    """Non-local pooling weights (after Wang et al., 2018) of every image at
    once. For each sentence column, an image's critical region is its first
    region of maximal cosine to that sentence; the regions are weighted by
    the softmax over the image of their mapped inner product with it.
    Returns (bi, N, Q) for the Q sentence columns of `sm_all`."""
    if spec.sim_map is None:
        raise ContractError("NL aggregator requires the learned sim_map matrix")
    dim = regions.value.shape[1]
    q = sm_all.value.shape[1]
    mapped = ad.reshape(ad.matmul(regions, ad.transpose(as_var(spec.sim_map))),
                        (bi, n_regions, dim))
    gram = ad.matmul(mapped, ad.transpose(mapped))  # (bi, N, N)
    critical = np.argmax(sm_all.value.reshape(bi, n_regions, q), axis=1)
    # a constant one-hot pick keeps the gather's backward a matmul too
    onehot = (np.arange(n_regions)[None, :, None] == critical[:, None, :])
    picked = ad.matmul(gram, onehot.astype(np.float64))  # (bi, N, Q)
    return ad.softmax(picked, spec.gamma, axis=1)


def pairwise_score_tables(regions_all, n_regions: int, sentences_all,
                          m_sentences: int,
                          local_agg: LocalAggregatorSpec | None,
                          global_agg: GlobalAggregatorSpec | None,
                          sentence_agg: SentenceAggregatorSpec):
    """All image-document scores for a batch, sharing one cosine table.

    `regions_all` stacks the B_i image bags into (B_i * N, D) and
    `sentences_all` the B_d document bags into (B_d * M, D). Returns
    (local_table, global_table), each (B_i, B_d) or None if that route is
    disabled. Row j column i is the score of image j against document i.
    """
    r = _as_bag(regions_all, "regions_all")
    s = _as_bag(sentences_all, "sentences_all")
    if r.value.shape[1] != s.value.shape[1]:
        raise ContractError(
            f"feature dimension mismatch: regions have {r.value.shape[1]}, "
            f"sentences have {s.value.shape[1]}"
        )
    if r.value.shape[0] % n_regions:
        raise ContractError("regions_all rows must be a multiple of n_regions")
    if s.value.shape[0] % m_sentences:
        raise ContractError("sentences_all rows must be a multiple of m_sentences")
    bi = r.value.shape[0] // n_regions
    bd = s.value.shape[0] // m_sentences
    dim = r.value.shape[1]

    sn = unit_rows(s)
    sm_all = ad.clamp(ad.matmul(unit_rows(r), ad.transpose(sn)), -1.0, 1.0)

    table_l = None
    if local_agg is not None:
        cube = ad.reshape(sm_all, (bi, n_regions, bd, m_sentences))
        per_sentence = aggregate_local_axis(local_agg, cube, axis=1)
        table_l = aggregate_sentences_axis(sentence_agg, per_sentence, axis=2)

    table_g = None
    if global_agg is not None:
        if global_agg.kind in ("Avg", "Att"):
            if global_agg.kind == "Avg":
                pooled = ad.vmean(ad.reshape(r, (bi, n_regions, dim)), axis=1)
            else:
                pooled = _attention_pool(global_agg, r, bi, n_regions)
            gmat = ad.clamp(
                ad.matmul(unit_rows(pooled), ad.transpose(sn)), -1.0, 1.0
            )
        else:
            if global_agg.kind == "NL":
                weights = _nonlocal_weights(global_agg, r, sm_all, bi, n_regions)
            else:  # CA: each image's cosine rows, normalized over its regions
                weights = ad.softmax(
                    ad.reshape(sm_all, (bi, n_regions, bd * m_sentences)),
                    1.0, axis=1)
            bags = ad.reshape(r, (bi, n_regions, dim))
            pooled = ad.matmul(ad.transpose(bags), weights)  # (bi, D, q)
            num = ad.vsum(ad.mul(pooled, ad.transpose(sn)), axis=1)
            den = ad.clip_min(ad.l2norm(pooled, axis=1), NORM_EPS)
            gmat = ad.clamp(ad.div(num, den), -1.0, 1.0)
        cube_g = ad.reshape(gmat, (bi, bd, m_sentences))
        table_g = aggregate_sentences_axis(sentence_agg, cube_g, axis=2)

    return table_l, table_g
