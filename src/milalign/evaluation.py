"""Downstream evaluation of a trained model on held-out documents.

Four task families, all operating on frozen parameters:

* zero-shot classification against noise-free concept prompts,
* linear probing of mean-pooled region features,
* visual grounding of sentences (score maps, contrast-to-noise ratio,
  thresholded mean IoU, critical-region hit rate),
* cross-modal retrieval between box features and sentences,

plus the aggregator ablation grid that retrains one model per aggregator
combination and compares the routes on a normalized table. Its metrics
are the metric fields of `AblationRow`: `GRID_METRICS` names them and
`LOWER_IS_BETTER` marks the median rank, and these two tuples drive
`normalize_grid` and both ablate CSVs. The grid trains its rows first and
then evaluates them together: the probe sets and the grounding and
retrieval cases are built once per grid, and the probes of all trained
rows are fitted together by `linear_probe_stack`, one gradient descent
over an (rows, n, d) stack of pooled features. `linear_probe` is that
fit's one-set call. The descent runs in place on one buffer of logits,
with no tape op per iteration, and sums in the order of the whole-array
softmax regression it replaces, so the weights are the same bits.

Each task streams the region bags of its distinct documents through the
region encoder EVAL_BLOCK_BAGS bags at a time: one `encode_bag` call per
block, whose features the task uses before the next block is encoded, so
evaluation holds one block of encoded regions rather than the split's.
Rows never mix in the encoder, so every value is the same bits at any
block size. Zero-shot scores come from the training score table,
`scoring.pairwise_score_tables`, one block of images at a time, with each
prompt a one-sentence document; grounding and retrieval take their
cosines from the values of `scoring.unit_rows`, as the score table does,
and grounding encodes the sentences of each block's cases with it.
Grounding reduces its (cases, N) score maps with masked array
expressions, GROUNDING_BLOCK_CASES maps at a time. mIoU gives each score
the number of thresholds it reaches and counts those levels per case, so
no (cases, thresholds, N) array is built. The one-map functions `cnr`,
`miou` and `grounding_hit` are one-row calls of the same expressions.
Retrieval builds its cosine table a block of rows at a time, in each
direction, and ranks each row's own entry in one comparison pass over
its block.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import jsonio
from .autodiff import ContractError
from .aggregators import (
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    SentenceAggregatorSpec,
)
from .encoders import (ModelParams, encode_bag, global_param_flags,
                       unflatten_params)
from .scoring import pairwise_score_tables, unit_rows
from .trainer import NonFiniteLossError, TrainConfig, train

VARIANCE_GUARD = 1e-8
IOU_THRESHOLDS = np.arange(-20, 21) * 5 / 100.0  # -1.00 .. 1.00 in 0.05 steps
# Query rows `rank_of_match` and `cosine_match_ranks` compare at a time;
# their temporaries are (RANK_BLOCK_ROWS, q) rather than (q, q).
RANK_BLOCK_ROWS = 256
# Distinct region bags each task encodes per `encode_bag` call; the
# encoder's temporaries are (EVAL_BLOCK_BAGS * N, hidden) rather than
# (bags * N, hidden).
EVAL_BLOCK_BAGS = 256
# Cases `grounding_score_maps` scores and `retrieval_features` sums at a
# time within a block of bags; their gathered regions are
# (GROUNDING_BLOCK_CASES, N, D) rather than (the block's cases, N, D).
# `evaluate_grounding` reduces its score maps to metrics as many cases at
# a time.
GROUNDING_BLOCK_CASES = 512


# ---------------------------------------------------------------------------
# feature extraction


def _encode(encoder, observations) -> np.ndarray:
    """Encode a (count, D_in) bag, or a (bags, count, D_in) stack of
    equal-size bags, in one `encode_bag` call. Rows never mix, so each row
    gets the same bits in any call: numpy multiplies a one-row matrix with
    a matrix-vector kernel, whose sums can round differently, so a lone
    row is encoded beside a copy of itself."""
    obs = np.asarray(observations)
    flat = obs.reshape(-1, obs.shape[2]) if obs.ndim == 3 else obs
    if flat.ndim == 2 and flat.shape[0] == 1:
        feats = encode_bag(encoder, np.repeat(flat, 2, axis=0)).value[:1]
    else:
        feats = encode_bag(encoder, flat).value
    return feats.reshape(*obs.shape[:2], -1) if obs.ndim == 3 else feats


def encode_regions(params: ModelParams, observations) -> np.ndarray:
    return _encode(params.region_encoder, observations)


def encode_sentences(params: ModelParams, observations) -> np.ndarray:
    return _encode(params.sentence_encoder, observations)


def _same_shape(arrays, describe) -> list:
    """`arrays`, checked to share one shape. A ragged input is a
    ContractError naming the first item that differs (`describe(i)`) and
    both shapes."""
    shape = np.shape(arrays[0])
    for i, a in enumerate(arrays):
        if np.shape(a) != shape:
            raise ContractError(f"{describe(i)} has shape {np.shape(a)}, but "
                                f"{describe(0)} has shape {shape}")
    return arrays


def _document_bags(documents):
    """(bags, rows) of `_by_bag_block` with each document its own case:
    the documents' region bags, checked to share one (N, D_in) shape."""
    bags = _same_shape(
        [doc.region_observations for doc in documents],
        lambda i: f"region bag of document {i} (image {documents[i].image_id})")
    return bags, np.arange(len(bags))


def _by_bag_block(params: ModelParams, bags, rows, block_rows) -> np.ndarray:
    """A task's per-case rows, computed one block of EVAL_BLOCK_BAGS
    distinct region bags at a time.

    `bags` are equal-shape (N, D_in) bags and case c's bag is
    `bags[rows[c]]`; cases may come in any order and may share a bag. Each
    block's bags are stacked and encoded in one `encode_regions` call, and
    `block_rows(cases, local, feats)` gets the block's (bags, N, D)
    features `feats`, the indices `cases` of the cases whose bag lies in
    the block and `local`, the row of each such case's bag in `feats`. It
    returns one row per such case, in that order. The rows of all cases
    come back in case order."""
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    out = None
    for start in range(0, len(bags), EVAL_BLOCK_BAGS):
        feats = encode_regions(
            params, np.stack(bags[start:start + EVAL_BLOCK_BAGS]))
        lo, hi = np.searchsorted(ordered, (start, start + EVAL_BLOCK_BAGS))
        cases = order[lo:hi]
        part = block_rows(cases, rows[cases] - start, feats)
        if out is None:
            out = np.empty((len(rows), *part.shape[1:]), dtype=part.dtype)
        out[cases] = part
    return out


def pooled_image_features(params: ModelParams, documents) -> np.ndarray:
    """Mean of encoded region features per image, stacked (len(docs), D)."""
    if not documents:
        raise ContractError("no documents to pool features from")
    return _by_bag_block(params, *_document_bags(documents),
                         lambda cases, local, feats: feats.mean(axis=1)[local])


def single_concept_documents(documents) -> list:
    """Documents whose non-background regions all share one concept."""
    kept = []
    for doc in documents:
        present = {c for c in doc.region_concepts if c is not None}
        if len(present) == 1:
            kept.append(doc)
    return kept


def document_label(doc) -> int:
    present = sorted({c for c in doc.region_concepts if c is not None})
    if len(present) != 1:
        raise ContractError(f"document {doc.image_id} does not have exactly "
                            "one concept")
    return present[0]


# ---------------------------------------------------------------------------
# zero-shot classification


@dataclass(eq=False)
class ZeroShotResult:
    accuracy: float
    predictions: np.ndarray     # (n_images,) predicted concept ids
    labels: np.ndarray          # (n_images,) ground-truth concept ids
    raw_scores: np.ndarray      # (n_images, concepts) aggregated scores
    probabilities: np.ndarray   # (n_images, concepts) after min-max + softmax


def prompt_matrix(prompts: dict) -> np.ndarray:
    """Stack a {concept_id: vector} prompt bank into concept-id order."""
    ids = sorted(prompts)
    if ids != list(range(len(ids))):
        raise ContractError("prompt bank must cover concept ids 0..C-1")
    if len(ids) < 2:
        raise ContractError("zero-shot classification needs at least 2 concepts")
    return np.stack([np.asarray(prompts[c], dtype=np.float64) for c in ids])


def zero_shot_score_table(params: ModelParams, local_agg: LocalAggregatorSpec,
                          prompts: dict, documents) -> np.ndarray:
    """(n_images, concepts) image-prompt scores through the training
    score table's local route, each prompt a one-sentence document under
    sentence aggregator Id."""
    prompt_feats = encode_sentences(params, prompt_matrix(prompts))

    def block_table(cases, local, feats):
        # each table row is one image's, so the blocks' rows concatenate
        table, _ = pairwise_score_tables(
            feats.reshape(-1, feats.shape[2]), feats.shape[1], prompt_feats, 1,
            local_agg, None, SentenceAggregatorSpec(kind="Id"))
        return table.value[local]

    return _by_bag_block(params, *_document_bags(documents), block_table)


def minmax_normalize_columns(table: np.ndarray) -> np.ndarray:
    """Map each column onto [0, 1]; constant columns become all 0.5."""
    t = np.asarray(table, dtype=np.float64)
    lo = t.min(axis=0)
    hi = t.max(axis=0)
    constant = ~(hi > lo)
    for j in np.flatnonzero(constant):
        warnings.warn(f"score column {j} is constant; normalizing to 0.5",
                      RuntimeWarning, stacklevel=2)
    out = (t - lo) / np.where(constant, 1.0, hi - lo)
    out[:, constant] = 0.5
    return out


def zero_shot_classify(params: ModelParams, local_agg: LocalAggregatorSpec,
                       prompts: dict, documents) -> ZeroShotResult:
    """Predict each image's concept from per-concept prompt scores."""
    if not documents:
        raise ContractError("zero-shot classification needs at least one image")
    raw = zero_shot_score_table(params, local_agg, prompts, documents)
    probs = ad.softmax(minmax_normalize_columns(raw), 1.0, axis=1).value
    predictions = np.argmax(probs, axis=1)
    labels = np.array([document_label(doc) for doc in documents])
    accuracy = float(np.mean(predictions == labels))
    return ZeroShotResult(accuracy=accuracy, predictions=predictions,
                          labels=labels, raw_scores=raw, probabilities=probs)


# ---------------------------------------------------------------------------
# linear probe


@dataclass(eq=False)
class ProbeResult:
    accuracy: float
    auc: float
    weights: np.ndarray
    bias: np.ndarray


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array, each group of equal values taking
    the mean of the ranks it spans (an exact half-integer)."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    ordered = v[order]
    # [start, end) positions of each run of equal values in sorted order
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def rank_auc(scores, positive_mask) -> float:
    """Rank-based (Mann-Whitney) area under the ROC curve, ties averaged."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive_mask, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ContractError("AUC needs at least one positive and one negative")
    ranks = average_ranks(scores)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def _softmax_classes(logits: np.ndarray) -> np.ndarray:
    """`ad.softmax(logits, 1.0, axis=2)` of a 3-D array whose last axis is
    contiguous, written over `logits` and returned, bit for bit the same:
    the class-axis max (exact in any order) is taken one column at a time,
    and the class sum is the same reduction over the same rows."""
    top = logits[:, :, 0].copy()
    for c in range(1, logits.shape[2]):
        np.maximum(top, logits[:, :, c], out=top)
    logits -= top[:, :, None]
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=2, keepdims=True)
    return logits


def linear_probe(train_features, train_labels, test_features, test_labels,
                 num_classes: int | None = None, iterations: int = 500,
                 lr: float = 0.1) -> ProbeResult:
    """Softmax regression on frozen features via full-batch gradient descent.

    Weights start at zero: the objective is convex, so initialization
    only shifts the early iterates, and zero keeps the probe seed-free.
    This is the one-set call of `linear_probe_stack`.
    """
    x_tr = np.asarray(train_features, dtype=np.float64)
    x_te = np.asarray(test_features, dtype=np.float64)
    if x_tr.ndim != 2 or x_te.ndim != 2 or x_tr.shape[1] != x_te.shape[1]:
        raise ContractError("probe features must be 2-D with a shared dim")
    return linear_probe_stack(x_tr[None], train_labels, x_te[None],
                              test_labels, num_classes, iterations, lr)[0]


def linear_probe_stack(train_features, train_labels, test_features,
                       test_labels, num_classes: int | None = None,
                       iterations: int = 500, lr: float = 0.1) -> list:
    """`linear_probe` of R feature sets in one gradient descent: (R, n, d)
    training and (R, m, d) test features against one shared pair of label
    vectors, one ProbeResult per set. A stacked matmul multiplies slice by
    slice, so each set gets the bits it would get fitted alone.

    The class count defaults to 1 + the largest training label.
    """
    x_tr = np.asarray(train_features, dtype=np.float64)
    y_tr = np.asarray(train_labels, dtype=np.int64)
    x_te = np.asarray(test_features, dtype=np.float64)
    y_te = np.asarray(test_labels, dtype=np.int64)
    if x_tr.ndim != 3 or x_te.ndim != 3 or x_tr.shape[0] != x_te.shape[0] \
            or x_tr.shape[2] != x_te.shape[2]:
        raise ContractError("probe feature stacks must be 3-D with shared "
                            "set count and dim")
    if y_tr.shape != (x_tr.shape[1],) or y_te.shape != (x_te.shape[1],):
        raise ContractError("probe labels must align with the feature rows")
    classes = num_classes if num_classes is not None else int(y_tr.max()) + 1
    if np.unique(y_tr).size < 2:
        raise ContractError("probe training set must contain at least two classes")
    if y_tr.min() < 0 or y_tr.max() >= classes or y_te.min() < 0 \
            or y_te.max() >= classes:
        raise ContractError("probe labels out of range")
    scored = [c for c in range(classes)
              if (y_te == c).any() and (y_te != c).any()]
    if not scored:
        raise ContractError("no class with both positives and negatives in "
                            "the probe test set")

    sets, n, dim = x_tr.shape
    weights = np.zeros((sets, classes, dim))
    bias = np.zeros((sets, classes))
    # one (n, sets, classes) buffer holds each iteration's logits, then
    # their softmax, then the gradient. Each row's classes stay contiguous,
    # so the class sums add in the order they do on (sets, n, classes), and
    # the bias sum over n, sequential on either layout, adds whole rows.
    delta = np.empty((n, sets, classes))
    per_set = delta.transpose(1, 0, 2)
    samples = np.arange(n)
    step = np.empty_like(weights)
    for _ in range(iterations):
        np.matmul(x_tr, weights.transpose(0, 2, 1), out=per_set)
        delta += bias
        _softmax_classes(delta)
        delta[samples, :, y_tr] -= 1.0  # the one-hot labels
        delta /= n
        np.matmul(per_set.transpose(0, 2, 1), x_tr, out=step)
        step *= lr
        weights -= step
        bias -= lr * delta.sum(axis=0)

    test_probs = _softmax_classes(x_te @ weights.transpose(0, 2, 1)
                                  + bias[:, None])
    correct = np.argmax(test_probs, axis=2) == y_te
    return [ProbeResult(
        accuracy=float(np.mean(correct[r])),
        auc=float(np.mean([rank_auc(test_probs[r, :, c], y_te == c)
                           for c in scored])),
        weights=weights[r], bias=bias[r]) for r in range(sets)]


def probe_sets(train_docs, test_docs):
    """(train docs, test docs, train labels, test labels, classes) of the
    linear probe: each split's single-concept documents, labelled by their
    concept, and a class count of 1 + the largest label of either split."""
    probe_train = single_concept_documents(train_docs)
    probe_test = single_concept_documents(test_docs)
    if not probe_train or not probe_test:
        raise ContractError("the linear probe needs single-concept documents "
                            "in both splits")
    y_tr = np.array([document_label(d) for d in probe_train])
    y_te = np.array([document_label(d) for d in probe_test])
    classes = 1 + int(max(y_tr.max(), y_te.max()))
    return probe_train, probe_test, y_tr, y_te, classes


def probe_eval(params: ModelParams, train_docs, test_docs) -> ProbeResult:
    """Linear probe on the pooled image features of each split's
    single-concept documents, labelled by their concept."""
    probe_train, probe_test, y_tr, y_te, classes = probe_sets(train_docs,
                                                              test_docs)
    return linear_probe(pooled_image_features(params, probe_train), y_tr,
                        pooled_image_features(params, probe_test), y_te,
                        num_classes=classes)


# ---------------------------------------------------------------------------
# visual grounding


@dataclass(eq=False)
class GroundingCase:
    image_id: int
    sentence_index: int
    region_observations: np.ndarray
    sentence_observation: np.ndarray
    box: tuple  # ground-truth region indices

    def __post_init__(self):
        n = self.region_observations.shape[0]
        if len(self.box) == 0:
            raise ContractError("grounding box must be non-empty")
        if len(set(self.box)) != len(self.box):
            raise ContractError("grounding box has duplicate region indices")
        if min(self.box) < 0 or max(self.box) >= n:
            raise ContractError("grounding box index out of range")
        if len(self.box) >= n:
            raise ContractError("grounding box must be a proper subset of "
                                "the regions")


def _each_grounding_case(documents):
    for doc in documents:
        for j, box in enumerate(doc.boxes):
            yield GroundingCase(
                image_id=doc.image_id,
                sentence_index=j,
                region_observations=doc.region_observations,
                sentence_observation=doc.sentence_observations[j],
                box=tuple(box),
            )


def grounding_cases(documents) -> list:
    return list(_each_grounding_case(documents))


def _case_inputs(cases):
    """(bags, rows, sentences) of a list of cases: the region bags of the
    distinct documents, in the order of their first case, the index of
    each case's bag among them, and the sentence observations stacked
    (cases, D_s).

    Cases share a bag when they hold the same array, as the cases of one
    document from `grounding_cases` do, so each document is encoded once
    however many of its sentences are cases. Cases whose bags or
    sentences differ in shape are a ContractError.
    """
    if not cases:
        raise ContractError("no grounding cases")

    def name(what, i):
        return (f"{what} of case {i} (image {cases[i].image_id}, "
                f"sentence {cases[i].sentence_index})")

    bags = [c.region_observations for c in cases]
    first_case = {}
    owners = np.array([first_case.setdefault(id(bag), i)
                       for i, bag in enumerate(bags)], dtype=np.intp)
    # each distinct bag is named by its first case, so a ragged stack names
    # the first case that differs
    distinct, rows = np.unique(owners, return_inverse=True)
    distinct_bags = _same_shape([bags[i] for i in distinct],
                                lambda k: name("region bag", distinct[k]))
    sentences = _same_shape([c.sentence_observation for c in cases],
                            lambda i: name("sentence", i))
    return distinct_bags, rows, np.stack(sentences)


def grounding_score_maps(params: ModelParams, cases) -> np.ndarray:
    """(cases, N) raw region-sentence cosines, no smoothing; values in
    [-1, 1]. Row c is case c's regions scored against its sentence."""
    bags, rows, sentences = _case_inputs(cases)

    def block_maps(cases, local, feats):
        regions = unit_rows(feats.reshape(-1, feats.shape[2])).value
        regions = regions.reshape(feats.shape)
        unit_sentences = unit_rows(encode_sentences(params,
                                                    sentences[cases])).value
        maps = np.empty((len(cases), feats.shape[1]))
        for start in range(0, len(cases), GROUNDING_BLOCK_CASES):
            block = slice(start, start + GROUNDING_BLOCK_CASES)
            np.einsum("cnd,cd->cn", regions[local[block]],
                      unit_sentences[block], out=maps[block])
        return maps

    maps = _by_bag_block(params, bags, rows, block_maps)
    return np.clip(maps, -1.0, 1.0, out=maps)


def box_masks(n_regions: int, boxes) -> np.ndarray:
    """(len(boxes), n_regions) membership masks. Every box must be a
    non-empty proper subset of the region indices."""
    sizes = np.array([len(box) for box in boxes], dtype=np.intp)
    if (sizes == 0).any():
        raise ContractError("box must be non-empty")
    members = np.fromiter(itertools.chain.from_iterable(boxes), dtype=np.intp,
                          count=int(sizes.sum()))
    if members.size and (members.min() < 0 or members.max() >= n_regions):
        raise ContractError("box index out of range")
    masks = np.zeros((len(boxes), n_regions), dtype=bool)
    masks[np.repeat(np.arange(len(boxes)), sizes), members] = True
    if masks.all(axis=1).any():
        raise ContractError("box must not cover every region")
    return masks


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


def cnr_rows(score_maps: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per row, the contrast between in-box and out-of-box scores over the
    square root of the summed population variances (plus VARIANCE_GUARD)."""
    mean_in, var_in = population_stats(score_maps, masks)
    mean_out, var_out = population_stats(score_maps, ~masks)
    return np.abs(mean_in - mean_out) / np.sqrt(var_in + var_out + VARIANCE_GUARD)


def miou_rows(score_maps: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per row, the mean IoU of the thresholded map against the box over
    IOU_THRESHOLDS. A score lies in the predicted region of every
    threshold it reaches, so each row counts its scores, in the box and
    overall, by the number of thresholds they reach. The IoUs are summed
    in grid order, so a map gives the same bits whichever batch it is
    scored in."""
    cases = score_maps.shape[0]
    levels = IOU_THRESHOLDS.size + 1
    bins = (np.searchsorted(IOU_THRESHOLDS, score_maps, side="right")
            + levels * np.arange(cases)[:, None])

    def reached(selected):
        """(cases, thresholds) count of the selected scores reaching each
        threshold: the scores whose level lies above its index."""
        counts = np.bincount(selected, minlength=cases * levels)
        return np.cumsum(counts.reshape(cases, levels)[:, :0:-1],
                         axis=1)[:, ::-1]

    inter = reached(bins[masks])
    union = (reached(bins.ravel()) + np.count_nonzero(masks, axis=1)[:, None]
             - inter)  # >= box size >= 1
    return np.cumsum(inter / union, axis=1)[:, -1] / IOU_THRESHOLDS.size


def hit_rows(score_maps: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per row, whether the first highest-scoring region lies in the box."""
    top = np.argmax(score_maps, axis=1)
    return masks[np.arange(masks.shape[0]), top]


def _one_map(score_map, box):
    scores = np.asarray(score_map, dtype=np.float64)
    if scores.ndim != 1:
        raise ContractError("a score map must be 1-D")
    return scores[None, :], box_masks(scores.shape[0], [box])


def cnr(score_map, box) -> float:
    """Contrast between in-box and out-of-box scores, noise-normalized."""
    return float(cnr_rows(*_one_map(score_map, box))[0])


def miou(score_map, box) -> float:
    """Mean IoU of thresholded score maps over the fixed threshold grid."""
    return float(miou_rows(*_one_map(score_map, box))[0])


def grounding_hit(score_map, box) -> bool:
    """Whether the single highest-scoring region lies inside the box."""
    return bool(hit_rows(*_one_map(score_map, box))[0])


@dataclass(eq=False)
class GroundingSummary:
    per_case_cnr: np.ndarray
    per_case_miou: np.ndarray
    per_case_hit: np.ndarray
    mean_cnr: float
    mean_miou: float
    hit_rate: float


def evaluate_grounding(params: ModelParams, cases) -> GroundingSummary:
    """Per-case CNR, mIoU and hit of the cases' score maps, reduced
    GROUNDING_BLOCK_CASES maps at a time so that the metrics' temporaries
    are a block's rather than every case's. Each metric is a row-by-row
    expression, so the values are the same bits at any block size; the
    means run over the whole per-case arrays."""
    maps = grounding_score_maps(params, cases)
    masks = box_masks(maps.shape[1], [case.box for case in cases])
    cnrs = np.empty(len(cases))
    mious = np.empty(len(cases))
    hits = np.empty(len(cases), dtype=bool)
    for start in range(0, len(cases), GROUNDING_BLOCK_CASES):
        block = slice(start, start + GROUNDING_BLOCK_CASES)
        cnrs[block] = cnr_rows(maps[block], masks[block])
        mious[block] = miou_rows(maps[block], masks[block])
        hits[block] = hit_rows(maps[block], masks[block])
    return GroundingSummary(
        per_case_cnr=cnrs, per_case_miou=mious, per_case_hit=hits,
        mean_cnr=float(cnrs.mean()), mean_miou=float(mious.mean()),
        hit_rate=float(hits.mean()),
    )


def export_score_maps(path, params: ModelParams, cases) -> None:
    maps = grounding_score_maps(params, cases) if cases else []
    payload = {"kind": "score-maps", "format_version": 1, "maps": [
        {"image_id": case.image_id, "sentence_index": case.sentence_index,
         "scores": scores}
        for case, scores in zip(cases, maps)
    ]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps_canonical(payload) + "\n")


# ---------------------------------------------------------------------------
# cross-modal retrieval


@dataclass(eq=False)
class RetrievalResult:
    count: int
    k_values: tuple
    box_to_sentence_ranks: np.ndarray
    sentence_to_box_ranks: np.ndarray
    box_to_sentence_medr: float
    sentence_to_box_medr: float
    box_to_sentence_recall: dict
    sentence_to_box_recall: dict


def retrieval_features(params: ModelParams, cases):
    """Paired (box features, sentence features), one row per case.

    The box feature is the mean of the encoded region features over the
    box's member indices.
    """
    if len(cases) < 2:
        raise ContractError("retrieval needs at least 2 cases")
    seen = set()
    for case in cases:
        key = (case.image_id, case.sentence_index)
        if key in seen:
            raise ContractError(f"duplicate retrieval pairing {key}")
        seen.add(key)
    bags, rows, sentences = _case_inputs(cases)
    masks = box_masks(bags[0].shape[0], [case.box for case in cases])

    def block_box_sums(cases, local, feats):
        weights = masks[cases].astype(np.float64)
        sums = np.empty((len(cases), feats.shape[2]))
        for start in range(0, len(cases), GROUNDING_BLOCK_CASES):
            block = slice(start, start + GROUNDING_BLOCK_CASES)
            np.einsum("cn,cnd->cd", weights[block], feats[local[block]],
                      out=sums[block])
        return sums

    boxes = _by_bag_block(params, bags, rows, block_box_sums)
    boxes /= np.count_nonzero(masks, axis=1)[:, None]
    return boxes, encode_sentences(params, sentences)


def _ranks_by_block(q: int, rows) -> np.ndarray:
    """1-based rank of entry i in row i of a (q, q) table whose rows
    `rows(start, stop)` returns, RANK_BLOCK_ROWS rows at a time, under
    descending-score order, ties broken by candidate index ascending.

    A block is (RANK_BLOCK_ROWS, q) float64, 6.1 MB at q = 3,000. No name
    holds it past its `_own_ranks` call, so each block is freed before
    the next one is built."""
    ranks = np.empty(q, dtype=np.int64)
    for start in range(0, q, RANK_BLOCK_ROWS):
        ranks[start:start + RANK_BLOCK_ROWS] = _own_ranks(
            rows(start, start + RANK_BLOCK_ROWS), start)
    return ranks


def _own_ranks(block: np.ndarray, start: int) -> np.ndarray:
    """1-based rank of entry start + i in row i of `block`, the rows of a
    square table from row `start` on, as `_ranks_by_block` orders them."""
    stop = start + block.shape[0]
    local = np.arange(block.shape[0])
    own = block[local, start + local][:, None]
    # a candidate ranks ahead when it scores higher, or the same before
    # the row's own index
    ahead = np.empty(block.shape, dtype=bool)
    np.greater_equal(block[:, :start], own, out=ahead[:, :start])
    np.greater(block[:, stop:], own, out=ahead[:, stop:])
    square = block[:, start:stop]
    ahead[:, start:stop] = np.where(local[:, None] > local, square >= own,
                                    square > own)
    return 1 + np.count_nonzero(ahead, axis=1)


def rank_of_match(score_table: np.ndarray) -> np.ndarray:
    """1-based rank of the diagonal entry per row under descending-score
    order, ties broken by candidate index ascending."""
    t = np.asarray(score_table, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ContractError("retrieval score table must be square")
    return _ranks_by_block(t.shape[0], lambda start, stop: t[start:stop])


def cosine_match_ranks(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """`rank_of_match` of the cosine table between paired query and
    candidate rows, built RANK_BLOCK_ROWS query rows at a time so that no
    (q, q) table is held. Each side is normalized once; each block is
    clipped in place."""
    if len(queries) != len(candidates):
        raise ContractError("retrieval needs one candidate per query")
    unit_queries = unit_rows(queries).value
    unit_candidates = unit_rows(candidates).value

    def rows(start, stop):
        block = unit_queries[start:stop] @ unit_candidates.T
        return np.clip(block, -1.0, 1.0, out=block)

    return _ranks_by_block(len(queries), rows)


def lower_median(values) -> float:
    v = np.sort(np.asarray(values))
    if v.size == 0:
        raise ContractError("median of empty rank list")
    return float(v[(v.size - 1) // 2])


def scaled_k_values(count: int) -> tuple:
    return tuple(sorted({1, math.ceil(count / 20), math.ceil(count / 10)}))


def retrieval_eval(params: ModelParams, cases) -> RetrievalResult:
    box_feats, sent_feats = retrieval_features(params, cases)
    b2s = cosine_match_ranks(box_feats, sent_feats)
    s2b = cosine_match_ranks(sent_feats, box_feats)
    count = len(cases)
    ks = scaled_k_values(count)
    return RetrievalResult(
        count=count,
        k_values=ks,
        box_to_sentence_ranks=b2s,
        sentence_to_box_ranks=s2b,
        box_to_sentence_medr=lower_median(b2s),
        sentence_to_box_medr=lower_median(s2b),
        box_to_sentence_recall={k: float(np.mean(b2s <= k)) for k in ks},
        sentence_to_box_recall={k: float(np.mean(s2b <= k)) for k in ks},
    )


# ---------------------------------------------------------------------------
# aggregator ablation grid


@dataclass(frozen=True)
class GridEntry:
    name: str
    local_agg: LocalAggregatorSpec | None = None
    global_agg: GlobalAggregatorSpec | None = None


def default_grid(local_gamma: float = 0.1,
                 global_gamma: float = math.e) -> list:
    """Five local-only, three global-only, three combined configurations."""
    lse = LocalAggregatorSpec(kind="LSE", gamma=local_gamma)
    entries = [
        GridEntry("Max", local_agg=LocalAggregatorSpec(kind="Max")),
        GridEntry("Avg", local_agg=LocalAggregatorSpec(kind="Avg")),
        GridEntry("LSE", local_agg=lse),
        GridEntry("NOR", local_agg=LocalAggregatorSpec(kind="NOR")),
        GridEntry("NAND", local_agg=LocalAggregatorSpec(kind="NAND")),
        GridEntry("g-Avg", global_agg=GlobalAggregatorSpec(kind="Avg")),
        GridEntry("g-Att", global_agg=GlobalAggregatorSpec(kind="Att")),
        GridEntry("g-NL",
                  global_agg=GlobalAggregatorSpec(kind="NL", gamma=global_gamma)),
        GridEntry("LSE+Avg", local_agg=lse,
                  global_agg=GlobalAggregatorSpec(kind="Avg")),
        GridEntry("LSE+Att", local_agg=lse,
                  global_agg=GlobalAggregatorSpec(kind="Att")),
        GridEntry("LSE+NL", local_agg=lse,
                  global_agg=GlobalAggregatorSpec(kind="NL", gamma=global_gamma)),
    ]
    return entries


def _metric(lower_is_better: bool = False):
    return dataclasses.field(default=None, metadata={"lower": lower_is_better})


@dataclass(eq=False)
class AblationRow:
    """A grid row; its `_metric` fields, None if it failed, are the metrics."""
    name: str
    trained: bool
    probe_auc: float | None = _metric()
    mean_cnr: float | None = _metric()
    retrieval_medr: float | None = _metric(lower_is_better=True)
    error: str = ""


_METRICS = [f for f in dataclasses.fields(AblationRow) if f.metadata]
GRID_METRICS = tuple(f.name for f in _METRICS)
LOWER_IS_BETTER = tuple(f.name for f in _METRICS if f.metadata["lower"])


def _row_config(base: TrainConfig, entry: GridEntry, seed: int) -> TrainConfig:
    kind = None if entry.global_agg is None else entry.global_agg.kind
    model = dataclasses.replace(base.model, **global_param_flags(kind))
    return dataclasses.replace(base, model=model, local_agg=entry.local_agg,
                               global_agg=entry.global_agg, seed=seed)


def retrieval_cases(documents, limit: int | None = None) -> list:
    """`grounding_cases(documents)[:limit]`, building no case past the
    limit."""
    return list(itertools.islice(_each_grounding_case(documents), limit))


def ablation_grid(train_docs, test_docs, grid, base_config: TrainConfig,
                  seed: int, retrieval_limit: int | None = None) -> list:
    """Train one model per grid entry, then evaluate the trained models
    together.

    A configuration that fails to train (non-finite loss) contributes a
    failed row rather than aborting the grid. The probe sets and the
    grounding and retrieval cases are built once per grid, every trained
    row's probe is fitted in one `linear_probe_stack`, and grounding and
    retrieval run per row.
    """
    rows, models = [], []
    for entry in grid:
        config = _row_config(base_config, entry, seed)
        try:
            result = train(train_docs, config)
        except NonFiniteLossError as exc:
            rows.append(AblationRow(name=entry.name, trained=False,
                                    error=str(exc)))
            continue
        rows.append(AblationRow(name=entry.name, trained=True))
        models.append(unflatten_params(config.model, result.params_flat))
    if not models:
        return rows

    probe_train, probe_test, y_tr, y_te, classes = probe_sets(train_docs,
                                                              test_docs)
    probes = linear_probe_stack(
        np.stack([pooled_image_features(p, probe_train) for p in models]),
        y_tr,
        np.stack([pooled_image_features(p, probe_test) for p in models]),
        y_te, classes)
    cases = grounding_cases(test_docs)
    for row, params, probe in zip([r for r in rows if r.trained], models,
                                  probes):
        retrieval = retrieval_eval(params, cases[:retrieval_limit])
        row.probe_auc = probe.auc
        row.mean_cnr = evaluate_grounding(params, cases).mean_cnr
        row.retrieval_medr = 0.5 * (retrieval.box_to_sentence_medr
                                    + retrieval.sentence_to_box_medr)
    return rows


def normalize_grid(rows) -> list:
    """Min-max normalize each metric across successful rows; the median
    rank flips so larger is uniformly better. Equal columns map to 0.5."""
    out = [{"name": r.name, "trained": r.trained, "error": r.error}
           for r in rows]
    for name in GRID_METRICS:
        values = [getattr(r, name) for r in rows if r.trained]
        lo, hi = min(values, default=0.0), max(values, default=0.0)
        for r, cells in zip(rows, out):
            norm = None
            if r.trained:
                norm = 0.5 if hi == lo else (getattr(r, name) - lo) / (hi - lo)
                if name in LOWER_IS_BETTER and hi != lo:
                    norm = 1.0 - norm
            cells[name] = norm
    return out


# ---------------------------------------------------------------------------
# report plumbing


def write_report_csv(path, rows, config_fingerprint: str, seed: int) -> None:
    """CSV of (task, metric, value) rows stamped with fingerprint and seed."""
    for task, metric, value in rows:
        if not np.isfinite(value):
            raise ContractError(f"non-finite metric {task}/{metric}")
    jsonio.write_csv(
        path, ("task", "metric", "value", "config_fingerprint", "seed"),
        [(task, metric, float(value), config_fingerprint, seed)
         for task, metric, value in rows])


def write_ablation_csvs(raw_path, normalized_path, rows,
                        config_fingerprint: str, seed: int) -> None:
    """The grid's raw and normalized CSVs, stamped with fingerprint and
    seed; a comma in a failed row's error becomes `;`."""
    stamp = f"config {config_fingerprint} seed {seed}"
    jsonio.write_csv(
        raw_path, ("name", "trained", *GRID_METRICS, "error"),
        [(r.name, int(r.trained), *(getattr(r, m) for m in GRID_METRICS),
          r.error.replace(",", ";")) for r in rows],
        comments=(stamp,))
    jsonio.write_csv(
        normalized_path, ("name", "trained", *GRID_METRICS),
        [(r["name"], int(r["trained"]), *(r[m] for m in GRID_METRICS))
         for r in normalize_grid(rows)],
        comments=(f"{stamp}; min-max normalized per metric; "
                  f"{', '.join(LOWER_IS_BETTER)} flipped so higher is better",))
