"""Permutation-invariant aggregators over score sets, and the specs of
the global feature poolers.

Local aggregators reduce the per-region scores of one sentence to a
scalar. Global aggregators pool a bag of region features into a single
vector, optionally conditioned on the sentence being scored; their specs
live here and the batched pooling in `scoring.pairwise_score_tables`.
Sentence aggregators reduce per-sentence scores to the document score.
Every aggregator treats its inputs as an unordered set: reordering the
inputs reorders nothing but the floating-point reassociation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import jsonio
from .autodiff import ContractError, Var, as_var

LOCAL_KINDS = ("Max", "Sum", "Avg", "LSE", "NOR", "NAND")
GLOBAL_KINDS = ("Avg", "Att", "NL", "CA")
SENTENCE_KINDS = ("Avg", "Sum", "Max", "LSE", "Id")

# Score range allowed at the local-aggregator boundary; NOR and NAND map
# scores through probabilities and rely on it. A little slack absorbs
# clamp-level rounding from upstream cosines.
_SCORE_SLACK = 1e-9

# NAND's fixed sigmoid slope and offset on the mean region probability.
NAND_SLOPE = 10.0
NAND_OFFSET = 0.5


def _check_kind_and_gamma(spec, route: str, kinds: tuple, gamma_kind: str,
                          zero_ok: bool = False) -> None:
    """Refuse a kind outside `kinds`, a gamma on any kind but `gamma_kind`,
    and a missing, non-finite, negative or (unless `zero_ok`) zero gamma
    on `gamma_kind`."""
    if spec.kind not in kinds:
        raise ContractError(f"unknown {route} aggregator kind: {spec.kind!r}")
    gamma = spec.gamma
    if spec.kind != gamma_kind:
        if gamma is not None:
            raise ContractError(f"{route} {spec.kind} takes no gamma")
    elif gamma is None or not np.isfinite(gamma) or gamma < 0.0 \
            or (gamma == 0.0 and not zero_ok):
        raise ContractError(f"{route} {gamma_kind} requires a "
                            + ("finite gamma >= 0" if zero_ok
                               else "positive finite gamma"))


@dataclass(frozen=True)
class LocalAggregatorSpec:
    """How to reduce one sentence's region scores to a scalar."""

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        _check_kind_and_gamma(self, "local", LOCAL_KINDS, "LSE")


@dataclass(frozen=True, eq=False)
class GlobalAggregatorSpec:
    """How to pool region features into one conditioning vector.

    `sim_map` (NL) and `att_proj`/`att_vec` (Att) hold the learned
    parameters; configs carry the spec unbound and the model binds its
    parameter values in before scoring.
    """

    kind: str
    gamma: float | None = None
    sim_map: object = None
    att_proj: object = None
    att_vec: object = None

    def __post_init__(self):
        _check_kind_and_gamma(self, "global", GLOBAL_KINDS, "NL", zero_ok=True)


@dataclass(frozen=True)
class SentenceAggregatorSpec:
    """How to reduce per-sentence scores to the document score."""

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        _check_kind_and_gamma(self, "sentence", SENTENCE_KINDS, "LSE")


def spec_to_dict(spec) -> dict | None:
    if spec is None:
        return None
    d = {"kind": spec.kind}
    if spec.gamma is not None:
        d["gamma"] = float(spec.gamma)
    return d


def spec_from_dict(cls, d, path: str):
    """Inverse of spec_to_dict for any of the three spec classes.

    The object holds `kind` and an optional `gamma` (null reads as None);
    any other key is refused, and the spec's own validation errors are
    prefixed with `path`. A null local or global route reads as None; a
    null sentence aggregator is refused, since every document score needs
    one.
    """
    if d is None and cls is not SentenceAggregatorSpec:
        return None
    kind = jsonio.require(d, "kind", path)
    for key in d:
        if key not in ("kind", "gamma"):
            raise ContractError(f"unknown field {path}.{key}")
    gamma = jsonio.optional(jsonio.require_float)(d, "gamma", path)
    try:
        return cls(kind=kind, gamma=gamma)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc


def bind_global_spec(spec: GlobalAggregatorSpec, sim_map=None, att_proj=None,
                     att_vec=None) -> GlobalAggregatorSpec:
    """Attach model parameter values to an unbound global spec."""
    return dataclasses.replace(
        spec, sim_map=sim_map, att_proj=att_proj, att_vec=att_vec
    )


def _reduce(kind: str, gamma: float | None, scores: Var, axis: int) -> Var:
    """`scores` reduced along `axis` by the aggregator `kind`; local and
    sentence aggregators of the same name are the same reduction, and Id
    is the sum over a single entry."""
    if kind == "Max":
        return ad.vmax(scores, axis=axis)
    if kind in ("Sum", "Id"):
        return ad.vsum(scores, axis=axis)
    if kind == "Avg":
        return ad.vmean(scores, axis=axis)
    if kind == "LSE":
        return ad.logsumexp(scores, gamma, axis=axis)
    # NOR and NAND read each score as a probability p = (score+1)/2
    p = ad.mul(ad.add(scores, 1.0), 0.5)
    if kind == "NOR":
        # noisy-or mapped back to the score range; the explicit product
        # keeps a score of +1 absorbing exactly
        survive = ad.vprod(ad.sub(1.0, p), axis=axis)
        return ad.sub(1.0, ad.mul(survive, 2.0))
    a, b = NAND_SLOPE, NAND_OFFSET
    pbar = ad.vmean(p, axis=axis)
    lo = float(ad.expit(-a * b))
    hi = float(ad.expit(a * (1.0 - b)))
    q = ad.div(ad.sub(ad.sigmoid(ad.mul(ad.sub(pbar, b), a)), lo), hi - lo)
    return ad.sub(ad.mul(q, 2.0), 1.0)


def aggregate_local_axis(spec: LocalAggregatorSpec, scores, axis: int) -> Var:
    """Reduce region scores in [-1, 1] along one axis of a score array."""
    v = as_var(scores)
    if v.value.shape[axis] == 0:
        raise ContractError("local aggregation needs at least one region score")
    if v.value.min() < -1.0 - _SCORE_SLACK or v.value.max() > 1.0 + _SCORE_SLACK:
        raise ContractError("local aggregator scores must lie in [-1, 1]")
    return _reduce(spec.kind, spec.gamma, v, axis)


def aggregate_sentences_axis(spec: SentenceAggregatorSpec, scores, axis: int) -> Var:
    v = as_var(scores)
    if spec.kind == "Id" and v.value.shape[axis] != 1:
        raise ContractError("sentence aggregator Id is only valid for "
                            "single-sentence documents")
    return _reduce(spec.kind, spec.gamma, v, axis)
