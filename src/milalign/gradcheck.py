"""Finite-difference verification suite for the scoring and training path.

Each named case draws random instances of one differentiable operation
(an aggregator, a 2x2 score table, the table loss, or the full training
loss of one grid row or of LSE+CA), wraps it as a scalar function of a
flat parameter vector, and compares the analytic gradient against
central differences.
Operations with frozen selections (Max, the NL critical region) resample
until the selection has enough margin that the probe steps cannot flip
it; the kink would otherwise make the numeric gradient meaningless.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Var, finite_difference_check
from .aggregators import (
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    SentenceAggregatorSpec,
    aggregate_local_axis,
    aggregate_sentences_axis,
    bind_global_spec,
)
from .encoders import EncoderParams, ModelConfig, encode_bag, \
    global_param_flags, init_model, unflatten_params
from .evaluation import GridEntry, default_grid
from .objective import Temperature, infonce_score_table
from .scoring import pairwise_score_tables
from .trainer import BatchItem, TrainConfig, batch_loss

_MAX_DRAWS = 200
_COSINE_CEILING = 0.99   # keep clamps inactive around probe points
_SELECTION_MARGIN = 1e-3  # top-2 gap shielding frozen argmax selections


def _draw(rng, build, accept):
    for _ in range(_MAX_DRAWS):
        candidate = build(rng)
        if accept(candidate):
            return candidate
    raise ContractError("could not draw an instance satisfying the "
                        "margin constraints")


def _split(leaf: Var, sizes):
    parts = []
    offset = 0
    for size in sizes:
        parts.append(leaf[offset:offset + size])
        offset += size
    return parts


def _case_encode(rng):
    d_in, hidden, d_out, count = 3, 4, 3, 2
    sizes = [hidden * d_in, hidden, d_out * hidden, d_out, count * d_in]
    point = rng.normal(0.0, 0.6, sum(sizes))
    mix = rng.normal(0.0, 1.0, (count, d_out))

    def f(leaf):
        w1, b1, w2, b2, obs = _split(leaf, sizes)
        params = EncoderParams(
            W1=ad.reshape(w1, (hidden, d_in)),
            b1=b1,
            W2=ad.reshape(w2, (d_out, hidden)),
            b2=b2,
        )
        out = encode_bag(params, ad.reshape(obs, (count, d_in)))
        return ad.vsum(ad.mul(out, mix), axis=None)

    return f, point


def _scores_in_range(rng, n):
    return rng.uniform(-0.95, 0.95, n)


def _top_gaps(scores, axis):
    ranked = np.sort(scores, axis=axis)
    return np.take(ranked, -1, axis=axis) - np.take(ranked, -2, axis=axis)


def _table_ok(regions, sentences, n_regions, min_norm):
    """Features clear of the norm floor, cosines clear of the clamps, and
    each image's best region per sentence ahead of its runner-up by the
    selection margin, so no probe step can flip a frozen argmax."""
    r_norms = np.linalg.norm(regions, axis=1)
    s_norms = np.linalg.norm(sentences, axis=1)
    if min(r_norms.min(), s_norms.min()) < min_norm:
        return False
    cosines = (regions / r_norms[:, None]) @ (sentences / s_norms[:, None]).T
    if np.abs(cosines).max() >= _COSINE_CEILING:
        return False
    blocks = cosines.reshape(-1, n_regions, sentences.shape[0])
    return _top_gaps(blocks, axis=1).min() >= _SELECTION_MARGIN


def _local_case(kind, **kwargs):
    def case(rng):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        spec = LocalAggregatorSpec(kind=kind, **kwargs)
        mix = rng.normal(0.0, 1.0, m)
        if kind == "Max":
            point = _draw(rng, lambda r: _scores_in_range(r, n * m),
                          lambda v: _top_gaps(v.reshape(n, m), axis=0).min()
                          >= _SELECTION_MARGIN)
        else:
            point = _scores_in_range(rng, n * m)

        def f(leaf):
            per_sentence = aggregate_local_axis(spec, ad.reshape(leaf, (n, m)),
                                                axis=0)
            return ad.matmul(per_sentence, mix)

        return f, point

    return case


def _sentence_case(kind, **kwargs):
    def case(rng):
        n = 1 if kind == "Id" else int(rng.integers(2, 7))
        spec = SentenceAggregatorSpec(kind=kind, **kwargs)
        if kind == "Max":
            point = _draw(rng, lambda r: _scores_in_range(r, n),
                          lambda v: _top_gaps(v, axis=0) >= _SELECTION_MARGIN)
        else:
            point = _scores_in_range(rng, n)
        return (lambda leaf: aggregate_sentences_axis(spec, leaf, axis=0)), point

    return case


_GLOBAL_IMAGES = 2
_GLOBAL_DOCUMENTS = 2


def _global_case(kind):
    """The global route's score table of two images against two documents,
    reduced to a scalar with fixed random weights, so the batch axis of
    every pooling op carries gradient."""
    def case(rng):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        dim = int(rng.integers(3, 5))
        rows, cols = _GLOBAL_IMAGES * n, _GLOBAL_DOCUMENTS * m
        base = _draw(rng, lambda r: r.normal(0.0, 1.0, (rows + cols) * dim),
                     lambda p: _table_ok(p[:rows * dim].reshape(rows, dim),
                                         p[rows * dim:].reshape(cols, dim), n,
                                         0.5))
        if kind == "Att":
            extra = rng.normal(0.0, 0.5, dim * dim + dim)
        elif kind == "NL":
            extra = (np.eye(dim) + 0.1 * rng.normal(0.0, 1.0, (dim, dim))).ravel()
        else:
            extra = np.zeros(0)
        point = np.concatenate([base, extra])
        mix = rng.normal(0.0, 1.0, (_GLOBAL_IMAGES, _GLOBAL_DOCUMENTS))

        def f(leaf):
            bags, sentences, params = _split(leaf, [rows * dim, cols * dim,
                                                    extra.size])
            spec = GlobalAggregatorSpec(
                kind=kind, gamma=math.e if kind == "NL" else None)
            if kind == "Att":
                proj, vec = _split(params, [dim * dim, dim])
                spec = bind_global_spec(spec, att_proj=ad.reshape(proj, (dim, dim)),
                                        att_vec=vec)
            elif kind == "NL":
                spec = bind_global_spec(spec, sim_map=ad.reshape(params, (dim, dim)))
            _, table = pairwise_score_tables(
                ad.reshape(bags, (rows, dim)), n,
                ad.reshape(sentences, (cols, dim)), m,
                None, spec, SentenceAggregatorSpec(kind="Avg"))
            return ad.vsum(ad.mul(table, mix), axis=None)

        return f, point

    return case


def _case_infonce_table(rng):
    b = int(rng.integers(2, 6))
    log_gamma = math.log(rng.uniform(1.0, 5.0))
    point = np.concatenate([rng.uniform(-0.9, 0.9, b * b), [log_gamma]])

    def f(leaf):
        table = ad.reshape(leaf[:b * b], (b, b))
        return infonce_score_table(table, Temperature(log_gamma=leaf[b * b]))

    return f, point


_TINY_MODEL = ModelConfig(region_input_dim=3, sentence_input_dim=3,
                          hidden_dim=4, embed_dim=4)
_TINY_BATCH = 3
_TINY_REGIONS = 3
_TINY_SENTENCES = 2


def _batch_loss_case(entry):
    """The training loss of one grid row on a tiny batch, as a function of
    the flat parameter vector."""
    global_kind = None if entry.global_agg is None else entry.global_agg.kind
    model = dataclasses.replace(_TINY_MODEL, **global_param_flags(global_kind))
    config = TrainConfig(model=model, local_agg=entry.local_agg,
                         global_agg=entry.global_agg, batch_size=_TINY_BATCH,
                         sentences_per_bag=_TINY_SENTENCES)

    def case(rng):
        flat = init_model(model, gamma_init=float(rng.uniform(1.0, 5.0)),
                          seed=int(rng.integers(0, 2 ** 31)))
        point = flat + rng.normal(0.0, 0.05, flat.shape)
        moved = unflatten_params(model, point)

        def build(r):
            return (r.normal(0.0, 1.0, (_TINY_BATCH * _TINY_REGIONS, 3)),
                    r.normal(0.0, 1.0, (_TINY_BATCH * _TINY_SENTENCES, 3)))

        def accept(obs):
            return _table_ok(encode_bag(moved.region_encoder, obs[0]).value,
                             encode_bag(moved.sentence_encoder, obs[1]).value,
                             _TINY_REGIONS, 0.05)

        regions, sentences = _draw(rng, build, accept)
        batch = [
            BatchItem(document=SimpleNamespace(region_observations=bag),
                      sentence_bag=doc)
            for bag, doc in zip(regions.reshape(_TINY_BATCH, _TINY_REGIONS, 3),
                                sentences.reshape(_TINY_BATCH, _TINY_SENTENCES, 3))
        ]
        return (lambda leaf: batch_loss(config, leaf, batch)), point

    return case


# CA is outside the paper's grid; its row checks CA's softmax sharing the
# cosine table with the local route.
_CA_ENTRY = GridEntry("LSE+CA",
                      local_agg=LocalAggregatorSpec(kind="LSE", gamma=0.1),
                      global_agg=GlobalAggregatorSpec(kind="CA"))


@dataclass(eq=False)
class CheckResult:
    name: str
    instances: int
    max_relative_error: float
    passed: bool


SUITE = [
    ("encode_bag", _case_encode),
    ("local_Max", _local_case("Max")),
    ("local_Sum", _local_case("Sum")),
    ("local_Avg", _local_case("Avg")),
    ("local_LSE", _local_case("LSE", gamma=0.1)),
    ("local_NOR", _local_case("NOR")),
    ("local_NAND", _local_case("NAND")),
    ("sentence_Avg", _sentence_case("Avg")),
    ("sentence_Sum", _sentence_case("Sum")),
    ("sentence_Max", _sentence_case("Max")),
    ("sentence_LSE", _sentence_case("LSE", gamma=2.0)),
    ("sentence_Id", _sentence_case("Id")),
    ("global_Avg", _global_case("Avg")),
    ("global_Att", _global_case("Att")),
    ("global_NL", _global_case("NL")),
    ("global_CA", _global_case("CA")),
    ("infonce_score_table", _case_infonce_table),
] + [(f"batch_loss_{entry.name}", _batch_loss_case(entry))
     for entry in default_grid() + [_CA_ENTRY]]


def run_suite(step: float = 1e-5, tolerance: float = 1e-4,
              instances: int = 20, seed: int = 0) -> list:
    """Run every case; returns one CheckResult per operation."""
    if instances < 1:
        raise ContractError("gradient check needs at least one instance")
    results = []
    for index, (name, case) in enumerate(SUITE):
        rng = np.random.default_rng([seed, index])
        worst = 0.0
        ok = True
        for _ in range(instances):
            f, point = case(rng)
            report = finite_difference_check(f, point, step=step,
                                             tolerance=tolerance)
            worst = max(worst, report.max_relative_error)
            ok = ok and report.passed
        results.append(CheckResult(name=name, instances=instances,
                                   max_relative_error=worst, passed=ok))
    return results
