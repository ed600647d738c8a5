"""Image-document scoring: cosine tables, both aggregation routes, and
the batched score tables against the straight-line oracles. A single
image-document pair is a 1x1 call to pairwise_score_tables."""

import math

import numpy as np
import pytest

import oracles
from milalign.autodiff import ContractError
from milalign.aggregators import (
    LOCAL_KINDS,
    SENTENCE_KINDS,
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    SentenceAggregatorSpec,
    bind_global_spec,
)
from milalign.scoring import pairwise_score_tables

AVG = SentenceAggregatorSpec(kind="Avg")


def pair_score(regions, sentences, local_agg=None, global_agg=None,
               sentence_agg=AVG):
    """The enabled route's score of one image against one document."""
    table_l, table_g = pairwise_score_tables(
        regions, regions.shape[0], sentences, sentences.shape[0],
        local_agg, global_agg, sentence_agg)
    return float((table_l if table_g is None else table_g).value[0, 0])


def test_single_row_bags_give_the_cosine_table():
    # one region per image and one sentence per document: Max over the
    # region and Avg over the sentence keep the lone cosine
    rng = np.random.default_rng(0)
    regions = rng.standard_normal((4, 5))
    sentences = rng.standard_normal((3, 5))
    table, _ = pairwise_score_tables(regions, 1, sentences, 1,
                                     LocalAggregatorSpec(kind="Max"), None, AVG)
    sm = table.value
    assert sm.shape == (4, 3)
    for n in range(4):
        for m in range(3):
            assert abs(sm[n, m] - oracles.cos(regions[n], sentences[m])) < 1e-12
    assert sm.min() >= -1.0 and sm.max() <= 1.0


def test_pairwise_tables_dimension_mismatch():
    local_agg = LocalAggregatorSpec(kind="Max")
    with pytest.raises(ContractError, match="feature dimension mismatch"):
        pairwise_score_tables(np.ones((2, 3)), 1, np.ones((2, 4)), 1,
                              local_agg, None, AVG)
    with pytest.raises(ContractError):
        pairwise_score_tables(np.ones((0, 3)), 1, np.ones((2, 3)), 1,
                              local_agg, None, AVG)


def test_local_route_matches_naive():
    rng = np.random.default_rng(1)
    local_agg = LocalAggregatorSpec(kind="LSE", gamma=0.1)
    for _ in range(20):
        regions = rng.standard_normal((int(rng.integers(2, 6)), 4))
        sentences = rng.standard_normal((int(rng.integers(1, 4)), 4))
        got = pair_score(regions, sentences, local_agg=local_agg)
        want, _ = oracles.pair_scores(regions, sentences, local_agg, None, AVG)
        assert abs(got - want) < 1e-10


def test_global_nl_route_matches_naive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        regions = rng.standard_normal((int(rng.integers(2, 6)), 4))
        sentences = rng.standard_normal((int(rng.integers(1, 4)), 4))
        amat = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
        spec = bind_global_spec(GlobalAggregatorSpec(kind="NL", gamma=math.e),
                                sim_map=amat)
        got = pair_score(regions, sentences, global_agg=spec)
        _, want = oracles.pair_scores(regions, sentences, None, spec, AVG)
        assert abs(got - want) < 1e-10


def test_global_avg_route_matches_pooled_cosine():
    rng = np.random.default_rng(3)
    regions = rng.standard_normal((5, 4))
    sentences = rng.standard_normal((3, 4))
    got = pair_score(regions, sentences,
                     global_agg=GlobalAggregatorSpec(kind="Avg"))
    pooled = regions.mean(axis=0)
    want = np.mean([oracles.cos(pooled, s) for s in sentences])
    assert abs(got - want) < 1e-12


def test_score_is_permutation_invariant_both_routes():
    rng = np.random.default_rng(4)
    local = LocalAggregatorSpec(kind="LSE", gamma=0.1)
    for _ in range(30):
        regions = rng.standard_normal((5, 4))
        sentences = rng.standard_normal((3, 4))
        amat = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
        nl = bind_global_spec(GlobalAggregatorSpec(kind="NL", gamma=1.0),
                              sim_map=amat)
        rp = rng.permutation(5)
        sp = rng.permutation(3)
        for routes in ({"local_agg": local}, {"global_agg": nl}):
            a = pair_score(regions, sentences, **routes)
            b = pair_score(regions[rp], sentences[sp], **routes)
            assert abs(a - b) <= 1e-10


def test_per_sentence_helpers_agree_with_full_score():
    # a document's score is its sentence aggregator applied to the
    # single-sentence scores, each a 1x1 table under Id
    rng = np.random.default_rng(5)
    regions = rng.standard_normal((4, 3))
    sentences = rng.standard_normal((2, 3))
    identity = SentenceAggregatorSpec(kind="Id")
    for routes in ({"local_agg": LocalAggregatorSpec(kind="Max")},
                   {"global_agg": GlobalAggregatorSpec(kind="CA")}):
        per = [pair_score(regions, sentences[j:j + 1], sentence_agg=identity,
                          **routes) for j in range(2)]
        mean = pair_score(regions, sentences, **routes)
        top = pair_score(regions, sentences,
                         sentence_agg=SentenceAggregatorSpec(kind="Max"),
                         **routes)
        assert abs(mean - sum(per) / 2) < 1e-14
        assert abs(top - max(per)) < 1e-14
    sm = np.array([[oracles.cos(r, s) for s in sentences] for r in regions])
    per = [pair_score(regions, sentences[j:j + 1], sentence_agg=identity,
                      local_agg=LocalAggregatorSpec(kind="Max"))
           for j in range(2)]
    assert np.allclose(per, sm.max(axis=0), atol=1e-14)


def batched_vs_oracle(local_agg, global_agg, sentence_agg, rng,
                      bi=3, bd=3, n=4, m=2, dim=3):
    images = rng.standard_normal((bi, n, dim))
    documents = rng.standard_normal((bd, m, dim))
    tables = pairwise_score_tables(
        images.reshape(-1, dim), n, documents.reshape(-1, dim), m,
        local_agg, global_agg, sentence_agg)
    wants = oracles.score_tables(images, documents, local_agg, global_agg,
                                 sentence_agg)
    for table, want in zip(tables, wants):
        if want is None:
            assert table is None
            continue
        assert table.value.shape == (bi, bd)
        assert np.max(np.abs(table.value - np.array(want))) < 1e-10


def test_pairwise_tables_match_per_pair_scores():
    rng = np.random.default_rng(7)
    amat = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    proj = rng.standard_normal((3, 3))
    vec = rng.standard_normal(3)
    local_specs = [LocalAggregatorSpec(kind=k, gamma=0.1 if k == "LSE" else None)
                   for k in LOCAL_KINDS]
    global_specs = [
        GlobalAggregatorSpec(kind="Avg"),
        bind_global_spec(GlobalAggregatorSpec(kind="Att"),
                         att_proj=proj, att_vec=vec),
        bind_global_spec(GlobalAggregatorSpec(kind="NL", gamma=math.e),
                         sim_map=amat),
        GlobalAggregatorSpec(kind="CA"),
    ]
    for kind in SENTENCE_KINDS:
        sentence_agg = SentenceAggregatorSpec(
            kind=kind, gamma=2.0 if kind == "LSE" else None)
        m = 1 if kind == "Id" else 2
        for local_agg in local_specs:
            batched_vs_oracle(local_agg, None, sentence_agg, rng, m=m)
        for global_agg in global_specs:
            batched_vs_oracle(None, global_agg, sentence_agg, rng, m=m)
            batched_vs_oracle(local_specs[3], global_agg, sentence_agg, rng,
                              m=m)


def test_pairwise_tables_validate_bag_sizes():
    with pytest.raises(ContractError):
        pairwise_score_tables(np.ones((7, 3)), 4, np.ones((4, 3)), 2,
                              LocalAggregatorSpec(kind="Avg"), None,
                              SentenceAggregatorSpec(kind="Avg"))
    with pytest.raises(ContractError):
        pairwise_score_tables(np.ones((8, 3)), 4, np.ones((5, 3)), 2,
                              LocalAggregatorSpec(kind="Avg"), None,
                              SentenceAggregatorSpec(kind="Avg"))
