"""Aggregator semantics: frozen small-case values, bounds, permutation
invariance, and the frozen-selection rule of the nonlocal pooler. Local
and sentence aggregators run in their axis form on one score vector;
global poolers run inside the score table of one image and one
document."""

import math
import re

import numpy as np
import pytest

import milalign.autodiff as ad
import oracles
from milalign.autodiff import ContractError, Var
from milalign.aggregators import (
    GLOBAL_KINDS,
    LOCAL_KINDS,
    SENTENCE_KINDS,
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    SentenceAggregatorSpec,
    aggregate_local_axis,
    aggregate_sentences_axis,
    bind_global_spec,
    spec_from_dict,
    spec_to_dict,
)
from milalign.scoring import pairwise_score_tables


def local_reduce(spec, scores):
    return aggregate_local_axis(spec, scores, axis=0)


def sentence_reduce(spec, scores):
    return aggregate_sentences_axis(spec, scores, axis=0)


def global_table(spec, images, sentences):
    """g-route table of a (B, N, D) image batch against one document per
    row of `sentences` (B_d, M, D); sentence scores averaged."""
    bi, n, dim = images.shape
    _, table = pairwise_score_tables(
        images.reshape(-1, dim), n, sentences.reshape(-1, dim),
        sentences.shape[1], None, spec, SentenceAggregatorSpec(kind="Avg"))
    return table


def unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def pooled_cosine(weights, bag, sentence):
    """Cosine of the weighted pool of `bag` with `sentence`."""
    return float(unit(weights @ bag) @ unit(sentence))


def lse(scores, gamma):
    return float(np.log(np.sum(np.exp(gamma * np.asarray(scores)))) / gamma)


def test_local_kind_validation():
    with pytest.raises(ContractError):
        LocalAggregatorSpec(kind="Mean")
    with pytest.raises(ContractError):
        LocalAggregatorSpec(kind="LSE")           # gamma missing
    with pytest.raises(ContractError):
        LocalAggregatorSpec(kind="LSE", gamma=0.0)
    with pytest.raises(ContractError):
        GlobalAggregatorSpec(kind="Pool")
    with pytest.raises(ContractError):
        SentenceAggregatorSpec(kind="LSE")


def test_local_max_sum_avg():
    scores = np.asarray([0.2, -0.4, 0.9])
    assert local_reduce(LocalAggregatorSpec(kind="Max"), scores).value == 0.9
    assert abs(local_reduce(LocalAggregatorSpec(kind="Sum"), scores).value
               - 0.7) < 1e-15
    assert abs(local_reduce(LocalAggregatorSpec(kind="Avg"), scores).value
               - 0.7 / 3) < 1e-15


def test_local_lse_frozen_values():
    spec1 = LocalAggregatorSpec(kind="LSE", gamma=1.0)
    out = local_reduce(spec1, np.asarray([1.0, 0.0]))
    assert abs(out.value - 1.3132616875182228) < 1e-15
    spec01 = LocalAggregatorSpec(kind="LSE", gamma=0.1)
    out = local_reduce(spec01, np.asarray([1.0, 0.0]))
    assert abs(out.value - 7.44396660073571) < 1e-12


def test_local_lse_bounds_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        scores = rng.uniform(-1.0, 1.0, size=n)
        gamma = float(rng.choice([0.1, 1.0, 5.0]))
        out = local_reduce(LocalAggregatorSpec(kind="LSE", gamma=gamma),
                              scores).value
        top = scores.max()
        assert out >= top - 1e-12
        assert out <= top + math.log(n) / gamma + 1e-12


def test_local_lse_approaches_max_at_large_gamma():
    rng = np.random.default_rng(1)
    spec = LocalAggregatorSpec(kind="LSE", gamma=1000.0)
    for _ in range(50):
        scores = rng.uniform(-1.0, 1.0, size=6)
        out = local_reduce(spec, scores).value
        assert abs(out - scores.max()) <= math.log(6) / 1000.0 + 1e-12


def test_local_nor_absorbing_and_neutral():
    spec = LocalAggregatorSpec(kind="NOR")
    # a certain instance (score 1) forces the bag to 1 regardless of the rest
    assert local_reduce(spec, np.asarray([1.0, 0.0])).value == 1.0
    assert local_reduce(spec, np.asarray([1.0, -1.0, 0.3])).value == 1.0
    # two half-probability instances: 1 - 2 * 0.5 * 0.5
    assert abs(local_reduce(spec, np.asarray([0.0, 0.0])).value - 0.5) < 1e-15
    # p = 0.75 and 0.25: 1 - 2 * 0.25 * 0.75 = 0.625
    assert abs(local_reduce(spec, np.asarray([0.5, -0.5])).value
               - 0.625) < 1e-15
    # all-background bag stays at the lower end
    assert local_reduce(spec, np.asarray([-1.0, -1.0])).value == -1.0


def test_local_nor_matches_product_formula():
    rng = np.random.default_rng(3)
    spec = LocalAggregatorSpec(kind="NOR")
    for _ in range(50):
        scores = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 7)))
        p = (scores + 1.0) / 2.0
        want = 1.0 - 2.0 * np.prod(1.0 - p)
        assert abs(local_reduce(spec, scores).value - want) < 1e-12


def test_local_nand_endpoints_and_midpoint():
    spec = LocalAggregatorSpec(kind="NAND")
    assert abs(local_reduce(spec, np.asarray([1.0, 1.0])).value - 1.0) < 1e-15
    assert abs(local_reduce(spec, np.asarray([-1.0, -1.0])).value
               + 1.0) < 1e-15
    # mean probability 0.5 sits exactly at the sigmoid center
    assert abs(local_reduce(spec, np.asarray([0.0, 0.0])).value) < 1e-15
    assert abs(local_reduce(spec, np.asarray([1.0, -1.0])).value) < 1e-15


def test_local_nand_is_monotone_in_mean_score():
    spec = LocalAggregatorSpec(kind="NAND")
    grid = np.linspace(-1.0, 1.0, 21)
    outs = [local_reduce(spec, np.asarray([g, g])).value for g in grid]
    assert all(b > a for a, b in zip(outs, outs[1:]))


def test_local_aggregators_permutation_invariant():
    rng = np.random.default_rng(7)
    specs = [
        LocalAggregatorSpec(kind="Max"),
        LocalAggregatorSpec(kind="Sum"),
        LocalAggregatorSpec(kind="Avg"),
        LocalAggregatorSpec(kind="LSE", gamma=0.1),
        LocalAggregatorSpec(kind="NOR"),
        LocalAggregatorSpec(kind="NAND"),
    ]
    for _ in range(50):
        scores = rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 9)))
        perm = rng.permutation(scores.size)
        for spec in specs:
            a = local_reduce(spec, scores).value
            b = local_reduce(spec, scores[perm]).value
            assert abs(a - b) <= 1e-10


def test_local_rejects_out_of_range_scores():
    with pytest.raises(ContractError):
        local_reduce(LocalAggregatorSpec(kind="Avg"), np.asarray([1.5]))
    with pytest.raises(ContractError):
        local_reduce(LocalAggregatorSpec(kind="Avg"), np.asarray([]))


def test_local_axis_matches_columnwise_loop():
    rng = np.random.default_rng(8)
    sm = rng.uniform(-1.0, 1.0, size=(5, 3))
    for kind in LOCAL_KINDS:
        spec = LocalAggregatorSpec(kind=kind, gamma=0.1 if kind == "LSE" else None)
        cols = aggregate_local_axis(spec, sm, axis=0).value
        for j in range(3):
            assert abs(cols[j] - oracles.local(spec, sm[:, j])) < 1e-12


def test_sentence_aggregators():
    s = np.asarray([0.1, 0.5, -0.2])
    assert abs(sentence_reduce(SentenceAggregatorSpec(kind="Avg"), s).value
               - s.mean()) < 1e-15
    assert abs(sentence_reduce(SentenceAggregatorSpec(kind="Sum"), s).value
               - s.sum()) < 1e-15
    assert sentence_reduce(SentenceAggregatorSpec(kind="Max"), s).value == 0.5
    got = sentence_reduce(SentenceAggregatorSpec(kind="LSE", gamma=2.0), s)
    assert abs(got.value - lse(s, 2.0)) < 1e-12
    assert sentence_reduce(SentenceAggregatorSpec(kind="Id"),
                           np.asarray([0.3])).value == 0.3
    with pytest.raises(ContractError):
        sentence_reduce(SentenceAggregatorSpec(kind="Id"), s)


def test_global_avg_is_row_mean():
    rng = np.random.default_rng(10)
    images = rng.standard_normal((3, 6, 4))
    sentences = rng.standard_normal((2, 1, 4))
    table = global_table(GlobalAggregatorSpec(kind="Avg"), images, sentences)
    for j in range(3):
        for i in range(2):
            want = pooled_cosine(np.full(6, 1.0 / 6), images[j], sentences[i, 0])
            assert abs(table.value[j, i] - want) < 1e-12


def test_global_att_matches_naive_softmax_pool():
    # every image of the batch is pooled with its own softmax over regions
    rng = np.random.default_rng(11)
    images = rng.standard_normal((4, 5, 4))
    sentences = rng.standard_normal((3, 1, 4))
    proj = rng.standard_normal((3, 4))
    vec = rng.standard_normal(3)
    spec = bind_global_spec(GlobalAggregatorSpec(kind="Att"),
                            att_proj=proj, att_vec=vec)
    table = global_table(spec, images, sentences)
    for j, bag in enumerate(images):
        logits = np.tanh(bag @ proj.T) @ vec
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        for i in range(3):
            want = pooled_cosine(w, bag, sentences[i, 0])
            assert abs(table.value[j, i] - want) < 1e-12


def test_global_att_requires_parameters():
    images = np.ones((1, 2, 3))
    sentences = np.ones((1, 1, 3))
    with pytest.raises(ContractError, match="att_proj and att_vec"):
        global_table(GlobalAggregatorSpec(kind="Att"), images, sentences)
    with pytest.raises(ContractError, match="att_proj must be"):
        global_table(bind_global_spec(GlobalAggregatorSpec(kind="Att"),
                                      att_proj=np.ones((2, 4)),
                                      att_vec=np.ones(2)), images, sentences)
    with pytest.raises(ContractError, match="att_vec length"):
        global_table(bind_global_spec(GlobalAggregatorSpec(kind="Att"),
                                      att_proj=np.ones((2, 3)),
                                      att_vec=np.ones(3)), images, sentences)


def test_global_nl_weights_follow_similarity_to_critical_region():
    rng = np.random.default_rng(12)
    bag = rng.standard_normal((6, 4))
    sentence = rng.standard_normal(4)
    amat = np.eye(4) + 0.01 * rng.standard_normal((4, 4))
    spec = bind_global_spec(
        GlobalAggregatorSpec(kind="NL", gamma=math.e), sim_map=amat)
    table = global_table(spec, bag[None], sentence[None, None])
    k = int(np.argmax(unit(bag) @ unit(sentence)))
    mapped = bag @ amat.T
    sims = mapped @ mapped[k]
    w = np.exp(math.e * (sims - sims.max()))
    w = w / w.sum()
    assert abs(table.value[0, 0] - pooled_cosine(w, bag, sentence)) < 1e-12


def test_global_nl_selection_is_frozen():
    # the critical region is picked by value: the sentences reach the NL
    # score only through the final cosine, so their gradient is that of
    # mean_j cos(pooled_j, s_j) with every pooled feature held fixed
    rng = np.random.default_rng(13)
    bag = rng.standard_normal((4, 3))
    sentences = Var(rng.standard_normal((2, 3)))
    spec = bind_global_spec(
        GlobalAggregatorSpec(kind="NL", gamma=1.0), sim_map=np.eye(3))
    _, table = pairwise_score_tables(bag, 4, sentences, 2, None, spec,
                                     SentenceAggregatorSpec(kind="Avg"))
    ad.vsum(table).backward()
    for j, s in enumerate(sentences.value):
        k = int(np.argmax(unit(bag) @ unit(s)))
        sims = bag @ bag[k]
        w = np.exp(sims - sims.max())
        p = (w / w.sum()) @ bag
        c = float(unit(p) @ unit(s))
        want = 0.5 * (p / (np.linalg.norm(p) * np.linalg.norm(s))
                      - c * s / (s @ s))
        assert np.allclose(sentences.grad[j], want, atol=1e-12)


def test_global_nl_requires_scores_and_map():
    images = np.ones((1, 2, 3))
    sentences = np.ones((1, 1, 3))
    with pytest.raises(ContractError, match="sim_map"):
        global_table(GlobalAggregatorSpec(kind="NL", gamma=1.0), images,
                     sentences)
    # a missing gamma is refused when the spec is built, before any scoring
    with pytest.raises(ContractError, match="NL requires a finite gamma"):
        GlobalAggregatorSpec(kind="NL")
    with pytest.raises(ContractError, match="NL requires a finite gamma"):
        GlobalAggregatorSpec(kind="NL", gamma=-1.0)


def test_global_ca_weights_by_cosine_to_condition():
    rng = np.random.default_rng(14)
    bag = rng.standard_normal((5, 4))
    cond = rng.standard_normal(4)
    table = global_table(GlobalAggregatorSpec(kind="CA"), bag[None],
                         cond[None, None])
    logits = unit(bag) @ unit(cond)
    w = np.exp(logits - logits.max())
    w = w / w.sum()
    assert abs(table.value[0, 0] - pooled_cosine(w, bag, cond)) < 1e-12


def test_global_ca_condition_scale_invariant():
    rng = np.random.default_rng(15)
    images = rng.standard_normal((2, 5, 4))
    sentences = rng.standard_normal((3, 2, 4))
    spec = GlobalAggregatorSpec(kind="CA")
    a = global_table(spec, images, sentences).value
    b = global_table(spec, images, 100.0 * sentences).value
    assert np.allclose(a, b, atol=1e-12)


def test_global_aggregators_permutation_invariant():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        images = rng.standard_normal((2, n, 4))
        sentences = rng.standard_normal((2, 2, 4))
        amat = np.eye(4) + 0.01 * rng.standard_normal((4, 4))
        proj = rng.standard_normal((4, 4))
        vec = rng.standard_normal(4)
        permuted = np.stack([bag[rng.permutation(n)] for bag in images])
        specs = [
            GlobalAggregatorSpec(kind="Avg"),
            bind_global_spec(GlobalAggregatorSpec(kind="Att"),
                             att_proj=proj, att_vec=vec),
            bind_global_spec(GlobalAggregatorSpec(kind="NL", gamma=2.0),
                             sim_map=amat),
            GlobalAggregatorSpec(kind="CA"),
        ]
        for spec in specs:
            a = global_table(spec, images, sentences).value
            b = global_table(spec, permuted, sentences).value
            assert np.max(np.abs(a - b)) <= 1e-10


def test_spec_dict_roundtrip():
    local = LocalAggregatorSpec(kind="LSE", gamma=0.1)
    assert spec_from_dict(LocalAggregatorSpec, spec_to_dict(local), "l") == local
    nand = LocalAggregatorSpec(kind="NAND")
    assert spec_to_dict(nand) == {"kind": "NAND"}
    assert spec_from_dict(LocalAggregatorSpec, spec_to_dict(nand), "l") == nand
    glob = GlobalAggregatorSpec(kind="NL", gamma=math.e)
    back = spec_from_dict(GlobalAggregatorSpec, spec_to_dict(glob), "g")
    assert back.kind == "NL" and back.gamma == math.e
    sent = SentenceAggregatorSpec(kind="LSE", gamma=2.0)
    assert spec_from_dict(SentenceAggregatorSpec, spec_to_dict(sent), "s") == sent
    assert spec_to_dict(None) is None
    assert spec_from_dict(LocalAggregatorSpec, None, "l") is None
    assert spec_from_dict(GlobalAggregatorSpec, None, "g") is None
    assert spec_from_dict(LocalAggregatorSpec, {"kind": "Max", "gamma": None},
                          "l") == LocalAggregatorSpec(kind="Max")


@pytest.mark.parametrize("cls,d,message", [
    (SentenceAggregatorSpec, None, "agg must be a JSON object"),
    (GlobalAggregatorSpec, "NL", "agg must be a JSON object"),
    (LocalAggregatorSpec, {"kind": "NAND", "nand_slope": 5.0},
     "unknown field agg.nand_slope"),
    (GlobalAggregatorSpec, {"kind": "Att", "sim_map": [[1.0]]},
     "unknown field agg.sim_map"),
    (LocalAggregatorSpec, {"gamma": 0.5}, "missing field agg.kind"),
    (LocalAggregatorSpec, {"kind": "LSE", "gamma": "x"},
     "agg.gamma must be a number"),
    (LocalAggregatorSpec, {"kind": "LSE"},
     "agg: local LSE requires a positive finite gamma"),
    (GlobalAggregatorSpec, {"kind": "NL"},
     "agg: global NL requires a finite gamma >= 0"),
    (LocalAggregatorSpec, {"kind": "Max", "gamma": 7.0},
     "agg: local Max takes no gamma"),
    (GlobalAggregatorSpec, {"kind": "CA", "gamma": 1.0},
     "agg: global CA takes no gamma"),
    (SentenceAggregatorSpec, {"kind": "Avg", "gamma": 2.0},
     "agg: sentence Avg takes no gamma"),
], ids=["null-sentence", "string", "nand-slope", "sim-map", "no-kind",
        "gamma-type", "lse-gamma", "nl-gamma", "max-gamma", "ca-gamma",
        "avg-gamma"])
def test_spec_from_dict_refuses_naming_the_path(cls, d, message):
    with pytest.raises(ContractError, match=re.escape(message)):
        spec_from_dict(cls, d, "agg")


def test_kind_tables_are_frozen():
    assert LOCAL_KINDS == ("Max", "Sum", "Avg", "LSE", "NOR", "NAND")
    assert GLOBAL_KINDS == ("Avg", "Att", "NL", "CA")
    assert SENTENCE_KINDS == ("Avg", "Sum", "Max", "LSE", "Id")
