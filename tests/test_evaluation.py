"""Evaluation stack: zero-shot normalization, probe AUC, grounding metrics
against frozen hand values and straight-line oracles, retrieval ranking
rules, the encoder-call count of the batched tasks, and the ablation grid
plumbing."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from memory import traced_call
from milalign import evaluation
from milalign.autodiff import ContractError
from milalign.aggregators import (
    LOCAL_KINDS,
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
)
from milalign.encoders import ModelConfig, init_model, unflatten_params
from milalign.evaluation import (
    GRID_METRICS,
    IOU_THRESHOLDS,
    LOWER_IS_BETTER,
    AblationRow,
    GridEntry,
    GroundingCase,
    ablation_grid,
    box_masks,
    cnr_rows,
    VARIANCE_GUARD,
    default_grid,
    document_label,
    encode_regions,
    encode_sentences,
    evaluate_grounding,
    export_score_maps,
    grounding_cases,
    grounding_score_maps,
    hit_rows,
    linear_probe,
    linear_probe_stack,
    lower_median,
    minmax_normalize_columns,
    miou_rows,
    normalize_grid,
    pooled_image_features,
    probe_eval,
    probe_sets,
    prompt_matrix,
    rank_auc,
    rank_of_match,
    retrieval_cases,
    retrieval_eval,
    retrieval_features,
    scaled_k_values,
    single_concept_documents,
    write_ablation_csvs,
    write_report_csv,
    zero_shot_classify,
    zero_shot_score_table,
)
from milalign.synthgen import (
    CorpusSpec,
    SyntheticDocument,
    generate_corpus,
    prompt_bank,
    split_corpus,
)
from milalign.trainer import NonFiniteLossError, TrainConfig, train


def tiny_corpus(documents=60, seed=0, **kw):
    base = dict(concepts=4, region_dim=6, sentence_dim=6, regions_per_image=8,
                sentences_per_doc=2, documents=documents, concepts_min=1,
                concepts_max=2, box_min=2, box_max=3, seed=seed)
    base.update(kw)
    return generate_corpus(CorpusSpec(**base))


def tiny_params(seed=0, use_nl=False, use_att=False):
    config = ModelConfig(region_input_dim=6, sentence_input_dim=6,
                         hidden_dim=8, embed_dim=5, use_nl=use_nl,
                         use_att=use_att)
    return config, unflatten_params(config, init_model(config, 14.0, seed))


# ---------------------------------------------------------------------------
# feature pooling and labels


def test_single_concept_filter_and_labels():
    corpus = tiny_corpus(documents=200)
    singles = single_concept_documents(corpus.documents)
    assert singles
    for doc in singles:
        present = {c for c in doc.region_concepts if c is not None}
        assert len(present) == 1
        assert document_label(doc) == present.pop()
    multi = [d for d in corpus.documents
             if len({c for c in d.region_concepts if c is not None}) > 1]
    assert multi
    with pytest.raises(ContractError):
        document_label(multi[0])


def test_pooled_features_shape():
    corpus = tiny_corpus()
    _, params = tiny_params()
    feats = pooled_image_features(params, corpus.documents[:7])
    assert feats.shape == (7, 5)
    with pytest.raises(ContractError):
        pooled_image_features(params, [])


# ---------------------------------------------------------------------------
# zero-shot


def test_prompt_matrix_requires_contiguous_ids():
    with pytest.raises(ContractError):
        prompt_matrix({0: np.ones(3), 2: np.ones(3)})
    with pytest.raises(ContractError):
        prompt_matrix({0: np.ones(3)})
    mat = prompt_matrix({1: np.full(3, 1.0), 0: np.full(3, 0.0)})
    assert np.array_equal(mat, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def test_minmax_normalization_columns():
    table = np.asarray([[0.0, 5.0], [1.0, 7.0], [0.5, 6.0]])
    out = minmax_normalize_columns(table)
    assert np.allclose(out[:, 0], [0.0, 1.0, 0.5])
    assert np.allclose(out[:, 1], [0.0, 1.0, 0.5])


def test_minmax_constant_column_warns_and_centers():
    table = np.asarray([[0.0, 3.0], [1.0, 3.0]])
    with pytest.warns(RuntimeWarning, match="constant"):
        out = minmax_normalize_columns(table)
    assert np.allclose(out[:, 1], 0.5)
    assert np.allclose(out[:, 0], [0.0, 1.0])


def test_zero_shot_after_brief_training():
    corpus = tiny_corpus(documents=300, noise_sigma=0.02)
    config = TrainConfig(
        model=ModelConfig(region_input_dim=6, sentence_input_dim=6,
                          hidden_dim=8, embed_dim=5),
        local_agg=LocalAggregatorSpec(kind="LSE", gamma=0.1),
        batch_size=16, sentences_per_bag=2, epochs=3, warmup_steps=5,
        peak_lr=0.02, seed=0)
    trained = train(corpus.documents, config)
    params = unflatten_params(config.model, trained.params_flat)

    singles = single_concept_documents(corpus.documents)
    prompts = prompt_bank(corpus.bank)
    result = zero_shot_classify(params, LocalAggregatorSpec(kind="Max"),
                                prompts, singles)
    assert result.raw_scores.shape == (len(singles), 4)
    assert result.probabilities.shape == (len(singles), 4)
    assert np.allclose(result.probabilities.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(result.probabilities, _textbook_softmax(
        minmax_normalize_columns(result.raw_scores)))
    assert result.predictions.shape == (len(singles),)
    assert result.accuracy > 0.9
    with pytest.raises(ContractError):
        zero_shot_classify(params, LocalAggregatorSpec(kind="Max"),
                           prompts, [])


def test_zero_shot_table_matches_per_document_composition():
    corpus = tiny_corpus(documents=12)
    _, params = tiny_params()
    prompts = prompt_bank(corpus.bank)
    prompt_feats = encode_sentences(params, prompt_matrix(prompts))
    for kind in LOCAL_KINDS:
        spec = LocalAggregatorSpec(kind=kind,
                                   gamma=0.5 if kind == "LSE" else None)
        table = zero_shot_score_table(params, spec, prompts, corpus.documents)
        assert table.shape == (12, 4)
        for row, doc in zip(table, corpus.documents):
            regions = encode_regions(params, doc.region_observations)
            want = [oracles.local(spec, [oracles.cos(x, p) for x in regions])
                    for p in prompt_feats]
            assert np.max(np.abs(row - want)) <= 1e-12, kind


# ---------------------------------------------------------------------------
# probe


def test_rank_auc_frozen_values():
    assert rank_auc([0.9, 0.8, 0.1, 0.4], [True, True, False, False]) == 1.0
    assert rank_auc([0.1, 0.9], [True, False]) == 0.0
    # tie between one positive and one negative counts half
    assert rank_auc([0.5, 0.5, 0.2], [True, False, False]) == 0.75
    with pytest.raises(ContractError):
        rank_auc([0.5, 0.6], [True, True])


def test_rank_auc_matches_pair_counting():
    # exact: average ranks are half-integers, so the rank sum is the
    # pair count plus n_pos (n_pos + 1) / 2 with no rounding
    rng = np.random.default_rng(0)
    for levels in (None, 3, 6):  # distinct scores, then heavy ties
        for _ in range(30):
            scores = rng.standard_normal(40)
            if levels is not None:
                scores = np.round(scores * levels / 2) / levels
            labels = rng.integers(0, 2, size=40).astype(bool)
            if labels.all() or not labels.any():
                continue
            assert rank_auc(scores, labels) == \
                oracles.mann_whitney_auc(scores.tolist(), labels.tolist())


def test_average_ranks_split_ties_evenly():
    assert evaluation.average_ranks([3.0, 1.0, 3.0, 2.0, 3.0]).tolist() == \
        [4.0, 1.0, 4.0, 2.0, 4.0]
    assert evaluation.average_ranks([0.5, 0.5]).tolist() == [1.5, 1.5]


def _textbook_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_probe_softmax_is_the_textbook_expression_bit_for_bit():
    rng = np.random.default_rng(4)
    x_tr, x_te = rng.standard_normal((30, 5)), rng.standard_normal((20, 5))
    y_tr, y_te = rng.integers(0, 3, size=30), rng.integers(0, 3, size=20)
    y_tr[:3] = y_te[:3] = [0, 1, 2]
    result = linear_probe(x_tr, y_tr, x_te, y_te, iterations=40, lr=0.5)
    weights, bias = np.zeros((3, 5)), np.zeros(3)
    onehot = np.eye(3)[y_tr]
    for _ in range(40):
        delta = (_textbook_softmax(x_tr @ weights.T + bias) - onehot) / 30
        weights -= 0.5 * (delta.T @ x_tr)
        bias -= 0.5 * delta.sum(axis=0)
    assert np.array_equal(result.weights, weights)
    assert np.array_equal(result.bias, bias)
    probs = _textbook_softmax(x_te @ weights.T + bias)
    assert result.auc == np.mean([
        oracles.mann_whitney_auc(probs[:, c].tolist(), (y_te == c).tolist())
        for c in range(3)])


def test_linear_probe_separates_clean_clusters():
    rng = np.random.default_rng(1)
    centers = np.asarray([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
    x_tr = np.concatenate([c + 0.1 * rng.standard_normal((30, 2))
                           for c in centers])
    y_tr = np.repeat([0, 1, 2], 30)
    x_te = np.concatenate([c + 0.1 * rng.standard_normal((10, 2))
                           for c in centers])
    y_te = np.repeat([0, 1, 2], 10)
    result = linear_probe(x_tr, y_tr, x_te, y_te)
    assert result.accuracy == 1.0
    assert result.auc == 1.0
    assert result.weights.shape == (3, 2)


def test_linear_probe_is_deterministic():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 3))
    y = rng.integers(0, 2, size=40)
    y[:2] = [0, 1]
    a = linear_probe(x, y, x, y)
    b = linear_probe(x, y, x, y)
    assert np.array_equal(a.weights, b.weights)
    assert a.auc == b.auc


def test_linear_probe_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ContractError, match="two classes"):
        linear_probe(x, [0, 0, 0, 0], x, [0, 0, 0, 0])
    with pytest.raises(ContractError, match="out of range"):
        linear_probe(x, [0, 1, 0, 5], x, [0, 1, 0, 1], num_classes=2)
    with pytest.raises(ContractError):
        linear_probe(np.zeros((4, 2)), [0, 1, 0, 1], np.zeros((4, 3)),
                     [0, 1, 0, 1])


def test_linear_probe_stack_matches_each_set_fitted_alone():
    rng = np.random.default_rng(5)
    x_tr, x_te = rng.standard_normal((3, 50, 4)), rng.standard_normal((3, 30, 4))
    y_tr, y_te = rng.integers(0, 4, size=50), rng.integers(0, 4, size=30)
    y_tr[:4] = y_te[:4] = [0, 1, 2, 3]
    stacked = linear_probe_stack(x_tr, y_tr, x_te, y_te, iterations=60)
    assert len(stacked) == 3
    for r, got in enumerate(stacked):
        alone = linear_probe(x_tr[r], y_tr, x_te[r], y_te, iterations=60)
        assert np.array_equal(got.weights, alone.weights)
        assert np.array_equal(got.bias, alone.bias)
        assert got.accuracy == alone.accuracy
        assert got.auc == alone.auc


@pytest.mark.parametrize("sets", [1, 3])
@pytest.mark.parametrize("classes", [2, 5, 8, 13])
def test_linear_probe_stack_is_the_plain_descent_bit_for_bit(sets, classes):
    # features of scale 40 give logits far beyond exp's range unless the
    # class max is shifted out; the zero start ties every logit at first
    rng = np.random.default_rng(100 + 10 * sets + classes)
    n, m, dim = 9 * classes, 4 * classes, 6
    x_tr = 40.0 * rng.standard_normal((sets, n, dim))
    x_te = 40.0 * rng.standard_normal((sets, m, dim))
    y_tr, y_te = rng.integers(0, classes, n), rng.integers(0, classes, m)
    y_tr[:classes] = y_te[:classes] = np.arange(classes)
    got = linear_probe_stack(x_tr, y_tr, x_te, y_te, iterations=80, lr=0.3)
    weights, bias = oracles.linear_probe_descent(x_tr, y_tr, classes, 80, 0.3)
    for r, probe in enumerate(got):
        assert np.array_equal(probe.weights, weights[r])
        assert np.array_equal(probe.bias, bias[r])


def test_linear_probe_stack_validation():
    x = np.zeros((2, 4, 3))
    with pytest.raises(ContractError, match="3-D"):
        linear_probe_stack(x[0], [0, 1, 0, 1], x[0], [0, 1, 0, 1])
    with pytest.raises(ContractError, match="3-D"):
        linear_probe_stack(x, [0, 1, 0, 1], x[:1], [0, 1, 0, 1])
    with pytest.raises(ContractError, match="align"):
        linear_probe_stack(x, [0, 1, 0], x, [0, 1, 0, 1])


def test_probe_class_count_covers_both_splits():
    # this corpus's test split holds a single-concept document of a
    # concept that no single-concept training document has
    corpus = generate_corpus(CorpusSpec(documents=60, seed=3))
    train_part, test_part = split_corpus(corpus, corpus.spec.train_fraction,
                                         corpus.spec.seed)
    _, _, y_tr, y_te, classes = probe_sets(train_part.documents,
                                           test_part.documents)
    assert y_te.max() > y_tr.max()
    assert classes == 1 + y_te.max()
    config = ModelConfig(region_input_dim=corpus.spec.region_dim,
                         sentence_input_dim=corpus.spec.sentence_dim,
                         hidden_dim=8, embed_dim=5)
    params = unflatten_params(config, init_model(config, 14.0, 0))
    result = probe_eval(params, train_part.documents, test_part.documents)
    assert result.weights.shape[0] == classes
    assert 0.0 <= result.auc <= 1.0


def test_probe_class_count_is_unchanged_when_training_holds_the_top_label():
    corpus = tiny_corpus(documents=80)
    train_part, test_part = split_corpus(corpus, 0.6, seed=0)
    probe_train, probe_test, y_tr, y_te, classes = probe_sets(
        train_part.documents, test_part.documents)
    assert classes == 1 + y_tr.max()
    _, params = tiny_params()
    got = probe_eval(params, train_part.documents, test_part.documents)
    want = linear_probe(pooled_image_features(params, probe_train), y_tr,
                        pooled_image_features(params, probe_test), y_te)
    assert np.array_equal(got.weights, want.weights)
    assert got.auc == want.auc


# ---------------------------------------------------------------------------
# grounding


def test_grounding_case_validation():
    obs = np.zeros((4, 3))
    sent = np.zeros(3)
    GroundingCase(1, 0, obs, sent, (0, 2))
    with pytest.raises(ContractError, match="non-empty"):
        GroundingCase(1, 0, obs, sent, ())
    with pytest.raises(ContractError, match="duplicate"):
        GroundingCase(1, 0, obs, sent, (1, 1))
    with pytest.raises(ContractError, match="out of range"):
        GroundingCase(1, 0, obs, sent, (0, 4))
    with pytest.raises(ContractError, match="proper subset"):
        GroundingCase(1, 0, obs, sent, (0, 1, 2, 3))


def test_documents_and_cases_are_slotted_records():
    # an evaluation holds thousands of each, so neither keeps a dict
    doc = tiny_corpus(documents=2).documents[0]
    case = grounding_cases([doc])[0]
    for record in (doc, case):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "not a field"


def test_grounding_cases_expand_documents():
    corpus = tiny_corpus(documents=40)
    cases = grounding_cases(corpus.documents)
    assert len(cases) == sum(len(d.boxes) for d in corpus.documents)
    for case in cases:
        doc = corpus.documents[case.image_id]
        assert case.box == doc.boxes[case.sentence_index]


def test_retrieval_cases_are_the_first_grounding_cases(monkeypatch):
    documents = tiny_corpus(documents=6).documents
    everything = grounding_cases(documents)
    ends = np.cumsum([len(doc.boxes) for doc in documents])
    # a limit inside the sentences of a document with two cases, one on a
    # document boundary and one past the last case
    inside = next(end - 1 for end, doc in zip(ends, documents)
                  if len(doc.boxes) == 2)
    limits = (None, 2, inside, int(ends[2]), len(everything) + 5)
    built = []

    class Counted(GroundingCase):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(evaluation, "GroundingCase", Counted)
    for limit in limits:
        built.clear()
        got = retrieval_cases(documents, limit)
        want = everything[:limit]
        assert len(built) == len(want)  # no case is built past the limit
        assert [(c.image_id, c.sentence_index, c.box) for c in got] == \
            [(c.image_id, c.sentence_index, c.box) for c in want]
        for a, b in zip(got, want, strict=True):
            assert a.region_observations is b.region_observations
            assert np.array_equal(a.sentence_observation,
                                  b.sentence_observation)


def test_iou_threshold_grid_is_frozen():
    assert IOU_THRESHOLDS.size == 41
    assert IOU_THRESHOLDS[0] == -1.0
    assert IOU_THRESHOLDS[-1] == 1.0
    assert np.allclose(np.diff(IOU_THRESHOLDS), 0.05)


def one_map(metric, scores, box):
    """A per-row grounding metric of one score map against one box."""
    scores = np.asarray(scores, dtype=np.float64)
    return metric(scores[None], box_masks(scores.size, [box]))[0]


def test_cnr_frozen_oracle():
    # inside {1.0, 0.8}, outside {0.2, 0.0}:
    # |0.9 - 0.1| / sqrt(0.01 + 0.01 + 1e-8)
    score_map = np.asarray([1.0, 0.8, 0.2, 0.0])
    got = one_map(cnr_rows, score_map, (0, 1))
    assert abs(got - 5.656852835279349) < 1e-12


def test_cnr_zero_variance_stays_finite():
    score_map = np.asarray([0.7, 0.7, 0.1, 0.1])
    got = one_map(cnr_rows, score_map, (0, 1))
    assert abs(got - 0.6 / math.sqrt(1e-8)) < 1e-6


def test_cnr_box_must_not_cover_everything():
    with pytest.raises(ContractError, match="every region"):
        one_map(cnr_rows, np.asarray([1.0, 0.5]), (0, 1))
    with pytest.raises(ContractError):
        one_map(cnr_rows, np.asarray([1.0, 0.5]), ())


def test_miou_frozen_oracle():
    # scores [1, 0] with box {0}: 21 thresholds at or below 0 predict both
    # regions (IoU 1/2), the 20 above predict only region 0 (IoU 1)
    got = one_map(miou_rows, np.asarray([1.0, 0.0]), (0,))
    assert abs(got - 30.5 / 41.0) < 1e-15


def test_miou_matches_naive_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        scores = rng.uniform(-1, 1, size=6)
        box = tuple(sorted(rng.choice(6, size=2, replace=False).tolist()))
        mask = np.zeros(6, dtype=bool)
        mask[list(box)] = True
        total = 0.0
        for t in IOU_THRESHOLDS:
            pred = scores >= t
            union = np.logical_or(pred, mask).sum()
            inter = np.logical_and(pred, mask).sum()
            total += inter / union if union else 0.0
        assert abs(one_map(miou_rows, scores, box) - total / 41.0) < 1e-12


def test_miou_on_the_threshold_grid_matches_naive_loop():
    # every score an exact multiple of 0.05, made both the way the grid is
    # and as k * 0.05 (an ulp off for some k); -1 and 1 in every map but
    # every 7th, which is constant on a threshold; boxes of every size
    # from 1 to N - 1
    rng = np.random.default_rng(8)
    n = 8
    steps = rng.integers(-20, 21, size=(70, n))
    maps = np.where(rng.random((70, n)) < 0.5, steps * 5 / 100.0, steps * 0.05)
    maps[:, 0], maps[:, 1] = -1.0, 1.0
    maps[::7] = IOU_THRESHOLDS[rng.integers(0, 41)]
    boxes = [tuple(rng.permutation(n)[:1 + c % (n - 1)]) for c in range(70)]
    got = miou_rows(maps, box_masks(n, boxes))
    for scores, box, value in zip(maps, boxes, got):
        mask = np.isin(np.arange(n), box)
        total = 0.0
        for t in IOU_THRESHOLDS:
            pred = scores >= t
            total += (np.logical_and(pred, mask).sum()
                      / np.logical_or(pred, mask).sum())
        assert value == total / 41.0


def test_cnr_uses_population_variance():
    # inside {0.3}: mean 0.3, variance 0; outside {1.0, 0.8}: mean 0.9 and
    # variance 0.01, the squared deviations divided by n = 2, not n - 1
    got = one_map(cnr_rows, np.asarray([0.3, 1.0, 0.8]), (0,))
    assert abs(got - 0.6 / math.sqrt(0.01 + 1e-8)) < 1e-12


def test_grounding_hit_is_argmax_membership():
    assert one_map(hit_rows, np.asarray([0.9, 0.1, 0.5]), (0, 2))
    assert not one_map(hit_rows, np.asarray([0.1, 0.9, 0.5]), (0, 2))
    # ties resolve to the first index
    assert one_map(hit_rows, np.asarray([0.9, 0.9, 0.1]), (0,))


def test_grounding_score_map_is_raw_cosine():
    corpus = tiny_corpus()
    _, params = tiny_params()
    case = grounding_cases(corpus.documents)[0]
    smap = grounding_score_maps(params, [case])[0]
    assert smap.shape == (8,)
    assert np.all(smap >= -1.0) and np.all(smap <= 1.0)
    feats = encode_regions(params, case.region_observations)
    sent = encode_sentences(params, case.sentence_observation[None, :])[0]
    assert np.allclose(smap, [oracles.cos(f, sent) for f in feats], atol=1e-12)


def test_evaluate_grounding_aggregates():
    corpus = tiny_corpus(documents=30)
    _, params = tiny_params()
    cases = grounding_cases(corpus.documents)
    summary = evaluate_grounding(params, cases)
    assert summary.per_case_cnr.shape == (len(cases),)
    assert summary.mean_cnr == pytest.approx(summary.per_case_cnr.mean())
    assert summary.mean_miou == pytest.approx(summary.per_case_miou.mean())
    assert summary.hit_rate == pytest.approx(summary.per_case_hit.mean())
    assert 0.0 <= summary.hit_rate <= 1.0
    with pytest.raises(ContractError):
        evaluate_grounding(params, [])


def test_grounding_metrics_match_straight_line_oracle(monkeypatch):
    # one batch with boxes of 2, 3 and 4 regions, scores lying exactly on
    # thresholds, and exact ties for the maximum inside and outside boxes
    rng = np.random.default_rng(11)
    n = 6
    maps = np.vstack([
        [-1.0, -0.5, 0.25, 1.0, 0.3, -0.2],
        [1.0, 0.25, 1.0, -0.5, -1.0, 0.25],  # first maximum outside the box
        [0.25, -0.5, 0.9, -1.0, 0.1, 0.9],   # first maximum inside the box
        np.round(rng.uniform(-1.0, 1.0, (27, n)) * 20) / 20,  # on the grid
        rng.uniform(-1.0, 1.0, (10, n)),
    ])
    boxes = [(0, 3), (2, 4, 5), (1, 2, 3, 5)]
    boxes += [tuple(sorted(rng.choice(n, size=2 + c % 3, replace=False)))
              for c in range(maps.shape[0] - 3)]
    cases = [GroundingCase(c, 0, np.zeros((n, 3)), np.zeros(3), box)
             for c, box in enumerate(boxes)]
    monkeypatch.setattr(evaluation, "grounding_score_maps",
                        lambda params, got: maps)
    summary = evaluate_grounding(None, cases)
    assert not summary.per_case_hit[1] and summary.per_case_hit[2]
    for c, box in enumerate(boxes):
        want_cnr, want_miou, want_hit = oracles.grounding(
            maps[c], box, IOU_THRESHOLDS, VARIANCE_GUARD)
        assert summary.per_case_cnr[c] == pytest.approx(want_cnr, rel=1e-12)
        assert summary.per_case_miou[c] == want_miou
        assert summary.per_case_hit[c] == want_hit
        assert one_map(miou_rows, maps[c], box) == want_miou
        assert one_map(hit_rows, maps[c], box) == want_hit


def test_ragged_cases_are_refused(tmp_path):
    corpus = tiny_corpus(documents=6)
    _, params = tiny_params()
    cases = grounding_cases(corpus.documents)
    odd, short = cases[3], cases[5]
    small_bag = cases[:3] + [GroundingCase(
        odd.image_id, odd.sentence_index, odd.region_observations[:6],
        odd.sentence_observation, (0, 1))] + cases[4:]
    short_sentence = cases[:5] + [GroundingCase(
        short.image_id, short.sentence_index, short.region_observations,
        short.sentence_observation[:4], short.box)]
    runs = (lambda c: evaluate_grounding(params, c),
            lambda c: retrieval_eval(params, c),
            lambda c: export_score_maps(tmp_path / "maps.json", params, c))
    for run in runs:
        with pytest.raises(ContractError,
                           match=rf"region bag of case 3 \(image {odd.image_id}, "
                                 rf"sentence {odd.sentence_index}\) has shape "
                                 r"\(6, 6\), but region bag of case 0 .* "
                                 r"has shape \(8, 6\)"):
            run(small_bag)
        with pytest.raises(ContractError,
                           match=r"sentence of case 5 .* has shape \(4,\)"):
            run(short_sentence)


def test_export_score_maps(tmp_path):
    corpus = tiny_corpus(documents=5)
    _, params = tiny_params()
    cases = grounding_cases(corpus.documents)[:4]
    path = tmp_path / "maps.json"
    export_score_maps(path, params, cases)
    import json
    payload = json.loads(path.read_text())
    assert payload["kind"] == "score-maps"
    assert len(payload["maps"]) == 4
    first = payload["maps"][0]
    assert np.allclose(first["scores"],
                       grounding_score_maps(params, [cases[0]])[0], atol=1e-15)


def test_grounding_maps_do_not_depend_on_the_block_size(monkeypatch):
    corpus = tiny_corpus(documents=40)
    _, params = tiny_params(seed=4)
    cases = grounding_cases(corpus.documents)
    whole = grounding_score_maps(params, cases)
    assert len(cases) % 7  # so blocks of 7 leave a short last block
    for block in (1, 7):
        monkeypatch.setattr(evaluation, "GROUNDING_BLOCK_CASES", block)
        assert np.array_equal(grounding_score_maps(params, cases), whole)


def test_grounding_metrics_do_not_depend_on_the_block_size(monkeypatch):
    # the metrics of every case at once, as whole-array expressions, against
    # evaluate_grounding's block-by-block arrays
    corpus = tiny_corpus(documents=40)
    _, params = tiny_params(seed=4)
    cases = grounding_cases(corpus.documents)
    maps = grounding_score_maps(params, cases)
    masks = box_masks(maps.shape[1], [case.box for case in cases])
    want = (cnr_rows(maps, masks), miou_rows(maps, masks),
            hit_rows(maps, masks))
    assert len(cases) % 7
    for block in (1, 7, len(cases) + 5):
        monkeypatch.setattr(evaluation, "GROUNDING_BLOCK_CASES", block)
        summary = evaluate_grounding(params, cases)
        got = (summary.per_case_cnr, summary.per_case_miou,
               summary.per_case_hit)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert summary.mean_cnr == float(want[0].mean())
        assert summary.mean_miou == float(want[1].mean())
        assert summary.hit_rate == float(want[2].mean())


# ---------------------------------------------------------------------------
# retrieval


def test_rank_of_match_tie_breaking():
    # row 1's match ties with a lower-index candidate, which wins the tie
    table = np.asarray([
        [0.9, 0.5, 0.1],
        [0.7, 0.7, 0.2],
        [0.8, 0.9, 0.3],
    ])
    ranks = rank_of_match(table)
    assert ranks.tolist() == [1, 2, 3]
    with pytest.raises(ContractError):
        rank_of_match(np.ones((2, 3)))


def test_rank_of_match_perfect_diagonal():
    table = np.eye(4)
    assert rank_of_match(table).tolist() == [1, 1, 1, 1]


def test_rank_of_match_matches_double_loop_across_blocks(monkeypatch):
    monkeypatch.setattr(evaluation, "RANK_BLOCK_ROWS", 8)
    rng = np.random.default_rng(12)
    q = 30
    # nine score levels: exact ties everywhere, in both directions
    table = np.round(rng.uniform(-1.0, 1.0, (q, q)) * 4) / 4
    # rows 7 and 8 sit on either side of the first block boundary; each
    # ties its own entry with a candidate before it and one after it
    table[7, [3, 8]] = table[7, 7]
    table[8, [7, 20]] = table[8, 8]
    for t in (table, table.T):
        assert rank_of_match(t).tolist() == oracles.match_ranks(t.tolist())


@pytest.mark.parametrize("ties", [False, True])
def test_blocked_cosine_ranks_match_the_full_table(monkeypatch, ties):
    # q = 30 is not a multiple of the block size
    monkeypatch.setattr(evaluation, "RANK_BLOCK_ROWS", 8)
    rng = np.random.default_rng(21)
    q, dim = 30, 8
    if ties:
        # four entries of +-1 per row: every unit entry is +-0.5, so every
        # cosine is an exact multiple of 0.25 and ties are everywhere
        signs = rng.choice([-1.0, 1.0], size=(2 * q, dim))
        keep = np.argsort(rng.random((2 * q, dim)), axis=1) < 4
        feats = signs * keep
    else:
        feats = rng.standard_normal((2 * q, dim))
    boxes, sentences = feats[:q], feats[q:]
    table = np.array([[oracles.cos(b, s) for s in sentences] for b in boxes])
    assert evaluation.cosine_match_ranks(boxes, sentences).tolist() == \
        oracles.match_ranks(table.tolist())
    assert evaluation.cosine_match_ranks(sentences, boxes).tolist() == \
        oracles.match_ranks(table.T.tolist())
    with pytest.raises(ContractError):
        evaluation.cosine_match_ranks(boxes, sentences[:-1])


@pytest.mark.parametrize("block_rows", [1, 3])
def test_ranks_with_ties_match_double_loop_at_any_block_size(monkeypatch,
                                                             block_rows):
    monkeypatch.setattr(evaluation, "RANK_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(30 + block_rows)
    q = 11
    table = np.round(rng.uniform(-1.0, 1.0, (q, q)) * 2) / 2
    table[4] = table[3]        # duplicate rows, across a block edge at 3
    table[:, 6] = table[:, 5]  # duplicate columns, across one at 1 and 3
    table[2, [1, 3]] = table[2, 2]  # own entry tied before and after
    table[9, [8, 10]] = table[9, 9]
    for t in (table, table.T, np.full((q, q), 0.25)):
        assert rank_of_match(t).tolist() == oracles.match_ranks(t.tolist())
    assert rank_of_match(np.full((q, q), 0.25)).tolist() == list(range(1, q + 1))


def test_cosine_ranks_hold_one_rank_block_at_a_time():
    # each (RANK_BLOCK_ROWS, q) block is freed before the next is built;
    # beside it the call holds both sides' (q, 16) unit rows
    rng = np.random.default_rng(5)
    q = 3000
    boxes, sentences = rng.standard_normal((2, q, 16))
    block = evaluation.RANK_BLOCK_ROWS * q * 8
    unit_copies = boxes.nbytes + sentences.nbytes
    _, _, peak = traced_call(evaluation.cosine_match_ranks, boxes, sentences)
    assert peak < 1.5 * (block + unit_copies)


@pytest.mark.parametrize("q", [33, 1003, 3003])
def test_cosine_ranks_come_from_full_height_products(monkeypatch, q):
    # a lone last row would be a matrix-vector product, and for q >= 193
    # that is not a multiple of 8 the last q mod 8 columns round by the
    # block's height (at q = 1,003 an 11-row last block would differ), so
    # each block, the last one too, must be a product of RANK_BLOCK_ROWS
    # rows that starts at a multiple of RANK_BLOCK_ROWS
    rng = np.random.default_rng(q)
    boxes, sentences = rng.standard_normal((2, q, 16))
    rows = evaluation.RANK_BLOCK_ROWS
    unit_boxes = evaluation.unit_rows(boxes).value
    unit_sentences = evaluation.unit_rows(sentences).value
    padded = np.zeros((-(-q // rows) * rows, 16))
    padded[:q] = unit_boxes
    table = np.empty((len(padded), q))
    for start in range(0, len(padded), rows):
        table[start:start + rows] = padded[start:start + rows] @ unit_sentences.T
    table = np.clip(table[:q], -1.0, 1.0, out=table[:q])
    own_ranks = evaluation._own_ranks
    starts = []

    def checked(block, start):
        assert np.array_equal(block, table[start:start + len(block)]), start
        starts.append(start)
        return own_ranks(block, start)

    monkeypatch.setattr(evaluation, "_own_ranks", checked)
    ranks = evaluation.cosine_match_ranks(boxes, sentences)
    assert starts == list(range(0, q, rows))
    assert np.array_equal(ranks, rank_of_match(table))


def test_lower_median_convention():
    assert lower_median([4, 1, 3, 2]) == 2.0
    assert lower_median([5]) == 5.0
    assert lower_median([1, 2, 3]) == 2.0
    with pytest.raises(ContractError):
        lower_median([])


def test_scaled_k_values():
    assert scaled_k_values(200) == (1, 10, 20)
    assert scaled_k_values(100) == (1, 5, 10)
    assert scaled_k_values(7) == (1,)      # ceil(7/20) = ceil(7/10) = 1
    assert scaled_k_values(25) == (1, 2, 3)


def test_retrieval_features_rejects_duplicates():
    corpus = tiny_corpus(documents=10)
    _, params = tiny_params()
    cases = grounding_cases(corpus.documents)
    with pytest.raises(ContractError, match="duplicate"):
        retrieval_features(params, [cases[0], cases[0]])
    with pytest.raises(ContractError):
        retrieval_features(params, cases[:1])


def test_retrieval_box_feature_is_box_mean():
    corpus = tiny_corpus(documents=10)
    _, params = tiny_params()
    cases = grounding_cases(corpus.documents)[:5]
    box_feats, sent_feats = retrieval_features(params, cases)
    assert box_feats.shape == (5, 5)
    assert sent_feats.shape == (5, 5)
    feats = encode_regions(params, cases[2].region_observations)
    want = feats[list(cases[2].box)].mean(axis=0)
    assert np.allclose(box_feats[2], want, atol=1e-12)


def test_retrieval_features_do_not_depend_on_the_block_size(monkeypatch):
    corpus = tiny_corpus(documents=40)
    _, params = tiny_params(seed=4)
    cases = retrieval_cases(corpus.documents)
    boxes, sentences = retrieval_features(params, cases)
    assert len(cases) % 7  # so blocks of 7 leave a short last block
    for block in (1, 7):
        monkeypatch.setattr(evaluation, "GROUNDING_BLOCK_CASES", block)
        got_boxes, got_sentences = retrieval_features(params, cases)
        assert np.array_equal(got_boxes, boxes)
        assert np.array_equal(got_sentences, sentences)


def test_retrieval_eval_on_clean_corpus_ranks_matches_high():
    corpus = tiny_corpus(documents=120, noise_sigma=0.02)
    _, params = tiny_params(seed=2)
    cases = retrieval_cases(corpus.documents, 60)
    assert len(cases) == 60
    result = retrieval_eval(params, cases)
    assert result.count == 60
    assert result.k_values == (1, 3, 6)
    assert result.box_to_sentence_ranks.shape == (60,)
    # recall grows with k and the median beats the chance value of Q/2
    b2s = result.box_to_sentence_recall
    assert b2s[1] <= b2s[3] <= b2s[6]
    assert result.box_to_sentence_medr < 30
    assert result.sentence_to_box_medr < 30


def test_encode_calls_do_not_depend_on_case_count(monkeypatch, tmp_path):
    corpus = tiny_corpus(documents=200)
    _, params = tiny_params()
    singles = single_concept_documents(corpus.documents)
    prompts = prompt_bank(corpus.bank)
    calls = []
    encode_bag = evaluation.encode_bag

    def counted(*args):
        calls.append(args)
        return encode_bag(*args)

    monkeypatch.setattr(evaluation, "encode_bag", counted)
    counts = []
    for n in (10, 40):
        docs = corpus.documents[:n]
        cases = grounding_cases(docs)
        calls.clear()
        zero_shot_classify(params, LocalAggregatorSpec(kind="Max"), prompts,
                           singles[:n])
        pooled_image_features(params, docs)
        evaluate_grounding(params, cases)
        retrieval_eval(params, cases)
        export_score_maps(tmp_path / "maps.json", params, cases)
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# a block of bags at a time


def shuffled_streaming_inputs(seed=0):
    """(params, documents, cases, prompts) of the block-size tests: 40
    documents and their grounding cases, both shuffled, so that the
    cases' bag rows are not monotone, with one case dropped, so that some
    document has a lone case and a block of one bag can hold one
    sentence."""
    corpus = tiny_corpus(documents=40, seed=seed)
    _, params = tiny_params(seed=4)
    rng = np.random.default_rng(seed)
    documents = [corpus.documents[i] for i in rng.permutation(40)]
    cases = grounding_cases(corpus.documents)[1:]
    cases = [cases[i] for i in rng.permutation(len(cases))]
    return params, documents, cases, prompt_bank(corpus.bank)


STREAMED_TASKS = {
    "grounding maps":
        lambda params, docs, cases, prompts: [
            grounding_score_maps(params, cases)],
    "retrieval features":
        lambda params, docs, cases, prompts: list(
            retrieval_features(params, cases)),
    "pooled features":
        lambda params, docs, cases, prompts: [
            pooled_image_features(params, docs)],
    "zero-shot table":
        lambda params, docs, cases, prompts: [
            zero_shot_score_table(
                params, LocalAggregatorSpec(kind=kind,
                                            gamma=0.5 if kind == "LSE" else None),
                prompts, docs) for kind in LOCAL_KINDS],
}


@pytest.mark.parametrize("task", STREAMED_TASKS)
def test_streamed_tasks_do_not_depend_on_the_bag_block_size(monkeypatch, task):
    inputs = shuffled_streaming_inputs()
    whole = STREAMED_TASKS[task](*inputs)
    bags = len(inputs[1])
    assert bags < evaluation.EVAL_BLOCK_BAGS  # the default is one block
    assert bags % 7  # so blocks of 7 leave a short last block
    for block in (1, 7, bags + 1):
        monkeypatch.setattr(evaluation, "EVAL_BLOCK_BAGS", block)
        got = STREAMED_TASKS[task](*inputs)
        assert all(np.array_equal(a, b) for a, b in zip(got, whole,
                                                         strict=True))


def test_a_lone_row_is_encoded_to_the_bits_of_a_larger_call():
    _, params = tiny_params(seed=3)
    rows = np.random.default_rng(8).normal(size=(9, 6))
    for encode in (encode_regions, encode_sentences):
        whole = encode(params, rows)
        for i in range(9):
            assert np.array_equal(encode(params, rows[i:i + 1]),
                                  whole[i:i + 1])
        assert np.array_equal(encode(params, rows[None, 4:5]),
                              whole[None, 4:5])


def test_each_block_of_bags_is_one_encoder_call(monkeypatch):
    params, documents, cases, prompts = shuffled_streaming_inputs()
    calls = []
    encode_bag = evaluation.encode_bag

    def counted(encoder, observations):
        calls.append(encoder is params.region_encoder)
        return encode_bag(encoder, observations)

    monkeypatch.setattr(evaluation, "encode_bag", counted)
    monkeypatch.setattr(evaluation, "EVAL_BLOCK_BAGS", 7)
    blocks = -(-len(documents) // 7)
    runs = {  # (region calls, sentence calls) of each task
        "grounding maps": (blocks, blocks),
        "retrieval features": (blocks, 1),
        "pooled features": (blocks, 0),
        "zero-shot table": (blocks * len(LOCAL_KINDS), len(LOCAL_KINDS)),
    }
    for task, (regions, sentences) in runs.items():
        calls.clear()
        STREAMED_TASKS[task](params, documents, cases, prompts)
        assert (calls.count(True), calls.count(False)) == \
            (regions, sentences), task


def test_each_task_peaks_at_one_block_of_bags_and_its_outputs():
    # the encoder sees EVAL_BLOCK_BAGS bags at a time, so no temporary spans
    # the split's encoded regions (11.7 MiB of hidden rows here): a task's
    # traced peak stays below a few hidden-layer temporaries of one block
    # plus two copies of its per-case outputs
    spec = CorpusSpec(documents=3000)
    corpus = generate_corpus(spec)
    config = ModelConfig(region_input_dim=spec.region_dim,
                         sentence_input_dim=spec.sentence_dim,
                         hidden_dim=32, embed_dim=16)
    params = unflatten_params(config, init_model(config, 14.0, 0))
    documents = corpus.documents
    cases = grounding_cases(documents)
    block = (evaluation.EVAL_BLOCK_BAGS * spec.regions_per_image
             * config.hidden_dim * 8)
    lse = LocalAggregatorSpec(kind="LSE", gamma=0.1)
    runs = {
        "grounding maps": lambda: grounding_score_maps(params, cases),
        "retrieval features":
            lambda: retrieval_features(params, cases[:3000]),
        "pooled features": lambda: pooled_image_features(params, documents),
        "zero-shot table": lambda: zero_shot_score_table(
            params, lse, prompt_bank(corpus.bank), documents),
    }
    for task, run in runs.items():
        outputs, _, peak = traced_call(run)
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        assert peak < 4 * block + 2 * sum(a.nbytes for a in outputs), task


# ---------------------------------------------------------------------------
# ablation grid


def test_default_grid_shape():
    grid = default_grid()
    names = [e.name for e in grid]
    assert names == ["Max", "Avg", "LSE", "NOR", "NAND", "g-Avg", "g-Att",
                     "g-NL", "LSE+Avg", "LSE+Att", "LSE+NL"]
    locals_only = [e for e in grid if e.local_agg and not e.global_agg]
    globals_only = [e for e in grid if e.global_agg and not e.local_agg]
    combined = [e for e in grid if e.local_agg and e.global_agg]
    assert (len(locals_only), len(globals_only), len(combined)) == (5, 3, 3)
    lse_entries = [e for e in grid if e.local_agg
                   and e.local_agg.kind == "LSE"]
    assert all(e.local_agg.gamma == 0.1 for e in lse_entries)
    nl_entries = [e for e in grid if e.global_agg
                  and e.global_agg.kind == "NL"]
    assert all(e.global_agg.gamma == math.e for e in nl_entries)


def test_ablation_grid_runs_and_reports_failures():
    corpus = tiny_corpus(documents=80)
    train_part, test_part = split_corpus(corpus, 0.6, seed=0)
    base = TrainConfig(
        model=ModelConfig(region_input_dim=6, sentence_input_dim=6,
                          hidden_dim=8, embed_dim=5),
        local_agg=LocalAggregatorSpec(kind="Avg"),
        batch_size=8, sentences_per_bag=2, epochs=1, warmup_steps=2, seed=0)
    grid = [GridEntry("Avg", local_agg=LocalAggregatorSpec(kind="Avg")),
            GridEntry("g-NL",
                      global_agg=GlobalAggregatorSpec(kind="NL", gamma=2.0))]
    rows = ablation_grid(train_part.documents, test_part.documents, grid,
                         base, seed=0, retrieval_limit=30)
    assert [r.name for r in rows] == ["Avg", "g-NL"]
    for r in rows:
        assert r.trained
        assert 0.0 <= r.probe_auc <= 1.0
        assert r.mean_cnr >= 0.0
        assert r.retrieval_medr >= 1.0

    # a poisoned corpus fails that row without aborting the others
    bad = SyntheticDocument(
        image_id=10_000,
        region_observations=np.full((8, 6), np.nan),
        region_concepts=[None] * 8,
        sentence_observations=np.ones((1, 6)),
        sentence_concepts=[0],
        boxes=[(0, 1)],
    )
    poisoned = train_part.documents[:8] + [bad]
    base_small = TrainConfig(
        model=ModelConfig(region_input_dim=6, sentence_input_dim=6,
                          hidden_dim=8, embed_dim=5),
        local_agg=LocalAggregatorSpec(kind="Avg"),
        batch_size=9, sentences_per_bag=2, epochs=1, warmup_steps=0, seed=0)
    rows = ablation_grid(poisoned, test_part.documents, grid[:1], base_small,
                         seed=0)
    assert len(rows) == 1
    assert not rows[0].trained
    assert "non-finite" in rows[0].error
    assert rows[0].probe_auc is None


def _grid_setup():
    corpus = tiny_corpus(documents=80)
    train_part, test_part = split_corpus(corpus, 0.6, seed=0)
    base = TrainConfig(
        model=ModelConfig(region_input_dim=6, sentence_input_dim=6,
                          hidden_dim=8, embed_dim=5),
        local_agg=LocalAggregatorSpec(kind="Avg"),
        batch_size=8, sentences_per_bag=2, epochs=1, warmup_steps=2, seed=0)
    grid = [GridEntry("Max", local_agg=LocalAggregatorSpec(kind="Max")),
            GridEntry("LSE", local_agg=LocalAggregatorSpec(kind="LSE",
                                                           gamma=0.5)),
            GridEntry("g-Att", global_agg=GlobalAggregatorSpec(kind="Att"))]
    return train_part.documents, test_part.documents, grid, base


def test_grid_rows_match_single_row_grids_around_a_failed_row(monkeypatch):
    train_docs, test_docs, grid, base = _grid_setup()
    alone = [ablation_grid(train_docs, test_docs, [entry], base, seed=0,
                           retrieval_limit=30)[0] for entry in grid]

    real_train = evaluation.train

    def fail_lse(docs, config):
        if config.local_agg is not None and config.local_agg.kind == "LSE":
            raise NonFiniteLossError("non-finite loss at step 0")
        return real_train(docs, config)

    monkeypatch.setattr(evaluation, "train", fail_lse)
    rows = ablation_grid(train_docs, test_docs, grid, base, seed=0,
                         retrieval_limit=30)
    assert [r.name for r in rows] == ["Max", "LSE", "g-Att"]
    assert not rows[1].trained
    assert rows[1].error == "non-finite loss at step 0"
    assert (rows[1].probe_auc, rows[1].mean_cnr,
            rows[1].retrieval_medr) == (None, None, None)
    for got, want in ((rows[0], alone[0]), (rows[2], alone[2])):
        assert got.trained
        assert (got.probe_auc, got.mean_cnr, got.retrieval_medr) == \
            (want.probe_auc, want.mean_cnr, want.retrieval_medr)


def test_grid_fits_its_probes_once_whatever_its_row_count(monkeypatch):
    train_docs, test_docs, grid, base = _grid_setup()
    fits = []
    fit = evaluation.linear_probe_stack

    def counted(train_features, *args, **kwargs):
        fits.append(len(train_features))
        return fit(train_features, *args, **kwargs)

    monkeypatch.setattr(evaluation, "linear_probe_stack", counted)
    for rows in (1, 3):
        fits.clear()
        ablation_grid(train_docs, test_docs, grid[:rows], base, seed=0,
                      retrieval_limit=30)
        assert fits == [rows]


def test_normalize_grid_flips_median_rank():
    rows = [
        AblationRow(name="a", trained=True, probe_auc=0.9, mean_cnr=1.0,
                    retrieval_medr=1.0),
        AblationRow(name="b", trained=True, probe_auc=0.5, mean_cnr=3.0,
                    retrieval_medr=5.0),
        AblationRow(name="c", trained=False, error="boom"),
    ]
    out = normalize_grid(rows)
    by_name = {r["name"]: r for r in out}
    assert by_name["a"]["probe_auc"] == 1.0
    assert by_name["b"]["probe_auc"] == 0.0
    assert by_name["a"]["mean_cnr"] == 0.0
    assert by_name["b"]["mean_cnr"] == 1.0
    # the lower median rank is better, so it normalizes to 1
    assert by_name["a"]["retrieval_medr"] == 1.0
    assert by_name["b"]["retrieval_medr"] == 0.0
    assert by_name["c"]["probe_auc"] is None
    assert by_name["c"]["error"] == "boom"


def test_normalize_grid_degenerate_column_is_half():
    rows = [
        AblationRow(name="a", trained=True, probe_auc=0.7, mean_cnr=2.0,
                    retrieval_medr=3.0),
        AblationRow(name="b", trained=True, probe_auc=0.7, mean_cnr=2.0,
                    retrieval_medr=3.0),
    ]
    out = normalize_grid(rows)
    for row in out:
        assert row["probe_auc"] == 0.5
        assert row["mean_cnr"] == 0.5
        assert row["retrieval_medr"] == 0.5


def test_grid_metrics_are_the_metric_fields_of_a_row():
    names = [f.name for f in dataclasses.fields(AblationRow)]
    assert names == ["name", "trained", *GRID_METRICS, "error"]
    assert GRID_METRICS == ("probe_auc", "mean_cnr", "retrieval_medr")
    assert LOWER_IS_BETTER == ("retrieval_medr",)


def test_write_ablation_csvs_headers_follow_grid_metrics(tmp_path):
    rows = [AblationRow(name="a", trained=True, probe_auc=0.9, mean_cnr=1.0,
                        retrieval_medr=1.0),
            AblationRow(name="b", trained=True, probe_auc=0.5, mean_cnr=3.0,
                        retrieval_medr=5.0),
            AblationRow(name="c", trained=False, error="x, y")]
    raw, norm = tmp_path / "raw.csv", tmp_path / "norm.csv"
    write_ablation_csvs(raw, norm, rows, "cafe", 4)
    raw_lines = raw.read_text().splitlines()
    norm_lines = norm.read_text().splitlines()
    assert raw_lines[0] == "# config cafe seed 4"
    assert raw_lines[1] == ",".join(("name", "trained", *GRID_METRICS,
                                     "error"))
    assert raw_lines[2:] == ["a,1,0.90000000000000002,1,1,",
                             "b,1,0.5,3,5,", "c,0,,,,x; y"]
    assert norm_lines[0] == ("# config cafe seed 4; min-max normalized per "
                             "metric; retrieval_medr flipped so higher is "
                             "better")
    assert norm_lines[1] == ",".join(("name", "trained", *GRID_METRICS))
    assert norm_lines[2:] == ["a,1,1,0,1", "b,1,0,1,0", "c,0,,,"]


def test_write_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(path, [("zero_shot", "top1_accuracy", 0.99),
                            ("retrieval", "medr", 1.0)],
                     config_fingerprint="cafe", seed=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,metric,value,config_fingerprint,seed"
    assert lines[1] == "zero_shot,top1_accuracy,0.98999999999999999,cafe,3"
    assert lines[2] == "retrieval,medr,1,cafe,3"
    with pytest.raises(ContractError, match="non-finite"):
        write_report_csv(tmp_path / "bad.csv",
                         [("x", "y", float("nan"))], "cafe", 0)
