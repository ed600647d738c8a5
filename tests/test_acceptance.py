"""Package acceptance gates, one test per criterion:

1. finite-difference gradient suite over every differentiable operation
2. permutation invariance of the batched score tables, all 11 configurations
3. log-sum-exp max bounds
4. contrastive-loss identities of the table loss
5. naive straight-line oracle equivalence for both score tables and the loss
6. desk-scale end-to-end experiment quality thresholds (seed 0)
7. aggregator-grid structure and the combined-vs-global CNR ordering
8. byte-identical pipeline determinism

Each test prints a single pass/fail verdict line with the measured margin.
"""

import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from milalign import cli, gradcheck, synthgen, trainer
from milalign.aggregators import (
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    SentenceAggregatorSpec,
    aggregate_local_axis,
    bind_global_spec,
)
from milalign.config import experiment_from_dict
from milalign.encoders import unflatten_params
from milalign.evaluation import (
    ablation_grid,
    default_grid,
    evaluate_grounding,
    grounding_cases,
    normalize_grid,
    retrieval_cases,
    retrieval_eval,
    single_concept_documents,
    zero_shot_classify,
)
from milalign.objective import infonce_score_table
from milalign.scoring import pairwise_score_tables
from milalign.synthgen import prompt_bank

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "baselines", "acceptance_seed0.json")


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: every differentiable operation passes a central
# finite-difference check (rel err < 1e-4, step 1e-5) in under a minute


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results = gradcheck.run_suite(step=1e-5, tolerance=1e-4, instances=20)
    wall = time.perf_counter() - start
    worst = max(r.max_relative_error for r in results)
    ok = all(r.passed for r in results) and wall < 60.0
    _verdict(1, "finite-difference gradients", ok,
             f"{len(results)} operations, worst rel err {worst:.3e}, "
             f"{wall:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: for all 11 grid configurations, the batched score tables
# and their loss (within 1e-10 relative) are unchanged by permuting the
# regions of each image and the sentences of each document, and permuting
# images and documents together permutes the tables' rows and columns


def _bound_global(spec, rng, dim):
    if spec is None or spec.kind in ("Avg", "CA"):
        return spec
    if spec.kind == "NL":
        sim_map = np.eye(dim) + 0.05 * rng.standard_normal((dim, dim))
        return bind_global_spec(spec, sim_map=sim_map)
    return bind_global_spec(spec,
                            att_proj=rng.standard_normal((7, dim)),
                            att_vec=rng.standard_normal(7))


def _tables_and_loss(images, documents, local_agg, global_agg):
    n, m = images.shape[1], documents.shape[1]
    tables = [t for t in pairwise_score_tables(
        images.reshape(-1, images.shape[2]), n,
        documents.reshape(-1, documents.shape[2]), m, local_agg, global_agg,
        SentenceAggregatorSpec(kind="Avg")) if t is not None]
    loss = sum(infonce_score_table(t, 14.0).value for t in tables)
    return [t.value for t in tables], loss


def test_criterion_2_permutation_invariance():
    rng = np.random.default_rng(0)
    b, n, m, dim, trials = 3, 6, 3, 5, 200
    worst = 0.0
    for entry in default_grid():
        global_agg = _bound_global(entry.global_agg, rng, dim)
        for trial in range(trials):
            if trial % 25 == 0:
                images = rng.uniform(-1.0, 1.0, size=(b, n, dim))
                documents = rng.uniform(-1.0, 1.0, size=(b, m, dim))
                base_tables, base_loss = _tables_and_loss(
                    images, documents, entry.local_agg, global_agg)
            joint = rng.permutation(b)
            images_p = np.stack([images[j][rng.permutation(n)] for j in joint])
            documents_p = np.stack([documents[i][rng.permutation(m)]
                                    for i in joint])
            tables, loss = _tables_and_loss(images_p, documents_p,
                                            entry.local_agg, global_agg)
            for got, base in zip(tables, base_tables):
                want = base[np.ix_(joint, joint)]
                worst = max(worst, float(np.max(
                    np.abs(got - want) / np.maximum(np.abs(want), 1.0))))
            worst = max(worst, abs(loss - base_loss) / max(abs(base_loss), 1.0))
    ok = worst <= 1e-10
    _verdict(2, "permutation invariance, 11 configs x 200 trials", ok,
             f"worst rel dev {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 3: max <= LSE <= max + ln(N)/gamma, and gamma=1000 pins LSE
# to the max within ln(N)/1000


def test_criterion_3_lse_bounds():
    rng = np.random.default_rng(3)
    gammas = (0.1, 1.0, 10.0)
    worst_lower = 0.0
    worst_upper = 0.0
    worst_tight = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 33))
        scores = rng.uniform(-1.0, 1.0, size=n)
        top = scores.max()
        gamma = gammas[i % 3]
        lse = aggregate_local_axis(LocalAggregatorSpec(kind="LSE", gamma=gamma),
                                   scores, axis=0).value
        worst_lower = max(worst_lower, top - lse)
        worst_upper = max(worst_upper, lse - (top + math.log(n) / gamma))
        tight = aggregate_local_axis(
            LocalAggregatorSpec(kind="LSE", gamma=1000.0), scores, axis=0).value
        worst_tight = max(worst_tight,
                          abs(tight - top) - math.log(n) / 1000.0)
    ok = worst_lower <= 1e-12 and worst_upper <= 1e-12 \
        and worst_tight <= 1e-15
    _verdict(3, "LSE max bounds, 1000 score sets", ok,
             f"bound violations {worst_lower:.2e}/{worst_upper:.2e}, "
             f"gamma=1000 slack {worst_tight:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: a constant B x B score table gives ln(B); the table loss is
# invariant to shifting a column and to reordering a column's
# off-diagonal (mismatched) entries


def test_criterion_4_loss_identities():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        b = int(rng.integers(2, 34))
        gamma = float(rng.uniform(0.1, 30.0))
        c = float(rng.uniform(-1.0, 1.0))
        equal = infonce_score_table(np.full((b, b), c), gamma).value
        worst = max(worst, abs(equal - math.log(b)))

        table = rng.uniform(-1.0, 1.0, size=(b, b))
        base = infonce_score_table(table, gamma).value
        shifted = table + rng.uniform(-3.0, 3.0, size=b)[None, :]
        worst = max(worst, abs(infonce_score_table(shifted, gamma).value - base))
        reordered = table.copy()
        for i in range(b):
            rows = np.array([j for j in range(b) if j != i])
            reordered[rows, i] = table[rng.permutation(rows), i]
        worst = max(worst,
                    abs(infonce_score_table(reordered, gamma).value - base))
    ok = worst <= 1e-12
    _verdict(4, "loss identities, 200 draws", ok, f"worst dev {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 5: both routes' score tables and the summed table loss match
# the naive straight-line oracles, which use no stability transforms


def _pooled_clear_of_zero(images, documents, spec):
    # a pooled feature near the norm guard makes the cosine ill-conditioned
    for img in images:
        for doc in documents:
            for y in doc:
                cosines = [oracles.cos(x, y) for x in img]
                if math.sqrt(sum(p * p for p in
                                 oracles.pooled(spec, img, cosines))) < 1e-2:
                    return False
    return True


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(5)
    gamma_l, gamma_g, gamma_c = 0.1, math.e, 14.0
    local_agg = LocalAggregatorSpec(kind="LSE", gamma=gamma_l)
    sentence_agg = SentenceAggregatorSpec(kind="Avg")
    worst = 0.0
    accepted = 0
    while accepted < 100:
        b = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5))
        images = rng.uniform(-1.0, 1.0, size=(b, n, dim))
        documents = rng.uniform(-1.0, 1.0, size=(b, m, dim))
        if min(np.linalg.norm(documents, axis=2).min(),
               np.linalg.norm(images, axis=2).min()) < 0.3:
            continue
        sim_map = np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
        global_agg = GlobalAggregatorSpec(kind="NL", gamma=gamma_g,
                                          sim_map=sim_map)
        if not _pooled_clear_of_zero(images, documents, global_agg):
            continue
        accepted += 1

        naive_l, naive_g = oracles.score_tables(images, documents, local_agg,
                                                global_agg, sentence_agg)
        table_l, table_g = pairwise_score_tables(
            images.reshape(-1, dim), n, documents.reshape(-1, dim), m,
            local_agg, global_agg, sentence_agg)
        worst = max(worst,
                    float(np.max(np.abs(table_l.value - np.array(naive_l)))),
                    float(np.max(np.abs(table_g.value - np.array(naive_g)))))

        got_loss = infonce_score_table(table_l, gamma_c).value \
            + infonce_score_table(table_g, gamma_c).value
        want_loss = oracles.table_loss(naive_l, gamma_c) \
            + oracles.table_loss(naive_g, gamma_c)
        worst = max(worst, abs(got_loss - want_loss))
    ok = worst <= 1e-10
    _verdict(5, "naive oracle equivalence, 100 instances", ok,
             f"worst abs dev {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 6: the default desk-scale experiment trains in minutes and
# clears the zero-shot, retrieval, and grounding thresholds at seed 0


@pytest.fixture(scope="module")
def desk_run():
    config = experiment_from_dict({})
    start = time.perf_counter()
    corpus = synthgen.generate_corpus(config.corpus)
    train_part, test_part = synthgen.split_corpus(
        corpus, config.corpus.train_fraction, config.corpus.seed)
    result = trainer.train(train_part.documents, config.train)
    params = unflatten_params(config.train.model, result.params_flat)

    singles = single_concept_documents(test_part.documents)
    singles = singles[:config.eval_options.zero_shot_documents]
    zs = zero_shot_classify(params, config.train.local_agg,
                            prompt_bank(corpus.bank), singles)
    grounding = evaluate_grounding(params, grounding_cases(test_part.documents))
    cases = retrieval_cases(test_part.documents,
                            config.eval_options.retrieval_cases)
    retrieval = retrieval_eval(params, cases)
    wall = time.perf_counter() - start
    return SimpleNamespace(config=config, train_docs=train_part.documents,
                           test_docs=test_part.documents, zs=zs,
                           n_singles=len(singles), grounding=grounding,
                           retrieval=retrieval, wall=wall)


def test_criterion_6_desk_scale_experiment(desk_run):
    r = desk_run
    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    checks = [
        r.wall < 300.0,
        r.n_singles == 200,
        r.zs.accuracy >= 0.90,
        r.retrieval.count >= 100,
        r.retrieval.box_to_sentence_medr <= 3.0,
        r.retrieval.sentence_to_box_medr <= 3.0,
        r.grounding.hit_rate >= 0.85,
        r.grounding.mean_cnr >= 1.0,
        # agreement with the recorded seed-0 baseline (loose enough for
        # BLAS reassociation differences across machines)
        abs(r.zs.accuracy - baseline["zero_shot_top1_accuracy"]) <= 0.015,
        abs(r.grounding.hit_rate - baseline["grounding_hit_rate"]) <= 0.015,
        abs(r.grounding.mean_cnr - baseline["grounding_mean_cnr"])
        <= 0.001 * abs(baseline["grounding_mean_cnr"]) + 1e-6,
        abs(r.retrieval.box_to_sentence_medr
            - baseline["retrieval_medr_box_to_sentence"]) <= 0.5,
        abs(r.retrieval.sentence_to_box_medr
            - baseline["retrieval_medr_sentence_to_box"]) <= 0.5,
    ]
    ok = all(checks)
    _verdict(6, "desk-scale end-to-end at seed 0", ok,
             f"zs acc {r.zs.accuracy:.3f}, medr "
             f"{r.retrieval.box_to_sentence_medr:.1f}/"
             f"{r.retrieval.sentence_to_box_medr:.1f}, "
             f"hit {r.grounding.hit_rate:.3f}, "
             f"cnr {r.grounding.mean_cnr:.3f}, {r.wall:.0f}s"
             + ("" if ok else f", failed checks "
                f"{[i for i, c in enumerate(checks) if not c]}"))


# ---------------------------------------------------------------------------
# criterion 7: the 11-configuration grid completes on seeds 0..2, emits a
# sane normalized table, and the combined local+global config grounds at
# least as sharply as the global-only one in most seeds


@pytest.fixture(scope="module")
def grid_runs(desk_run):
    config = desk_run.config
    runs = {}
    for seed in (0, 1, 2):
        rows = ablation_grid(desk_run.train_docs, desk_run.test_docs,
                             default_grid(), config.train, seed,
                             retrieval_limit=config.eval_options.retrieval_cases)
        runs[seed] = (rows, normalize_grid(rows))
    return runs


def test_criterion_7_grid_ordering(grid_runs):
    expected_names = [e.name for e in default_grid()]
    all_trained = True
    tables_sane = True
    ordering_wins = 0
    cnr_pairs = []
    for seed, (rows, table) in grid_runs.items():
        names = [row.name for row in rows]
        all_trained &= names == expected_names and \
            all(row.trained for row in rows)
        for norm in table:
            for key in ("probe_auc", "mean_cnr", "retrieval_medr"):
                value = norm[key]
                tables_sane &= value is not None and 0.0 <= value <= 1.0
        by_name = {row.name: row for row in rows}
        combined = by_name["LSE+NL"].mean_cnr
        global_only = by_name["g-NL"].mean_cnr
        cnr_pairs.append((seed, combined, global_only))
        ordering_wins += int(combined >= global_only)
    ok = all_trained and tables_sane and ordering_wins >= 2
    detail = ", ".join(f"seed {s}: LSE+NL {a:.2f} vs g-NL {b:.2f}"
                       for s, a, b in cnr_pairs)
    _verdict(7, "aggregator grid over seeds 0-2", ok,
             f"{detail}; ordering holds {ordering_wins}/3")


# ---------------------------------------------------------------------------
# criterion 8: two identically configured pipeline runs produce
# byte-identical corpus, checkpoint, and CSV artifacts


ARTIFACTS = (
    ("data", "corpus.jsonl"),
    ("data", "prompts.json"),
    ("run", "checkpoint.json"),
    ("run", "train_log.csv"),
    ("eval", "eval_report.csv"),
)


def test_criterion_8_pipeline_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text("{}")
    payloads = []
    for name in ("first", "second"):
        base = tmp_path / name
        data, run, ev = base / "data", base / "run", base / "eval"
        assert cli.main(["gen-data", "--config", str(config_path),
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--config", str(config_path),
                         "--corpus", str(data / "corpus.jsonl"),
                         "--out", str(run)]) == 0
        assert cli.main(["eval", "--config", str(config_path),
                         "--checkpoint", str(run / "checkpoint.json"),
                         "--corpus", str(data / "corpus.jsonl"),
                         "--out", str(ev)]) == 0
        payloads.append({parts: (base / parts[0] / parts[1]).read_bytes()
                         for parts in ARTIFACTS})
    mismatched = [f"{d}/{f}" for d, f in ARTIFACTS
                  if payloads[0][(d, f)] != payloads[1][(d, f)]]
    ok = not mismatched
    _verdict(8, "byte-identical pipeline reruns", ok,
             f"{len(ARTIFACTS)} artifacts compared"
             + ("" if ok else f", mismatched: {mismatched}"))
