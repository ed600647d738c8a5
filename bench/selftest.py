"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test run: they
exercise the benchmark, not the program. A tiny-size pass goes through
each workload's stages and checks; mutation tests show that each check
rejects a deliberately wrong output.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from milalign import evaluation, synthgen  # noqa: E402
from milalign.aggregators import (GlobalAggregatorSpec,  # noqa: E402
                                  LocalAggregatorSpec)
from milalign.config import experiment_from_dict  # noqa: E402

TINY = {
    "desk": {"corpus": {"documents": 300}, "train": {"epochs": 8,
                                                     "warmup_steps": 5}},
    "grid": {"corpus": {"documents": 300}, "ablation": {"epochs": 3}},
    "eval-heavy": {"corpus": {"documents": 600, "train_fraction": 0.4},
                   "train": {"epochs": 3},
                   "eval": {"zero_shot_documents": 300, "retrieval_cases": 300}},
}


def _tiny_config(workload):
    data = worker.workload_config(workload, 5, 6)
    for section, values in TINY[workload].items():
        data[section].update(values)
    return experiment_from_dict(data)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_tiny_pass_through_each_workload(workload, tmp_path):
    config = _tiny_config(workload)
    tracer = layers.Tracer()
    rnd = worker.Round(tracer)
    recorder = worker.TrainRecorder(evaluation.train)
    evaluation.train = recorder
    try:
        state = worker.run_stages(workload, config, tmp_path, rnd, recorder)
    finally:
        evaluation.train = recorder.train
    assert state["failed"] == 0
    assert rnd.done == worker.planned_ops(workload)
    assert set(rnd.stage_s) == {"gen_data", "read", "train", "checkpoint", "eval"}
    assert all(min(t) > 0 for t in rnd.stage_s.values())
    counts = state["counts"]
    assert counts["documents"] == config.corpus.documents
    assert counts["samples"] > 0 and counts["eval_cases"] > 0
    assert verify.run_checks(workload, config, state) == []


def test_tracer_reports_a_removed_attribute_and_runs_on():
    from milalign import autodiff, jsonio, objective, scoring, trainer
    modules = {"autodiff": autodiff, "evaluation": evaluation, "jsonio": jsonio,
               "objective": objective, "scoring": scoring, "synthgen": synthgen,
               "trainer": trainer}
    # a later version of synthgen without write_corpus
    modules["synthgen"] = types.SimpleNamespace(
        generate_corpus=synthgen.generate_corpus, read_corpus=synthgen.read_corpus)
    tracer = layers.Tracer()
    tracer.install(modules)
    try:
        assert tracer.missing == ["synthgen.write_corpus"]
        spec = experiment_from_dict({"corpus": {"documents": 3}}).corpus
        modules["synthgen"].generate_corpus(spec)
    finally:
        tracer.restore()
    assert trainer.sample_batch.__name__ == "sample_batch"
    assert not hasattr(trainer.sample_batch, "__wrapped__")
    summary = tracer.summary(grounding_cases=0)
    assert summary["trace.missing_spans"] == 1
    assert summary["synthgen.generate_s"] > 0


def _batch_tables(local_agg, global_agg, seed=3):
    rng = np.random.default_rng(seed)
    layout = checks.param_layout(6, 6, 5, 4, global_agg is not None
                                 and global_agg.kind == "NL", False)
    flat = rng.normal(0.0, 0.5, sum(int(np.prod(s)) for _, s in layout))
    p = checks.split_params(flat, layout)
    regions = checks.encode(p, "region", rng.normal(size=(5, 7, 6)))
    sentences = checks.encode(p, "sentence", rng.normal(size=(5, 3, 6)))
    config = types.SimpleNamespace(
        sentence_agg=experiment_from_dict({}).train.sentence_agg)
    got = verify._program_tables(config, p, regions, sentences,
                                 local_agg, global_agg)
    want = checks.reference_tables(p, regions, sentences,
                                   verify._spec_dict(local_agg),
                                   verify._spec_dict(global_agg))
    return got, want


@pytest.mark.parametrize("kind", ["Max", "Sum", "Avg", "LSE", "NOR", "NAND"])
def test_local_references_agree_with_the_program(kind):
    spec = LocalAggregatorSpec(kind=kind, gamma=0.1 if kind == "LSE" else None)
    (got, _), (want, _, _) = _batch_tables(spec, None)
    assert checks.compare(got.value, want, kind) == []


def test_nudged_score_table_entry_is_rejected():
    nl = GlobalAggregatorSpec(kind="NL", gamma=float(np.e))
    lse = LocalAggregatorSpec(kind="LSE", gamma=0.1)
    (got_l, got_g), (want_l, want_g, ambiguous) = _batch_tables(lse, nl)
    assert checks.compare(got_l.value, want_l, "local") == []
    assert checks.compare(got_g.value, want_g, "global", skip=ambiguous) == []
    for got, want in ((got_l.value, want_l), (got_g.value, want_g)):
        nudged = got.copy()
        nudged[2, 3] += 1e-9
        assert checks.compare(nudged, want, "nudged") != []


def test_swapped_retrieval_ranks_are_rejected():
    rng = np.random.default_rng(4)
    table = checks.cosines(rng.normal(size=(40, 5)), rng.normal(size=(40, 5)))
    table[7, 7] = table[7, 2]  # an exact tie, broken by candidate order
    ranks = evaluation.rank_of_match(table)
    want, ambiguous = checks.reference_ranks(table)
    assert checks.rank_problems(ranks, want, ambiguous, "ranks") == []
    assert ranks[7] == 1 + np.count_nonzero(table[7] > table[7, 7]) + 1
    i, j = next((i, j) for i in range(40) for j in range(i + 1, 40)
                if ranks[i] != ranks[j] and not ambiguous[i] and not ambiguous[j])
    swapped = ranks.copy()
    swapped[i], swapped[j] = ranks[j], ranks[i]
    assert checks.rank_problems(swapped, want, ambiguous, "ranks") != []


def test_altered_corpus_value_on_read_back_is_rejected(tmp_path):
    spec = experiment_from_dict({"corpus": {"documents": 12, "seed": 9}}).corpus
    made = synthgen.generate_corpus(spec)
    path = tmp_path / "corpus.jsonl"
    synthgen.write_corpus(path, made)
    read = synthgen.read_corpus(path)
    assert checks.corpus_problems(made, read) == []
    doc = read.documents[5]
    doc.region_observations[3, 1] = np.nextafter(doc.region_observations[3, 1], 9.0)
    assert checks.corpus_problems(made, read) == ["document 5 differs after "
                                                  "read-back"]


def test_grounding_and_auc_references():
    rng = np.random.default_rng(5)
    maps = np.clip(rng.normal(0.0, 0.4, (30, 10)), -1, 1)
    boxes = [tuple(sorted(rng.choice(10, 3, replace=False))) for _ in range(30)]
    ref = checks.reference_grounding(maps, boxes)
    for c in (0, 17):
        assert ref["cnr"][c] == pytest.approx(evaluation.cnr(maps[c], boxes[c]),
                                              rel=1e-12)
        assert ref["miou"][c] == pytest.approx(evaluation.miou(maps[c], boxes[c]),
                                               abs=1e-15)
        assert ref["hit"][c] == evaluation.grounding_hit(maps[c], boxes[c])
    wrong = ref["cnr"].copy()
    wrong[4] *= 1.0 + 1e-6
    assert checks.grounding_problems(wrong, ref["miou"], ref["hit"], ref) != []

    scores = rng.random((50, 3))
    labels = rng.integers(0, 3, 50)
    auc, _ = checks.brute_force_auc(scores, labels, 3)
    want = np.mean([evaluation.rank_auc(scores[:, c], labels == c) for c in range(3)])
    assert auc == pytest.approx(want, abs=1e-12)
