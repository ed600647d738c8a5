"""End-to-end command-line pipeline on a small corpus, plus the exit-code
contract: 0 success, 1 validation/usage, 2 runtime failure."""

import copy
import dataclasses
import json
import math
import struct
from types import SimpleNamespace

import pytest

from milalign import cli, evaluation
from milalign.config import experiment_from_dict
from milalign.synthgen import CorpusSpec
from milalign.trainer import NonFiniteLossError

SMALL = {
    "corpus": {"concepts": 4, "region_dim": 6, "sentence_dim": 6,
               "regions_per_image": 8, "sentences_per_doc": 2,
               "documents": 120, "concepts_min": 1, "concepts_max": 2,
               "box_min": 2, "box_max": 3},
    "model": {"hidden_dim": 8, "embed_dim": 5},
    "train": {"batch_size": 8, "sentences_per_bag": 2, "epochs": 2,
              "warmup_steps": 4},
    "eval": {"zero_shot_documents": 50, "retrieval_cases": 20},
    "ablation": {"seeds": [0], "epochs": 1},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(SMALL))
    data_dir = root / "data"
    run_dir = root / "run"

    assert cli.main(["gen-data", "--config", str(config_path),
                     "--out", str(data_dir)]) == 0
    corpus_path = data_dir / "corpus.jsonl"
    assert corpus_path.exists()
    assert (data_dir / "prompts.json").exists()

    assert cli.main(["train", "--config", str(config_path),
                     "--corpus", str(corpus_path),
                     "--out", str(run_dir)]) == 0
    checkpoint_path = run_dir / "checkpoint.json"
    assert checkpoint_path.exists()
    assert (run_dir / "train_log.csv").exists()

    return SimpleNamespace(
        root=root, config_path=config_path, corpus_path=corpus_path,
        run_dir=run_dir, checkpoint_path=checkpoint_path,
        fingerprint=experiment_from_dict(SMALL).fingerprint)


def test_artifacts_embed_the_config_fingerprint(pipeline):
    first_line = pipeline.corpus_path.read_text().splitlines()[0]
    assert pipeline.fingerprint in first_line
    log_head = (pipeline.run_dir / "train_log.csv").read_text().splitlines()
    assert log_head[0] == f"# config {pipeline.fingerprint}"
    assert log_head[1] == "step,lr,loss,gamma"
    payload = json.loads(pipeline.checkpoint_path.read_text())
    assert payload["config_fingerprint"] == pipeline.fingerprint


def test_gen_data_is_deterministic(pipeline, tmp_path):
    assert cli.main(["gen-data", "--config", str(pipeline.config_path),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "corpus.jsonl").read_bytes() == \
        pipeline.corpus_path.read_bytes()
    assert (tmp_path / "prompts.json").read_bytes() == \
        (pipeline.root / "data" / "prompts.json").read_bytes()


def test_train_log_reports_progress(pipeline):
    lines = (pipeline.run_dir / "train_log.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 18  # floor(78 / 8) steps per epoch, 2 epochs
    assert [int(r[0]) for r in rows] == list(range(18))
    assert float(rows[-1][2]) < float(rows[0][2])


def test_eval_full_task_set(pipeline, tmp_path, capsys):
    rc = cli.main(["eval", "--config", str(pipeline.config_path),
                   "--checkpoint", str(pipeline.checkpoint_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    report = (tmp_path / "eval_report.csv").read_text().splitlines()
    assert report[0] == "task,metric,value,config_fingerprint,seed"
    tasks = {ln.split(",")[0] for ln in report[1:]}
    assert tasks == {"zero_shot", "linear_probe", "grounding", "retrieval"}
    assert all(ln.split(",")[3] == pipeline.fingerprint for ln in report[1:])
    assert "top1_accuracy" in out
    assert "medr_box_to_sentence" in out


def test_eval_task_subset(pipeline, tmp_path):
    rc = cli.main(["eval", "--config", str(pipeline.config_path),
                   "--checkpoint", str(pipeline.checkpoint_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--tasks", "zs,grounding", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "eval_report.csv").read_text().splitlines()
    tasks = {ln.split(",")[0] for ln in report[1:]}
    assert tasks == {"zero_shot", "grounding"}


def test_eval_probes_a_test_concept_the_training_split_lacks(tmp_path):
    # at 60 documents and corpus seed 3, a concept has single-concept
    # documents in the test split only; the probe's class count covers it
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"corpus": {"documents": 60, "seed": 3},
                                       "train": {"warmup_steps": 5}}))
    corpus_path = tmp_path / "data" / "corpus.jsonl"
    run_dir = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(config_path),
                     "--out", str(tmp_path / "data")]) == 0
    assert cli.main(["train", "--config", str(config_path),
                     "--corpus", str(corpus_path), "--out", str(run_dir)]) == 0
    assert cli.main(["eval", "--config", str(config_path),
                     "--checkpoint", str(run_dir / "checkpoint.json"),
                     "--corpus", str(corpus_path), "--out", str(run_dir)]) == 0
    report = (run_dir / "eval_report.csv").read_text().splitlines()
    assert {ln.split(",")[0] for ln in report[1:]} == \
        {"zero_shot", "linear_probe", "grounding", "retrieval"}


def test_eval_rejects_unknown_task(pipeline, tmp_path, capsys):
    rc = cli.main(["eval", "--config", str(pipeline.config_path),
                   "--checkpoint", str(pipeline.checkpoint_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--tasks", "zs,bogus", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown eval task" in capsys.readouterr().err


def test_eval_refuses_mismatched_config(pipeline, tmp_path, capsys):
    other = dict(SMALL)
    other["train"] = dict(SMALL["train"], epochs=3)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    rc = cli.main(["eval", "--config", str(other_path),
                   "--checkpoint", str(pipeline.checkpoint_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "different configuration" in capsys.readouterr().err


def test_resume_from_finished_checkpoint_is_a_no_op(pipeline, tmp_path,
                                                    capsys):
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path),
                   "--resume", str(pipeline.checkpoint_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no steps to run" in out
    resumed = json.loads((tmp_path / "checkpoint.json").read_text())
    original = json.loads(pipeline.checkpoint_path.read_text())
    assert resumed["step"] == original["step"]
    assert resumed["params"] == original["params"]


def test_ablate_writes_raw_and_normalized_tables(pipeline, tmp_path, capsys):
    rc = cli.main(["ablate", "--config", str(pipeline.config_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "seed 0: 11/11 configurations trained" in capsys.readouterr().out
    raw = (tmp_path / "ablation_seed0.csv").read_text().splitlines()
    assert raw[0] == f"# config {pipeline.fingerprint} seed 0"
    assert raw[1] == "name,trained,probe_auc,mean_cnr,retrieval_medr,error"
    names = [ln.split(",")[0] for ln in raw[2:]]
    assert names == ["Max", "Avg", "LSE", "NOR", "NAND", "g-Avg", "g-Att",
                     "g-NL", "LSE+Avg", "LSE+Att", "LSE+NL"]
    norm = (tmp_path / "ablation_seed0_normalized.csv").read_text()
    norm_lines = norm.splitlines()
    assert "retrieval_medr flipped" in norm_lines[0]
    assert len(norm_lines) == 13
    for ln in norm_lines[2:]:
        cells = ln.split(",")
        for cell in cells[2:]:
            assert 0.0 <= float(cell) <= 1.0


def test_ablate_writes_a_failed_row_with_empty_metric_cells(
        pipeline, tmp_path, monkeypatch):
    calls = []

    def train(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise NonFiniteLossError("a, b")
        return real_train(*args, **kwargs)

    real_train = evaluation.train
    monkeypatch.setattr(evaluation, "train", train)
    rc = cli.main(["ablate", "--config", str(pipeline.config_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path)])
    assert rc == 0
    raw = (tmp_path / "ablation_seed0.csv").read_text().splitlines()
    norm = (tmp_path / "ablation_seed0_normalized.csv").read_text().splitlines()
    # NOR, the fourth row, follows the comment and header lines
    assert raw[5] == "NOR,0,,,,a; b"
    assert norm[5] == "NOR,0,,,"
    assert len(calls) == 11


def test_ablate_seeds_flag_overrides_config(pipeline, tmp_path):
    rc = cli.main(["ablate", "--config", str(pipeline.config_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--seeds", "7", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ablation_seed7.csv").exists()
    assert not (tmp_path / "ablation_seed0.csv").exists()


def test_report_renders_csv_directories(pipeline, tmp_path, capsys):
    rc = cli.main(["eval", "--config", str(pipeline.config_path),
                   "--checkpoint", str(pipeline.checkpoint_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--tasks", "zs", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["report", "--in", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== eval_report.csv ==" in out
    assert "zero_shot" in out
    assert "top1_accuracy" in out


def test_report_validation(tmp_path, capsys):
    rc = cli.main(["report", "--in", str(tmp_path / "missing")])
    assert rc == 1
    assert "not a directory" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main(["report", "--in", str(empty)])
    assert rc == 1
    assert "no CSV reports" in capsys.readouterr().err


def test_gradcheck_passes_quickly(capsys):
    rc = cli.main(["gradcheck", "--instances", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "operations passed at tolerance" in out
    assert "FAIL" not in out


def test_gradcheck_failure_exit_code(capsys):
    rc = cli.main(["gradcheck", "--instances", "1", "--tolerance", "1e-30"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "failed the gradient check" in out


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert "command is required" in capsys.readouterr().err
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    assert cli.main(["train", "--config", "x.json"]) == 1  # missing flags
    err = capsys.readouterr().err
    assert "required" in err


def test_missing_inputs_exit_one(pipeline, tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "not found" in capsys.readouterr().err
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1


def test_corrupt_corpus_exits_one(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    good_lines = pipeline.corpus_path.read_text().splitlines()
    bad.write_text("\n".join([good_lines[0], "{not json"]) + "\n")
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def _ragged_corpus(pipeline, tmp_path):
    """The pipeline corpus with the last region dropped from every document
    whose boxes leave it out; returns the path and the first such line."""
    lines = pipeline.corpus_path.read_text().splitlines()
    edited = [lines[0]]
    first = None
    for lineno, line in enumerate(lines[1:], start=2):
        doc = json.loads(line)
        if all(7 not in box for box in doc["boxes"]):
            doc["regions"] = doc["regions"][:7]
            doc["region_concepts"] = doc["region_concepts"][:7]
            first = first or (lineno, doc["image_id"])
        edited.append(json.dumps(doc))
    ragged = tmp_path / "ragged.jsonl"
    ragged.write_text("\n".join(edited) + "\n")
    return ragged, first


def test_eval_refuses_ragged_region_bags(pipeline, tmp_path, capsys):
    # the corpus reader refuses the first short bag, naming its line
    ragged, (lineno, image_id) = _ragged_corpus(pipeline, tmp_path)
    rc = cli.main(["eval", "--config", str(pipeline.config_path),
                   "--checkpoint", str(pipeline.checkpoint_path),
                   "--corpus", str(ragged), "--tasks", "grounding",
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"line {lineno}: image_id {image_id}: regions (7, 6)" in err
    assert "expected regions (8, 6)" in err


def test_train_refuses_ragged_region_bags_before_any_step(pipeline, tmp_path,
                                                          capsys):
    ragged, (lineno, image_id) = _ragged_corpus(pipeline, tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(ragged), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"line {lineno}: image_id {image_id}: regions (7, 6)" in err
    assert not (out / "checkpoint.json").exists()


def _every_document_edited(pipeline, tmp_path, edit):
    lines = pipeline.corpus_path.read_text().splitlines()
    docs = [json.loads(line) for line in lines[1:]]
    for doc in docs:
        edit(doc)
    edited = tmp_path / "edited.jsonl"
    edited.write_text("\n".join([lines[0]] + [json.dumps(d) for d in docs]) + "\n")
    return edited, docs[0]["image_id"]


def _first_box_index_99(doc):
    doc["boxes"][0][0] = 99


def _extra_sentence_concept(doc):
    doc["sentence_concepts"].append(0)


@pytest.mark.parametrize("edit, field", [
    (_first_box_index_99, "boxes[0] [99, "),
    (_extra_sentence_concept, "sentence_concepts has "),
], ids=["box index 99", "extra sentence concept"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_corpus_lists_that_do_not_describe_the_bags_exit_one(
        pipeline, tmp_path, capsys, edit, field, command):
    edited, image_id = _every_document_edited(pipeline, tmp_path, edit)
    out = tmp_path / "out"
    args = [command, "--config", str(pipeline.config_path),
            "--corpus", str(edited), "--out", str(out)]
    if command == "eval":
        args += ["--checkpoint", str(pipeline.checkpoint_path)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert f"line 2: image_id {image_id}: {field}" in err
    assert not out.exists() or not any(out.iterdir())


def test_ablate_bad_seeds_flag(pipeline, tmp_path, capsys):
    rc = cli.main(["ablate", "--config", str(pipeline.config_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--seeds", "a,b", "--out", str(tmp_path)])
    assert rc == 1
    assert "comma-separated integers" in capsys.readouterr().err


def test_ablate_refuses_epochs_inside_warmup(pipeline, tmp_path, capsys):
    # 78 training documents at batch size 8: 9 batches per epoch, so one
    # ablation epoch cannot leave a 9-step warmup
    config = dict(SMALL, train=dict(SMALL["train"], warmup_steps=9))
    config_path = tmp_path / "warm.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "abl"
    rc = cli.main(["ablate", "--config", str(config_path),
                   "--corpus", str(pipeline.corpus_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ablation.epochs=1" in err
    assert "9 batches per epoch" in err
    assert "train.warmup_steps=9" in err
    assert not out.exists()
    # a zero-step schedule has no warmup to leave and still runs
    config = dict(SMALL, train=dict(SMALL["train"], epochs=0),
                  ablation={"seeds": [0], "epochs": None})
    config_path.write_text(json.dumps(config))
    rc = cli.main(["ablate", "--config", str(config_path),
                   "--corpus", str(pipeline.corpus_path), "--out", str(out)])
    assert rc == 0


def test_train_refuses_epochs_inside_warmup(pipeline, tmp_path, capsys):
    # 9 batches per epoch for 2 epochs is 18 steps, all inside an 18-step
    # warmup: refused before the corpus split is trained on
    config = dict(SMALL, train=dict(SMALL["train"], warmup_steps=18))
    config_path = tmp_path / "warm.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(config_path),
                   "--corpus", str(pipeline.corpus_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "train.epochs=2 at 9 batches per epoch gives 18 training steps" \
        in err
    assert "train.warmup_steps=18" in err
    assert not out.exists()


def _edited(payload, dotted, edit):
    out = copy.deepcopy(payload)
    *parents, last = dotted.split(".")
    node = out
    for key in parents:
        node = node[key]
    edit(node, last)
    return out


def _without(payload, dotted):
    return _edited(payload, dotted, lambda node, key: node.pop(key))


CHECKPOINT_FIELDS = (
    "config", "config.model", "config.model.region_input_dim",
    "config.model.sentence_input_dim", "config.model.hidden_dim",
    "config.model.embed_dim", "config.local_agg", "config.global_agg",
    "config.sentence_agg", "config.local_agg.kind", "config.global_agg.kind",
    "config.sentence_agg.kind", "config.batch_size", "config.sentences_per_bag",
    "config.epochs", "config.peak_lr", "config.warmup_steps",
    "config.weight_decay", "config.betas", "config.adam_eps",
    "config.gamma_init", "config.seed", "params", "optimizer",
    "optimizer.step", "optimizer.first_moment", "optimizer.second_moment",
    "step",
)


@pytest.mark.parametrize("dotted", CHECKPOINT_FIELDS)
def test_checkpoint_missing_field_exits_one(pipeline, tmp_path, capsys,
                                            dotted):
    payload = json.loads(pipeline.checkpoint_path.read_text())
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(_without(payload, dotted)))
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path / "run"), "--resume", str(bad)])
    assert rc == 1
    assert f"missing field {dotted}" in capsys.readouterr().err


CHECKPOINT_BAD_VALUES = (
    ("optimizer.step", "x", "optimizer.step must be an integer"),
    ("step", 1.5, "step must be an integer"),
    ("config.betas", 0.9, "config.betas must be a list of two numbers"),
    ("config.betas", [0.9], "config.betas must be a list of two numbers"),
    ("config.batch_size", "8", "config.batch_size must be an integer"),
    ("config.batch_size", 1, "config.batch_size must be >= 2"),
    ("config.seed", True, "config.seed must be an integer"),
    ("config.peak_lr", "x", "config.peak_lr must be a number"),
    ("config.model.hidden_dim", "x", "config.model.hidden_dim must be an "
                                     "integer"),
    ("config.local_agg.gamma", "x", "config.local_agg.gamma must be a number"),
    ("config.global_agg.gamma", [], "config.global_agg.gamma must be a number"),
    ("config.sentence_agg.gamma", 2.0,
     "config.sentence_agg: sentence Avg takes no gamma"),
    ("config.local_agg.extra", 1, "unknown field config.local_agg.extra"),
    ("config.global_agg.extra", 1, "unknown field config.global_agg.extra"),
    ("config.sentence_agg", None, "config.sentence_agg must be a JSON object"),
    ("config.model.use_nl", "x", "config.model.use_nl must be true or false"),
    ("config.model.extra", 1, "unknown field config.model.extra"),
    ("config.extra", 1, "unknown field config.extra"),
    ("params", "x", "params must be numeric"),
    ("optimizer.first_moment", ["x"], "optimizer.first_moment must be numeric"),
)


@pytest.mark.parametrize(
    "dotted,value,message", CHECKPOINT_BAD_VALUES,
    ids=[f"{dotted}={json.dumps(value)}"
         for dotted, value, _ in CHECKPOINT_BAD_VALUES])
def test_checkpoint_field_of_wrong_type_exits_one(pipeline, tmp_path, capsys,
                                                  dotted, value, message):
    def put(node, key):
        node[key] = value

    payload = json.loads(pipeline.checkpoint_path.read_text())
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(_edited(payload, dotted, put)))
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(pipeline.corpus_path),
                   "--out", str(tmp_path / "run"), "--resume", str(bad)])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_train_refuses_nl_without_gamma_before_any_step(pipeline, tmp_path,
                                                         capsys):
    config = dict(SMALL, train=dict(SMALL["train"],
                                    global_agg={"kind": "NL"}))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(config_path),
                   "--corpus", str(pipeline.corpus_path), "--out", str(out)])
    assert rc == 1
    assert "train.global_agg: global NL requires a finite gamma" in \
        capsys.readouterr().err
    assert not (out / "train_log.csv").exists()
    assert not (out / "checkpoint.json").exists()


CORPUS_FIELDS = ("spec", "concept_bank", "concept_bank.seed",
                 "concept_bank.region_prototypes",
                 "concept_bank.sentence_prototypes",
                 "concept_bank.modality_rotation") + tuple(
    f"spec.{field.name}" for field in dataclasses.fields(CorpusSpec))


@pytest.mark.parametrize("dotted", CORPUS_FIELDS)
def test_corpus_header_missing_field_exits_one(pipeline, tmp_path, capsys,
                                               dotted):
    header, *documents = pipeline.corpus_path.read_text().splitlines()
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("\n".join(
        [json.dumps(_without(json.loads(header), dotted))] + documents) + "\n")
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"missing field {dotted}" in err
    assert "line 1" in err


def _type_error(field):
    kind = "an integer" if field.type == "int" else "a number"
    return f"spec.{field.name} must be {kind}"


CORPUS_HEADER_BAD_VALUES = tuple(
    (f"spec.{field.name}", "x", _type_error(field))
    for field in dataclasses.fields(CorpusSpec)) + (
    ("spec.regions_per_image", 8.0,
     "spec.regions_per_image must be an integer"),
    ("spec.extra", 1, "unknown field spec.extra"),
    ("spec.concepts", 1, "spec.concepts must be >= 2"),
    ("concept_bank.seed", "x", "concept_bank.seed must be an integer"),
    ("concept_bank.region_prototypes", "x",
     "concept_bank.region_prototypes must be numeric"),
    ("concept_bank.region_prototypes", [[1.0] * 6] * 3,
     "concept_bank.region_prototypes has shape (3, 6), expected (4, 6)"),
    ("concept_bank.sentence_prototypes", [[1.0]],
     "concept_bank.sentence_prototypes has shape (1, 1), expected (4, 6)"),
    ("concept_bank.sentence_prototypes", 3.0,
     "concept_bank.sentence_prototypes has shape (), expected (4, 6)"),
    ("concept_bank.modality_rotation", [[1.0] * 6] * 4,
     "concept_bank.modality_rotation has shape (4, 6), expected (6, 6)"),
)


@pytest.mark.parametrize(
    "dotted,value,message", CORPUS_HEADER_BAD_VALUES,
    ids=[f"{dotted}={json.dumps(value)}"
         for dotted, value, _ in CORPUS_HEADER_BAD_VALUES])
def test_corpus_header_field_of_wrong_type_exits_one(pipeline, tmp_path,
                                                     capsys, dotted, value,
                                                     message):
    def put(node, key):
        node[key] = value

    header, *documents = pipeline.corpus_path.read_text().splitlines()
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("\n".join(
        [json.dumps(_edited(json.loads(header), dotted, put))] + documents)
        + "\n")
    rc = cli.main(["train", "--config", str(pipeline.config_path),
                   "--corpus", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "line 1" in err


def _command_args(command, pipeline, corpus, out):
    args = [command, "--config", str(pipeline.config_path),
            "--corpus", str(corpus), "--out", str(out)]
    if command == "eval":
        args += ["--checkpoint", str(pipeline.checkpoint_path)]
    return args


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_version_1_corpus_exits_one(pipeline, tmp_path, capsys, command):
    # a version-1 file holds its bags as numbers; gen-data writes version 2
    lines = pipeline.corpus_path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 1
    old = tmp_path / "old.jsonl"
    old.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    out = tmp_path / "out"
    assert cli.main(_command_args(command, pipeline, old, out)) == 1
    assert f"{old}: unsupported corpus format_version 1" in \
        capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_non_finite_corpus_value_exits_one(pipeline, tmp_path, capsys,
                                           command):
    def nan_in_second_region(doc):
        row = doc["regions"][1]
        doc["regions"][1] = row[:-16] + struct.pack("<d", math.nan).hex()

    edited, image_id = _every_document_edited(pipeline, tmp_path,
                                              nan_in_second_region)
    out = tmp_path / "out"
    assert cli.main(_command_args(command, pipeline, edited, out)) == 1
    assert f"line 2: image_id {image_id}: regions[1] holds a non-finite " \
        f"value" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
