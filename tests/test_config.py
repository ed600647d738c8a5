"""Strict config parsing: defaults, dotted-path rejection of unknown keys,
wholesale aggregator overrides, and derived model dimensions."""

import dataclasses
import re

import numpy as np
import pytest

from milalign import jsonio
from milalign.autodiff import ContractError
from milalign.config import (
    AblationOptions,
    EvalOptions,
    default_config,
    experiment_from_dict,
    merge_config,
    parse_config,
)
from milalign.encoders import ModelConfig
from milalign.synthgen import CorpusSpec
from milalign.trainer import TrainConfig


def test_default_fingerprint_is_stable():
    cfg = experiment_from_dict({})
    assert cfg.fingerprint == "bb5814d7c3f8f5e6"
    assert cfg.fingerprint == jsonio.fingerprint(default_config())


def test_small_override_fingerprint_is_stable():
    cfg = experiment_from_dict({"ablation": {"seeds": [0], "epochs": 2},
                                "train": {"warmup_steps": 10}})
    assert cfg.fingerprint == "9c31c7bf72c2ad11"


def test_defaults_round_trip_through_serialize():
    cfg = experiment_from_dict({})
    assert jsonio.loads(jsonio.dumps_canonical(cfg.merged)) == cfg.merged
    assert cfg.merged["train"]["epochs"] == 15
    assert cfg.merged["train"]["batch_size"] == 32
    assert cfg.corpus.documents == 2000
    assert cfg.train.model.hidden_dim == 32
    assert cfg.train.model.embed_dim == 16
    assert cfg.eval_options.zero_shot_documents == 200
    assert cfg.ablation.seeds == (0, 1, 2)
    assert cfg.ablation.epochs is None


def test_unknown_keys_are_rejected_with_dotted_path():
    with pytest.raises(ContractError, match="unknown config key: trian"):
        merge_config({"trian": {}})
    with pytest.raises(ContractError, match="unknown config key: train.bogus"):
        merge_config({"train": {"bogus": 1}})
    with pytest.raises(ContractError,
                       match="unknown config key: corpus.regions"):
        merge_config({"corpus": {"regions": 5}})
    with pytest.raises(ContractError,
                       match="unknown field train.local_agg.bogus"):
        experiment_from_dict({"train": {"local_agg": {"kind": "LSE",
                                                      "bogus": 1}}})


def test_scalar_overrides_merge_on_top_of_defaults():
    merged = merge_config({"train": {"epochs": 3}})
    assert merged["train"]["epochs"] == 3
    assert merged["train"]["batch_size"] == 32
    assert merged["corpus"]["documents"] == 2000


def test_aggregator_override_replaces_wholesale():
    # the default LSE gamma must not leak into a Max override
    merged = merge_config({"train": {"local_agg": {"kind": "Max"}}})
    assert merged["train"]["local_agg"] == {"kind": "Max"}
    cfg = experiment_from_dict({"train": {"local_agg": {"kind": "Max"}}})
    assert cfg.train.local_agg.kind == "Max"
    assert cfg.train.local_agg.gamma is None


def test_aggregator_null_disables_route():
    cfg = experiment_from_dict({"train": {"global_agg": None}})
    assert cfg.train.global_agg is None
    assert not cfg.train.model.use_nl
    assert not cfg.train.model.use_att


def test_aggregator_requires_kind():
    with pytest.raises(ContractError, match="train.local_agg.kind"):
        experiment_from_dict({"train": {"local_agg": {"gamma": 0.5}}})
    with pytest.raises(ContractError,
                       match="train.global_agg must be a JSON object"):
        experiment_from_dict({"train": {"global_agg": "NL"}})


def test_sentence_aggregator_cannot_be_null():
    with pytest.raises(ContractError,
                       match="train.sentence_agg must be a JSON object"):
        experiment_from_dict({"train": {"sentence_agg": None}})


def test_aggregator_objects_take_only_kind_and_gamma():
    with pytest.raises(ContractError,
                       match="unknown field train.local_agg.nand_slope"):
        experiment_from_dict({"train": {"local_agg": {"kind": "NAND",
                                                      "nand_slope": 5}}})
    with pytest.raises(ContractError,
                       match="train.local_agg: local Max takes no gamma"):
        experiment_from_dict({"train": {"local_agg": {"kind": "Max",
                                                      "gamma": 7.0}}})
    cfg = experiment_from_dict({"train": {"local_agg": {"kind": "NAND"}}})
    assert cfg.train.local_agg.kind == "NAND"


def test_section_that_is_not_an_object_names_the_section():
    for section in ("corpus", "model", "train", "eval", "ablation"):
        with pytest.raises(ContractError,
                           match=f"^{section} must be a JSON object"):
            experiment_from_dict({section: 5})


def test_global_kind_selects_model_parameters():
    cfg = experiment_from_dict({})
    assert cfg.train.model.use_nl
    assert not cfg.train.model.use_att
    cfg = experiment_from_dict({"train": {"global_agg": {"kind": "Att"}}})
    assert cfg.train.model.use_att
    assert not cfg.train.model.use_nl
    cfg = experiment_from_dict({"train": {"global_agg": {"kind": "Avg"}}})
    assert not cfg.train.model.use_att
    assert not cfg.train.model.use_nl


def test_model_dims_follow_corpus():
    cfg = experiment_from_dict({"corpus": {"region_dim": 9,
                                           "sentence_dim": 11}})
    assert cfg.train.model.region_input_dim == 9
    assert cfg.train.model.sentence_input_dim == 11


def test_booleans_are_not_integers():
    with pytest.raises(ContractError, match="train.batch_size"):
        experiment_from_dict({"train": {"batch_size": True}})
    with pytest.raises(ContractError, match="corpus.seed"):
        experiment_from_dict({"corpus": {"seed": False}})
    with pytest.raises(ContractError, match="train.peak_lr"):
        experiment_from_dict({"train": {"peak_lr": True}})


def test_type_errors_name_the_field():
    with pytest.raises(ContractError, match="model.hidden_dim"):
        experiment_from_dict({"model": {"hidden_dim": 2.5}})
    with pytest.raises(ContractError, match="train.epochs"):
        experiment_from_dict({"train": {"epochs": "15"}})
    with pytest.raises(ContractError, match="corpus.noise_sigma"):
        experiment_from_dict({"corpus": {"noise_sigma": "small"}})


@pytest.mark.parametrize("override,message", [
    ({"corpus": {"concepts": 1}}, "corpus.concepts must be >= 2"),
    ({"model": {"hidden_dim": 0}}, "model.hidden_dim must be >= 1"),
    ({"train": {"batch_size": 1}}, "train.batch_size must be >= 2"),
    ({"train": {"local_agg": None, "global_agg": None}},
     "train.local_agg and global_agg: at least one must be set"),
], ids=["corpus", "model", "train", "train-routes"])
def test_range_errors_name_the_section(override, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        experiment_from_dict(override)


def test_global_nl_requires_gamma():
    with pytest.raises(ContractError, match="train.global_agg: global NL "
                                            "requires a finite gamma"):
        experiment_from_dict({"train": {"global_agg": {"kind": "NL"}}})
    with pytest.raises(ContractError, match="train.global_agg.gamma must be"):
        experiment_from_dict({"train": {"global_agg": {"kind": "NL",
                                                       "gamma": "e"}}})
    cfg = experiment_from_dict({"train": {"global_agg": {"kind": "CA"}}})
    assert cfg.train.global_agg.gamma is None


def test_betas_must_be_two_numbers():
    for betas in (0.9, [0.9], [0.9, 0.99, 0.999], ["a", "b"]):
        with pytest.raises(ContractError, match="train.betas"):
            experiment_from_dict({"train": {"betas": betas}})


def test_ablation_validation():
    with pytest.raises(ContractError, match="ablation.seeds"):
        experiment_from_dict({"ablation": {"seeds": []}})
    with pytest.raises(ContractError, match="ablation.seeds"):
        experiment_from_dict({"ablation": {"seeds": [0, True]}})
    with pytest.raises(ContractError, match="ablation.epochs"):
        experiment_from_dict({"ablation": {"epochs": 0}})
    cfg = experiment_from_dict({"ablation": {"seeds": [5], "epochs": 2}})
    assert cfg.ablation.seeds == (5,)
    assert cfg.ablation.epochs == 2


def test_eval_options():
    cfg = experiment_from_dict({"eval": {"retrieval_cases": None}})
    assert cfg.eval_options.retrieval_cases is None
    with pytest.raises(ContractError, match="eval.retrieval_cases"):
        experiment_from_dict({"eval": {"retrieval_cases": 1}})
    cfg = experiment_from_dict({"eval": {"export_score_maps": True}})
    assert cfg.eval_options.export_score_maps is True
    for value in ("no", 0, 1, None):
        with pytest.raises(ContractError,
                           match="eval.export_score_maps must be true or false"):
            experiment_from_dict({"eval": {"export_score_maps": value}})


def test_document_must_be_object():
    with pytest.raises(ContractError, match="JSON object"):
        merge_config([1, 2, 3])


def test_fingerprint_changes_with_content():
    base = experiment_from_dict({}).fingerprint
    other = experiment_from_dict({"train": {"seed": 1}}).fingerprint
    assert base != other
    again = experiment_from_dict({"train": {"seed": 0}}).fingerprint
    assert base == again  # explicit default equals implicit default


def test_parse_config_files(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"train": {"epochs": 2}}')
    cfg = parse_config(path)
    assert cfg.train.epochs == 2

    with pytest.raises(ContractError, match="not found"):
        parse_config(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ContractError, match="malformed JSON"):
        parse_config(bad)


def test_train_section_feeds_train_config():
    cfg = experiment_from_dict({"train": {"batch_size": 8, "epochs": 2,
                                          "peak_lr": 0.005,
                                          "warmup_steps": 7,
                                          "gamma_init": 10.0,
                                          "betas": [0.8, 0.99]}})
    assert cfg.train.batch_size == 8
    assert cfg.train.epochs == 2
    assert cfg.train.peak_lr == 0.005
    assert cfg.train.warmup_steps == 7
    assert cfg.train.gamma_init == 10.0
    assert cfg.train.betas == (0.8, 0.99)
    assert np.isclose(cfg.train.weight_decay, 0.01)


def test_every_dataclass_field_has_a_reader(monkeypatch):
    # read_dataclass reads a field by its annotation unless the caller
    # passes it in `given`; a field of any other type would fail at run
    # time with a KeyError instead of a message naming it
    seen = {}
    real = jsonio.read_dataclass

    def spy(cls, obj, path="", **given):
        seen[cls.__name__] = set(given)
        return real(cls, obj, path, **given)

    monkeypatch.setattr(jsonio, "read_dataclass", spy)
    experiment_from_dict({})
    classes = (CorpusSpec, ModelConfig, TrainConfig, EvalOptions,
               AblationOptions)
    assert set(seen) == {cls.__name__ for cls in classes}
    for cls in classes:
        for field in dataclasses.fields(cls):
            assert field.name in seen[cls.__name__] or \
                field.type in jsonio._FIELD_READERS, \
                f"{cls.__name__}.{field.name}: {field.type}"


def test_optional_int_fields_read_null_and_absent_as_none():
    assert jsonio.read_dataclass(EvalOptions, {
        "zero_shot_documents": 5, "retrieval_cases": None,
        "export_score_maps": False}).retrieval_cases is None
    assert jsonio.read_dataclass(
        AblationOptions, {}, "ablation", seeds=(0,)).epochs is None
    with pytest.raises(ContractError, match="ablation.epochs must be an "
                                            "integer"):
        jsonio.read_dataclass(AblationOptions, {"epochs": 1.5}, "ablation",
                              seeds=(0,))
