"""Experiment configuration: defaults, strict parsing, fingerprinting.

One JSON document determines an entire run. Parsing is strict: any key
that is not part of the schema is rejected with its dotted path, so a
typo in an aggregator name cannot silently fall back to a default.
Aggregator sub-objects replace their default wholesale (merging would
leak the default LSE gamma into, say, a Max override); everything else
merges field by field on top of the defaults.

Each schema has one reader, shared with the files that embed it: the
`corpus` section goes through `synthgen.spec_from_dict` (which also reads
corpus headers) and the `train` section, with the model dimensions taken
from the corpus, through `trainer.train_config_from_dict` (which also
reads checkpoints).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import jsonio
from .autodiff import ContractError
from .encoders import global_param_flags
from .synthgen import CorpusSpec, spec_from_dict
from .trainer import TrainConfig, train_config_from_dict

_AGG_PATHS = ("train.local_agg", "train.global_agg", "train.sentence_agg")
_AGG_KEYS = {
    "train.local_agg": {"kind", "gamma", "nand_slope", "nand_offset"},
    "train.global_agg": {"kind", "gamma"},
    "train.sentence_agg": {"kind", "gamma"},
}


def default_config() -> dict:
    """The fully specified desk-scale experiment."""
    return {
        "corpus": CorpusSpec().to_dict(),
        "model": {"hidden_dim": 32, "embed_dim": 16},
        "train": {
            "local_agg": {"kind": "LSE", "gamma": 0.1},
            "global_agg": {"kind": "NL", "gamma": math.e},
            "sentence_agg": {"kind": "Avg"},
            "batch_size": 32,
            "sentences_per_bag": 5,
            "epochs": 15,
            "peak_lr": 0.02,
            "warmup_steps": 50,
            "weight_decay": 0.01,
            "betas": [0.9, 0.999],
            "adam_eps": 1e-8,
            "gamma_init": 14.0,
            "seed": 0,
        },
        "eval": {
            "zero_shot_documents": 200,
            "retrieval_cases": 200,
            "export_score_maps": False,
        },
        "ablation": {"seeds": [0, 1, 2], "epochs": None},
    }


def _merge(defaults, override, path=""):
    if not isinstance(override, dict) or not isinstance(defaults, dict) \
            or path in _AGG_PATHS:
        return override
    merged = dict(defaults)
    for key, value in override.items():
        dotted = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ContractError(f"unknown config key: {dotted}")
        merged[key] = _merge(defaults[key], value, dotted)
    return merged


def merge_config(data: dict) -> dict:
    if not isinstance(data, dict):
        raise ContractError("config document must be a JSON object")
    merged = _merge(default_config(), data)
    for path in _AGG_PATHS:
        section, key = path.split(".")
        _check_agg(merged[section][key], path)
    return merged


def _check_agg(value, path: str) -> None:
    if value is None:
        return
    if not isinstance(value, dict):
        raise ContractError(f"{path} must be an object or null")
    if "kind" not in value:
        raise ContractError(f"{path}.kind is required")
    for key in value:
        if key not in _AGG_KEYS[path]:
            raise ContractError(f"unknown config key: {path}.{key}")


def _require_int(section: dict, name: str, path: str, minimum=None) -> int:
    value = jsonio.require_int(section, name, path)
    if minimum is not None and value < minimum:
        raise ContractError(f"{path}.{name} must be >= {minimum}")
    return value


@dataclass(eq=False)
class EvalOptions:
    zero_shot_documents: int = 200
    retrieval_cases: int | None = 200
    export_score_maps: bool = False


@dataclass(eq=False)
class AblationOptions:
    seeds: tuple = (0, 1, 2)
    epochs: int | None = None


@dataclass(eq=False)
class ExperimentConfig:
    corpus: CorpusSpec
    train: TrainConfig
    eval_options: EvalOptions
    ablation: AblationOptions
    merged: dict

    @property
    def fingerprint(self) -> str:
        return jsonio.fingerprint(self.merged)

    def serialize(self) -> str:
        return jsonio.dumps_canonical(self.merged)


def experiment_from_dict(data: dict) -> ExperimentConfig:
    merged = merge_config(data)

    corpus = spec_from_dict(merged["corpus"], "corpus")
    model_raw = merged["model"]
    train_raw = merged["train"]
    global_raw = train_raw["global_agg"]
    model = {
        "region_input_dim": corpus.region_dim,
        "sentence_input_dim": corpus.sentence_dim,
        "hidden_dim": _require_int(model_raw, "hidden_dim", "model", minimum=1),
        "embed_dim": _require_int(model_raw, "embed_dim", "model", minimum=1),
        **global_param_flags(None if global_raw is None else global_raw["kind"]),
    }
    train = train_config_from_dict(dict(train_raw, model=model), "train")

    eval_raw = merged["eval"]
    retrieval_cases = eval_raw["retrieval_cases"]
    if retrieval_cases is not None:
        retrieval_cases = _require_int(eval_raw, "retrieval_cases", "eval",
                                       minimum=2)
    options = EvalOptions(
        zero_shot_documents=_require_int(eval_raw, "zero_shot_documents",
                                         "eval", minimum=1),
        retrieval_cases=retrieval_cases,
        export_score_maps=jsonio.require_bool(eval_raw, "export_score_maps",
                                              "eval"),
    )

    abl_raw = merged["ablation"]
    seeds = abl_raw["seeds"]
    if not isinstance(seeds, list) or not seeds \
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in seeds):
        raise ContractError("ablation.seeds must be a non-empty list of "
                            "integers")
    epochs = abl_raw["epochs"]
    if epochs is not None:
        epochs = _require_int(abl_raw, "epochs", "ablation", minimum=1)
    ablation = AblationOptions(seeds=tuple(seeds), epochs=epochs)

    return ExperimentConfig(corpus=corpus, train=train, eval_options=options,
                            ablation=ablation, merged=merged)


def parse_config(path) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ContractError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = jsonio.loads(text)
    except ValueError as exc:
        raise ContractError(f"{path}: malformed JSON: {exc}") from exc
    return experiment_from_dict(data)
