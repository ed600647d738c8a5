"""Experiment configuration: defaults, strict parsing, fingerprinting.

One JSON document determines an entire run. Parsing is strict: any key
that is not part of the schema is rejected with its dotted path, so a
typo in an aggregator name cannot silently fall back to a default.
Aggregator sub-objects replace their default wholesale (merging would
leak the default LSE gamma into, say, a Max override); everything else
merges field by field on top of the defaults.

Each schema has one reader, shared with the files that embed it: the
`corpus` section goes through `synthgen.spec_from_dict` (which also reads
corpus headers), the `train` section, with the model dimensions taken
from the corpus, through `trainer.train_config_from_dict` (which also
reads checkpoints) and its aggregator objects through
`aggregators.spec_from_dict`. The `eval` and `ablation` sections are
read by `jsonio.read_dataclass` like every other dataclass.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import jsonio, synthgen
from .aggregators import GlobalAggregatorSpec, spec_from_dict
from .autodiff import ContractError
from .encoders import global_param_flags, model_config_from_dict
from .trainer import TrainConfig, train_config_from_dict

_AGG_PATHS = ("train.local_agg", "train.global_agg", "train.sentence_agg")


def default_config() -> dict:
    """The fully specified desk-scale experiment."""
    return {
        "corpus": synthgen.CorpusSpec().to_dict(),
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
    if not isinstance(defaults, dict) or path in _AGG_PATHS:
        return override
    if not isinstance(override, dict):
        raise ContractError(f"{path or 'config document'} must be a JSON "
                            "object")
    merged = dict(defaults)
    for key, value in override.items():
        dotted = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ContractError(f"unknown config key: {dotted}")
        merged[key] = _merge(defaults[key], value, dotted)
    return merged


def merge_config(data: dict) -> dict:
    return _merge(default_config(), data)


@dataclass(frozen=True)
class EvalOptions:
    zero_shot_documents: int = 200
    retrieval_cases: int | None = 200
    export_score_maps: bool = False

    def __post_init__(self):
        if self.zero_shot_documents < 1:
            raise ContractError("zero_shot_documents must be >= 1")
        if self.retrieval_cases is not None and self.retrieval_cases < 2:
            raise ContractError("retrieval_cases must be >= 2")


@dataclass(frozen=True)
class AblationOptions:
    seeds: tuple = (0, 1, 2)
    epochs: int | None = None

    def __post_init__(self):
        if self.epochs is not None and self.epochs < 1:
            raise ContractError("epochs must be >= 1")


def _read_seeds(d: dict, path: str) -> tuple:
    """The ablation seeds at `path`.seeds, or a ContractError naming that
    path."""
    seeds = jsonio.require(d, "seeds", path)
    if not isinstance(seeds, list) or not seeds \
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in seeds):
        raise ContractError(f"{path}.seeds must be a non-empty list of "
                            "integers")
    return tuple(seeds)


@dataclass(eq=False)
class ExperimentConfig:
    corpus: synthgen.CorpusSpec
    train: TrainConfig
    eval_options: EvalOptions
    ablation: AblationOptions
    merged: dict

    @property
    def fingerprint(self) -> str:
        return jsonio.fingerprint(self.merged)


def experiment_from_dict(data: dict) -> ExperimentConfig:
    merged = merge_config(data)
    corpus = synthgen.spec_from_dict(merged["corpus"], "corpus")
    train_raw = merged["train"]
    # the global route decides which pooler parameters the model carries
    global_agg = spec_from_dict(GlobalAggregatorSpec, train_raw["global_agg"],
                                "train.global_agg")
    model = model_config_from_dict(
        dict(merged["model"], region_input_dim=corpus.region_dim,
             sentence_input_dim=corpus.sentence_dim,
             **global_param_flags(None if global_agg is None
                                  else global_agg.kind)), "model")
    train = train_config_from_dict(dict(train_raw, model=model.to_dict()),
                                   "train")
    return ExperimentConfig(
        corpus=corpus, train=train,
        eval_options=jsonio.read_dataclass(EvalOptions, merged["eval"], "eval"),
        ablation=jsonio.read_dataclass(
            AblationOptions, merged["ablation"], "ablation",
            seeds=_read_seeds(merged["ablation"], "ablation")),
        merged=merged)


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
