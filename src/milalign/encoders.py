"""Two small tanh encoders and the flat parameter vector that is the
model's only parameter store.

`param_template` lays the vector out; `init_model` draws it, the
optimizer, the checkpoints and the gradient checks work on it as it is,
and `unflatten_params` cuts it into named fields where a forward pass
needs them."""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import jsonio
from .autodiff import ContractError, Var, as_var


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and optional aggregator parameters of one model."""

    region_input_dim: int
    sentence_input_dim: int
    hidden_dim: int
    embed_dim: int
    use_nl: bool = False
    use_att: bool = False

    def __post_init__(self):
        for name in ("region_input_dim", "sentence_input_dim", "hidden_dim",
                     "embed_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


def model_config_from_dict(d: dict, path: str = "model") -> ModelConfig:
    """Inverse of ModelConfig.to_dict: every field is required and read as
    its annotated type; a missing, wrongly typed or unknown field raises
    ContractError naming its dotted path under `path`."""
    return jsonio.read_dataclass(ModelConfig, d, path)


@dataclass(eq=False)
class EncoderParams:
    """Weights of one two-layer tanh encoder: W2 @ tanh(W1 @ v + b1) + b2."""

    W1: object
    b1: object
    W2: object
    b2: object


@dataclass(eq=False)
class ModelParams:
    region_encoder: EncoderParams
    sentence_encoder: EncoderParams
    log_gamma: object
    sim_map: object = None   # NL similarity metric over embedded regions
    att_proj: object = None  # Att projection into the attention space
    att_vec: object = None   # Att scoring vector


def encode_bag(params: EncoderParams, observations) -> Var:
    """Encode a (N, D_in) bag of observations row by row; rows never mix,
    so reordering inputs reorders outputs bit for bit."""
    obs = as_var(observations)
    if obs.value.ndim != 2 or obs.value.shape[0] == 0:
        raise ContractError("encode_bag expects a non-empty (count, dim) array")
    w1 = as_var(params.W1)
    if obs.value.shape[1] != w1.value.shape[1]:
        raise ContractError(
            f"encoder input dim mismatch: got {obs.value.shape[1]}, "
            f"expected {w1.value.shape[1]}"
        )
    hidden = ad.tanh(ad.add(ad.matmul(obs, ad.transpose(w1)), params.b1))
    return ad.add(ad.matmul(hidden, ad.transpose(as_var(params.W2))), params.b2)


def global_param_flags(global_kind: str | None) -> dict:
    """The ModelConfig flags that give a global aggregator of `global_kind`
    (None: no global route) its parameters: NL its similarity map, Att its
    projection and scoring vector."""
    return {"use_nl": global_kind == "NL", "use_att": global_kind == "Att"}


class _Layout(NamedTuple):
    template: tuple         # (name, shape, weight_decay) per field
    count: int
    slices: tuple           # (name, start, stop, shape) per field
    decay_mask: np.ndarray  # read-only


@functools.lru_cache(maxsize=32)
def _layout(config: ModelConfig) -> _Layout:
    """The flat parameter layout of `config`, built once per config, since
    every training step cuts the vector and masks its decay."""
    h, d = config.hidden_dim, config.embed_dim
    dr, ds = config.region_input_dim, config.sentence_input_dim
    entries = [
        ("region.W1", (h, dr), True),
        ("region.b1", (h,), False),
        ("region.W2", (d, h), True),
        ("region.b2", (d,), False),
        ("sentence.W1", (h, ds), True),
        ("sentence.b1", (h,), False),
        ("sentence.W2", (d, h), True),
        ("sentence.b2", (d,), False),
    ]
    if config.use_nl:
        entries.append(("sim_map", (d, d), True))
    if config.use_att:
        entries.append(("att_proj", (d, d), True))
        entries.append(("att_vec", (d,), True))
    entries.append(("log_gamma", (), False))
    slices, masks, offset = [], [], 0
    for name, shape, decay in entries:
        size = int(np.prod(shape, dtype=np.int64))
        slices.append((name, offset, offset + size, shape))
        masks.append(np.full(size, 1.0 if decay else 0.0))
        offset += size
    mask = np.concatenate(masks)
    mask.setflags(write=False)
    return _Layout(tuple(entries), offset, tuple(slices), mask)


def param_template(config: ModelConfig) -> tuple:
    """Flat parameter layout: (name, shape, weight_decay) per field, in the
    fixed order used everywhere parameters are serialized."""
    return _layout(config).template


def param_count(config: ModelConfig) -> int:
    return _layout(config).count


def decay_mask(config: ModelConfig) -> np.ndarray:
    """1.0 where weight decay applies, 0.0 for biases and the temperature;
    read-only, as every caller of one config shares it."""
    return _layout(config).decay_mask


def _glorot(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    if len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_out, fan_in = shape
    r = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


def init_model(config: ModelConfig, gamma_init: float,
               seed: int | np.random.SeedSequence) -> np.ndarray:
    """Deterministic initial parameter vector, drawn field by field in
    template order: Glorot-uniform weights, zero biases, the NL sim_map
    as identity plus 0.01 * N(0, 1), and log(gamma_init) as log_gamma."""
    if not gamma_init > 0.0:
        raise ContractError("gamma_init must be positive")
    rng = np.random.default_rng(seed)
    parts = []
    for name, shape, decay in param_template(config):
        if name == "log_gamma":
            value = np.array([math.log(gamma_init)])
        elif name == "sim_map":
            value = np.eye(shape[0]) + 0.01 * rng.standard_normal(shape)
        elif decay:  # every other decayed field is a weight
            value = _glorot(rng, shape)
        else:
            value = np.zeros(shape)
        parts.append(value.ravel())
    return np.concatenate(parts)


def unflatten_params(config: ModelConfig, flat) -> ModelParams:
    """The named fields of a flat parameter vector, cut in template order.

    Accepts a plain ndarray or a Var; with a Var the fields are views in
    the same tape, so a loss built from them differentiates with respect
    to the flat vector.
    """
    layout = _layout(config)
    is_var = isinstance(flat, Var)
    length = flat.value.shape[0] if is_var else np.asarray(flat).shape[0]
    if length != layout.count:
        raise ContractError(
            f"flat parameter vector has length {length}, expected {layout.count}"
        )
    fields = {}
    for name, start, stop, shape in layout.slices:
        chunk = flat[start:stop]
        if is_var:
            fields[name] = ad.reshape(chunk, shape)
        else:
            fields[name] = np.asarray(chunk, dtype=np.float64).reshape(shape)
    region = EncoderParams(W1=fields["region.W1"], b1=fields["region.b1"],
                           W2=fields["region.W2"], b2=fields["region.b2"])
    sentence = EncoderParams(W1=fields["sentence.W1"], b1=fields["sentence.b1"],
                             W2=fields["sentence.W2"], b2=fields["sentence.b2"])
    return ModelParams(
        region_encoder=region,
        sentence_encoder=sentence,
        log_gamma=fields["log_gamma"],
        sim_map=fields.get("sim_map"),
        att_proj=fields.get("att_proj"),
        att_vec=fields.get("att_vec"),
    )
