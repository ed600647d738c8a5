"""Contrastive training loop with in-batch negatives and AdamW.

Each step samples a batch of distinct documents, draws a fixed-size
sentence bag per document (uniformly with replacement, so short
documents simply repeat sentences), scores every image against every
document in one shared table, and minimizes the mean text-to-image
contrastive loss. The learning rate warms up linearly and then follows
a cosine decay. Checkpoints capture parameters, optimizer moments, and
the sampler state, so a resumed run reproduces the uninterrupted run
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import jsonio
from .autodiff import ContractError, Var, as_var
from .aggregators import (
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    SentenceAggregatorSpec,
    bind_global_spec,
    spec_from_dict,
    spec_to_dict,
)
from .encoders import (
    ModelConfig,
    decay_mask,
    encode_bag,
    global_param_flags,
    init_model,
    model_config_from_dict,
    param_count,
    param_template,
    unflatten_params,
)
from .objective import Temperature, infonce_score_table
from .scoring import pairwise_score_tables

CHECKPOINT_VERSION = 1


class NonFiniteLossError(RuntimeError):
    """Training produced a non-finite loss or parameter."""


@dataclass(frozen=True, eq=False)
class TrainConfig:
    model: ModelConfig
    local_agg: LocalAggregatorSpec | None = None
    global_agg: GlobalAggregatorSpec | None = None
    sentence_agg: SentenceAggregatorSpec = SentenceAggregatorSpec(kind="Avg")
    batch_size: int = 32
    sentences_per_bag: int = 5
    epochs: int = 15
    peak_lr: float = 0.02
    warmup_steps: int = 50
    weight_decay: float = 0.01
    betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    gamma_init: float = 14.0
    seed: int = 0

    def __post_init__(self):
        if self.local_agg is None and self.global_agg is None:
            raise ContractError("local_agg and global_agg: at least one must "
                                "be set")
        needs = global_param_flags(
            None if self.global_agg is None else self.global_agg.kind)
        if self.model.use_nl != needs["use_nl"]:
            raise ContractError("model.use_nl must be set exactly when the "
                                "global aggregator is NL")
        if self.model.use_att != needs["use_att"]:
            raise ContractError("model.use_att must be set exactly when the "
                                "global aggregator is Att")
        if self.batch_size < 2:
            raise ContractError("batch_size must be >= 2")
        if self.sentences_per_bag < 1:
            raise ContractError("sentences_per_bag must be >= 1")
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if not self.peak_lr > 0.0:
            raise ContractError("peak_lr must be > 0")
        if self.warmup_steps < 0:
            raise ContractError("warmup_steps must be >= 0")
        if not self.weight_decay >= 0.0:
            raise ContractError("weight_decay must be >= 0")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ContractError("betas must be two values in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ContractError("adam_eps must be > 0")
        if not self.gamma_init > 0.0:
            raise ContractError("gamma_init must be > 0")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "local_agg": spec_to_dict(self.local_agg),
            "global_agg": spec_to_dict(self.global_agg),
            "sentence_agg": spec_to_dict(self.sentence_agg),
            "batch_size": self.batch_size,
            "sentences_per_bag": self.sentences_per_bag,
            "epochs": self.epochs,
            "peak_lr": self.peak_lr,
            "warmup_steps": self.warmup_steps,
            "weight_decay": self.weight_decay,
            "betas": list(self.betas),
            "adam_eps": self.adam_eps,
            "gamma_init": self.gamma_init,
            "seed": self.seed,
        }


def read_betas(d: dict, path: str) -> tuple:
    """The two AdamW decay rates at `path`.betas, or a ContractError naming
    that path."""
    betas = jsonio.require_array(d, "betas", path)
    if betas.shape != (2,):
        raise ContractError(f"{path}.betas must be a list of two numbers")
    return float(betas[0]), float(betas[1])


def train_config_from_dict(d: dict, path: str = "config") -> TrainConfig:
    """Inverse of TrainConfig.to_dict; a missing, wrongly typed or unknown
    field raises ContractError naming its dotted path under `path`."""
    def spec(cls, key):
        return spec_from_dict(cls, jsonio.require(d, key, path),
                              f"{path}.{key}")

    return jsonio.read_dataclass(
        TrainConfig, d, path,
        model=model_config_from_dict(jsonio.require(d, "model", path),
                                     f"{path}.model"),
        local_agg=spec(LocalAggregatorSpec, "local_agg"),
        global_agg=spec(GlobalAggregatorSpec, "global_agg"),
        sentence_agg=spec(SentenceAggregatorSpec, "sentence_agg"),
        betas=read_betas(d, path),
    )


@dataclass(eq=False)
class OptimizerState:
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def init_optimizer_state(length: int) -> OptimizerState:
    return OptimizerState(step=0, first_moment=np.zeros(length),
                          second_moment=np.zeros(length))


@dataclass(eq=False)
class BatchItem:
    document: object
    sentence_bag: np.ndarray  # (sentences_per_bag, sentence_dim)


def _documents_of(corpus) -> list:
    return list(getattr(corpus, "documents", corpus))


def sample_batch(corpus_train, config: TrainConfig, rng: np.random.Generator):
    """Draw batch_size distinct documents, then one fixed-size sentence bag
    per document (uniform with replacement). Negatives are implicit: every
    other image in the batch."""
    docs = _documents_of(corpus_train)
    if len(docs) < config.batch_size:
        raise ContractError(f"training corpus has {len(docs)} documents, "
                            f"fewer than batch_size={config.batch_size}")
    chosen = rng.choice(len(docs), size=config.batch_size, replace=False)
    batch = []
    for raw in chosen:
        doc = docs[int(raw)]
        available = doc.sentence_observations.shape[0]
        if available < 1:
            raise ContractError(f"document {doc.image_id} has no sentences")
        picks = rng.integers(0, available, size=config.sentences_per_bag)
        batch.append(BatchItem(document=doc,
                               sentence_bag=doc.sentence_observations[picks]))
    return batch


def lr_at_step(t: int, peak_lr: float, warmup_steps: int,
               total_steps: int) -> float:
    """Linear warmup to peak_lr, then cosine decay to zero at total_steps."""
    if t < 0:
        raise ContractError("step index must be >= 0")
    if total_steps <= warmup_steps:
        raise ContractError(f"total_steps={total_steps} must exceed "
                            f"warmup_steps={warmup_steps}")
    if t < warmup_steps:
        return peak_lr * t / warmup_steps
    frac = (t - warmup_steps) / (total_steps - warmup_steps)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def adamw_step(params_flat, grads_flat, state: OptimizerState, lr: float,
               config: TrainConfig):
    """One decoupled-weight-decay update; decay skips biases and the
    temperature. Returns (new_params, new_state) without mutating inputs."""
    p = np.asarray(params_flat, dtype=np.float64)
    g = np.asarray(grads_flat, dtype=np.float64)
    if p.ndim != 1 or p.shape != g.shape:
        raise ContractError("parameter and gradient vectors must be 1-D and "
                            "the same length")
    if state.first_moment.shape != p.shape or \
            state.second_moment.shape != p.shape:
        raise ContractError("optimizer state does not match the parameter "
                            "vector length")
    beta1, beta2 = config.betas
    t = state.step + 1
    m = beta1 * state.first_moment + (1.0 - beta1) * g
    v = beta2 * state.second_moment + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    decayed = decay_mask(config.model) * p
    new_p = p - lr * (m_hat / (np.sqrt(v_hat) + config.adam_eps)
                      + config.weight_decay * decayed)
    return new_p, OptimizerState(step=t, first_moment=m, second_moment=v)


def batch_loss(config: TrainConfig, flat, batch) -> Var:
    """Mean contrastive loss of one batch through the shared score tables.

    `flat` is the flattened parameter vector (ndarray or Var); pass a Var
    leaf to obtain gradients via backward().
    """
    if len(batch) < 2:
        raise ContractError("a batch needs at least two documents for "
                            "in-batch negatives")
    leaf = as_var(flat)
    params = unflatten_params(config.model, leaf)
    n_regions = batch[0].document.region_observations.shape[0]
    for item in batch:
        if item.document.region_observations.shape[0] != n_regions:
            raise ContractError("all images in a batch must have the same "
                                "number of regions")
        if item.sentence_bag.shape[0] != config.sentences_per_bag:
            raise ContractError("every sentence bag must have exactly "
                                "sentences_per_bag rows")
    regions = np.concatenate(
        [item.document.region_observations for item in batch], axis=0)
    sentences = np.concatenate(
        [item.sentence_bag for item in batch], axis=0)
    region_feats = encode_bag(params.region_encoder, regions)
    sentence_feats = encode_bag(params.sentence_encoder, sentences)
    global_spec = None
    if config.global_agg is not None:
        global_spec = bind_global_spec(config.global_agg,
                                       sim_map=params.sim_map,
                                       att_proj=params.att_proj,
                                       att_vec=params.att_vec)
    table_l, table_g = pairwise_score_tables(
        region_feats, n_regions, sentence_feats, config.sentences_per_bag,
        config.local_agg, global_spec, config.sentence_agg)
    temp = Temperature(log_gamma=params.log_gamma)
    total = None
    for table in (table_l, table_g):
        if table is None:
            continue
        term = infonce_score_table(table, temp)
        total = term if total is None else ad.add(total, term)
    return total


@dataclass(eq=False)
class TrainResult:
    config: TrainConfig
    params_flat: np.ndarray
    optimizer: OptimizerState
    rng_state: dict
    step: int
    total_steps: int
    log_rows: list  # (step, lr, loss, gamma) per completed step


@dataclass(eq=False)
class Checkpoint:
    config: TrainConfig
    params_flat: np.ndarray
    optimizer: OptimizerState
    rng_state: dict
    step: int


def train(corpus_train, config: TrainConfig, resume: Checkpoint | None = None,
          max_steps: int | None = None) -> TrainResult:
    """Run (or continue) training; fully deterministic given (config, corpus).

    `max_steps` caps how many steps THIS call performs, which together
    with checkpoints lets tests interleave save/load without changing
    the trajectory.
    """
    docs = _documents_of(corpus_train)
    if len(docs) < config.batch_size:
        raise ContractError(f"training corpus has {len(docs)} documents, "
                            f"fewer than batch_size={config.batch_size}")
    batches_per_epoch = len(docs) // config.batch_size
    total_steps = config.epochs * batches_per_epoch

    if resume is None:
        root = np.random.SeedSequence(config.seed)
        init_seq, sample_seq = root.spawn(2)
        flat = init_model(config.model, config.gamma_init, init_seq)
        state = init_optimizer_state(flat.shape[0])
        rng = np.random.default_rng(sample_seq)
        step = 0
    else:
        own = jsonio.fingerprint(config.to_dict())
        theirs = jsonio.fingerprint(resume.config.to_dict())
        if own != theirs:
            raise ContractError("checkpoint was produced under a different "
                                "configuration; refusing to resume")
        flat = resume.params_flat.copy()
        state = resume.optimizer
        rng = np.random.default_rng(0)
        rng.bit_generator.state = resume.rng_state
        step = resume.step

    rows = []
    done = 0
    while step < total_steps and (max_steps is None or done < max_steps):
        batch = sample_batch(docs, config, rng)
        lr = lr_at_step(step, config.peak_lr, config.warmup_steps, total_steps)
        gamma = float(np.exp(flat[-1]))
        leaf = Var(flat)
        loss = batch_loss(config, leaf, batch)
        loss_value = float(loss.value)
        if not np.isfinite(loss_value):
            ids = [item.document.image_id for item in batch]
            raise NonFiniteLossError(f"non-finite loss at step {step} "
                                     f"(batch image ids {ids})")
        loss.backward()
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(flat)
        flat, state = adamw_step(flat, grad, state, lr, config)
        if not np.all(np.isfinite(flat)):
            ids = [item.document.image_id for item in batch]
            raise NonFiniteLossError(f"non-finite parameters after step {step} "
                                     f"(batch image ids {ids})")
        rows.append((step, lr, loss_value, gamma))
        step += 1
        done += 1
    return TrainResult(config=config, params_flat=flat, optimizer=state,
                       rng_state=rng.bit_generator.state, step=step,
                       total_steps=total_steps, log_rows=rows)


def _param_order(model: ModelConfig) -> list:
    """The checkpoint's record of the parameter layout, one entry per
    template field."""
    return [{"name": name, "shape": list(shape), "decay": decay}
            for name, shape, decay in param_template(model)]


def save_checkpoint(path, config: TrainConfig, params_flat, state: OptimizerState,
                    rng_state: dict, step: int,
                    config_fingerprint: str = "") -> None:
    params = np.asarray(params_flat, dtype=np.float64)
    expected = param_count(config.model)
    if params.shape != (expected,):
        raise ContractError(f"parameter vector has length {params.shape}, "
                            f"expected ({expected},)")
    payload = {
        "kind": "checkpoint",
        "format_version": CHECKPOINT_VERSION,
        "config_fingerprint": config_fingerprint,
        "config": config.to_dict(),
        "param_order": _param_order(config.model),
        "params": params,
        "optimizer": {
            "step": state.step,
            "first_moment": state.first_moment,
            "second_moment": state.second_moment,
        },
        "rng": rng_state,
        "step": step,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps_canonical(payload) + "\n")


def save_result(path, result: TrainResult, config_fingerprint: str = "") -> None:
    save_checkpoint(path, result.config, result.params_flat, result.optimizer,
                    result.rng_state, result.step, config_fingerprint)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = jsonio.loads(text)
    except ValueError as exc:
        raise ContractError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return _checkpoint_from_payload(payload)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc


def _checkpoint_from_payload(payload) -> Checkpoint:
    if not isinstance(payload, dict) or payload.get("kind") != "checkpoint":
        raise ContractError("not a checkpoint file")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version "
                            f"{payload.get('format_version')!r}")
    if "rng" not in payload or not isinstance(payload["rng"], dict):
        raise ContractError("missing sampler state; cannot resume "
                            "deterministically")
    try:
        np.random.default_rng(0).bit_generator.state = payload["rng"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"rng is not a valid sampler state "
                            f"({type(exc).__name__}: {exc})") from exc
    config = train_config_from_dict(jsonio.require(payload, "config"))
    if payload.get("param_order") != _param_order(config.model):
        raise ContractError("parameter layout does not match the configured "
                            "model")
    params = jsonio.require_array(payload, "params")
    if params.shape != (param_count(config.model),):
        raise ContractError("parameter vector length mismatch")
    opt = jsonio.require(payload, "optimizer")
    state = OptimizerState(
        step=jsonio.require_int(opt, "step", "optimizer"),
        first_moment=jsonio.require_array(opt, "first_moment", "optimizer"),
        second_moment=jsonio.require_array(opt, "second_moment", "optimizer"),
    )
    if state.first_moment.shape != params.shape or \
            state.second_moment.shape != params.shape:
        raise ContractError("optimizer state length mismatch")
    step = jsonio.require_int(payload, "step")
    if state.step < 0 or step < 0:
        raise ContractError("negative step counter")
    return Checkpoint(config=config, params_flat=params, optimizer=state,
                      rng_state=payload["rng"], step=step)


def write_training_log(path, rows, config_fingerprint: str = "") -> None:
    """CSV log, one row per step, floats at full precision."""
    comments = (f"config {config_fingerprint}",) if config_fingerprint else ()
    jsonio.write_csv(path, ("step", "lr", "loss", "gamma"), rows, comments)
