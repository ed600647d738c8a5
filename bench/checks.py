"""Output checks computed apart from the program.

Every reference here is plain numpy written from the method's definitions
(the paper's score functions, InfoNCE, the grounding and retrieval
metrics). Nothing in this module imports milalign or compares against a
stored copy of earlier output, so a fault in the program cannot hide in
the reference. Each check returns a list of problems; an empty list is a
pass. The functions take the program's outputs as plain arrays, which is
what lets the self-tests feed them deliberately wrong outputs.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance for quantities bounded by 1 in magnitude (cosines,
# bag scores). A few dozen float64 roundings, amplified at most by the
# 1/gamma = 10 of the local LSE, stay below 1e-13; any real fault is
# orders of magnitude larger.
TOL = 1e-12
# Two values closer than this may be ordered either way by rounding, so an
# argmax, a rank or a threshold decision resting on them is not compared.
TIE = 1e-12
# Floor under cosine denominators, as in the method's definition.
NORM_EPS = 1e-12


# ---------------------------------------------------------------------------
# model parameters and encoders


def param_layout(region_dim, sentence_dim, hidden, embed, use_nl, use_att):
    """(name, shape) in the documented flat order of the parameter vector."""
    h, d = hidden, embed
    layout = [("region.W1", (h, region_dim)), ("region.b1", (h,)),
              ("region.W2", (d, h)), ("region.b2", (d,)),
              ("sentence.W1", (h, sentence_dim)), ("sentence.b1", (h,)),
              ("sentence.W2", (d, h)), ("sentence.b2", (d,))]
    if use_nl:
        layout.append(("sim_map", (d, d)))
    if use_att:
        layout += [("att_proj", (d, d)), ("att_vec", (d,))]
    layout.append(("log_gamma", ()))
    return layout


def split_params(flat, layout) -> dict:
    flat = np.asarray(flat, dtype=np.float64)
    out, offset = {}, 0
    for name, shape in layout:
        size = int(np.prod(shape, dtype=np.int64))
        out[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise ValueError(f"parameter vector has {flat.size} entries, "
                         f"layout needs {offset}")
    return out


def encode(p: dict, side: str, observations) -> np.ndarray:
    """Two-layer tanh encoder W2 tanh(W1 x + b1) + b2 on the last axis."""
    x = np.asarray(observations, dtype=np.float64)
    hidden = np.tanh(x @ p[f"{side}.W1"].T + p[f"{side}.b1"])
    return hidden @ p[f"{side}.W2"].T + p[f"{side}.b2"]


def unit(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    norm = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
    return x / np.maximum(norm, NORM_EPS)


def cosines(a, b):
    """Cosine table between the rows of a and the rows of b."""
    return np.clip(unit(a) @ unit(b).T, -1.0, 1.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x, axis=-1):
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def _logsumexp(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(x - m), axis=axis))


# ---------------------------------------------------------------------------
# score functions


def local_pool(kind, scores, axis, gamma=None, nand_slope=10.0,
               nand_offset=0.5):
    """Reduce region scores in [-1, 1] along `axis` by one local aggregator."""
    s = np.asarray(scores, dtype=np.float64)
    if kind == "Max":
        return s.max(axis=axis)
    if kind == "Sum":
        return s.sum(axis=axis)
    if kind == "Avg":
        return s.mean(axis=axis)
    if kind == "LSE":
        return _logsumexp(gamma * s, axis) / gamma
    p = (s + 1.0) / 2.0  # score mapped to an instance probability
    if kind == "NOR":
        return 1.0 - 2.0 * np.prod(1.0 - p, axis=axis)
    if kind == "NAND":
        a, b = nand_slope, nand_offset
        lo, hi = _sigmoid(-a * b), _sigmoid(a * (1.0 - b))
        q = (_sigmoid(a * (p.mean(axis=axis) - b)) - lo) / (hi - lo)
        return 2.0 * q - 1.0
    raise ValueError(f"no reference for local aggregator {kind!r}")


def reference_tables(p: dict, regions, sentences, local, global_,
                     sentence_kind="Avg"):
    """Score of image j against document i, by definition, for a batch.

    `regions` is (B, N, D) and `sentences` (B, M, D), both already encoded.
    `local` is None or a dict with kind/gamma/nand_slope/nand_offset and
    `global_` None or a dict with kind/gamma. Returns (local_table,
    global_table, ambiguous), where ambiguous marks the (j, i) pairs whose
    NL critical region rests on a near-tie that rounding may resolve
    either way.
    """
    if sentence_kind != "Avg":
        raise ValueError(f"no reference for sentence aggregator {sentence_kind!r}")
    r = np.asarray(regions, dtype=np.float64)
    s = np.asarray(sentences, dtype=np.float64)
    bi, n, dim = r.shape
    bd, m, _ = s.shape
    # cos[j, i, n, m]: region n of image j against sentence m of document i
    cos = np.clip(np.einsum("jnd,imd->jinm", unit(r), unit(s)), -1.0, 1.0)
    su = unit(s)
    ambiguous = np.zeros((bi, bd), dtype=bool)

    table_l = None
    if local is not None:
        per_sentence = local_pool(local["kind"], cos, axis=2,
                                  gamma=local.get("gamma"),
                                  nand_slope=local.get("nand_slope", 10.0),
                                  nand_offset=local.get("nand_offset", 0.5))
        table_l = per_sentence.mean(axis=2)

    table_g = None
    if global_ is not None:
        kind = global_["kind"]
        if kind in ("Avg", "Att"):
            if kind == "Avg":
                pooled = r.mean(axis=1)
            else:
                logits = np.tanh(r @ p["att_proj"].T) @ p["att_vec"]  # (B, N)
                pooled = np.einsum("jn,jnd->jd", _softmax(logits, axis=1), r)
            per_sentence = np.clip(np.einsum("jd,imd->jim", unit(pooled), su),
                                   -1.0, 1.0)
        elif kind == "NL":
            critical = np.argmax(cos, axis=2)  # first maximal region (j, i, m)
            top2 = np.sort(cos, axis=2)[:, :, -2:, :]
            ambiguous = (top2[:, :, 1, :] - top2[:, :, 0, :] < TIE).any(axis=2)
            mapped = r @ p["sim_map"].T                        # (B, N, D)
            gram = np.einsum("jad,jbd->jab", mapped, mapped)   # symmetric
            picked = gram[np.arange(bi)[:, None, None], critical]  # (j,i,m,N)
            weights = _softmax(global_["gamma"] * picked, axis=3)
            pooled = np.einsum("jimn,jnd->jimd", weights, r)
            num = np.sum(pooled * su[None], axis=3)
            den = np.maximum(np.sqrt(np.sum(pooled * pooled, axis=3)), NORM_EPS)
            per_sentence = np.clip(num / den, -1.0, 1.0)
        else:
            raise ValueError(f"no reference for global aggregator {kind!r}")
        table_g = per_sentence.mean(axis=2)
    return table_l, table_g, ambiguous


def compare(got, want, what: str, tol=TOL, skip=None) -> list:
    """Problems where got and want differ by more than tol (absolute)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    diff = np.abs(got - want)
    if skip is not None:
        diff = np.where(skip, 0.0, diff)
    if not np.all(np.isfinite(got)):
        return [f"{what}: non-finite values"]
    if diff.max(initial=0.0) > tol:
        worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
        return [f"{what}: entry {tuple(int(i) for i in worst)} is "
                f"{got[worst]!r}, expected {want[worst]!r}"]
    return []


def reference_infonce(table, gamma) -> float:
    """Mean over documents of logsumexp over images minus the matched score."""
    scaled = gamma * np.asarray(table, dtype=np.float64)
    return float(np.mean(_logsumexp(scaled, axis=0) - np.diag(scaled)))


def central_difference(f, point, coordinates, step):
    """Central-difference partial derivatives of a scalar f at `point`."""
    point = np.asarray(point, dtype=np.float64)
    out = []
    for i in coordinates:
        up, down = point.copy(), point.copy()
        up[i] += step
        down[i] -= step
        out.append((f(up) - f(down)) / (2.0 * step))
    return np.asarray(out)


def gradient_problems(analytic, numeric, value, scale, tol=1e-4) -> list:
    """Relative error of a few gradient coordinates against central
    differences. The denominator has a floor: the probe's round-off
    (eps * |f| / step, below 1e-6 * |f|) and its truncation error (up to
    1e-10 on the workloads' batches) make the relative error of a coordinate far smaller
    than the gradient's largest entry `scale` meaningless, so such a
    coordinate is held to 1e-3 * scale instead."""
    floor = max(1e-6 * max(1.0, abs(value)), 1e-3 * scale)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    rel = np.abs(np.asarray(analytic) - np.asarray(numeric)) / denom
    if rel.max(initial=0.0) > tol:
        k = int(np.argmax(rel))
        return [f"gradient coordinate #{k}: analytic {analytic[k]!r}, "
                f"central difference {numeric[k]!r}"]
    return []


# ---------------------------------------------------------------------------
# evaluation metrics

IOU_THRESHOLDS = np.array([k / 20.0 for k in range(-20, 21)])


def reference_grounding(score_maps, boxes) -> dict:
    """Per-case CNR, mean IoU over the threshold grid and top-region hit.

    `score_maps` is (cases, N) of region-sentence cosines and `boxes` a
    list of region index tuples. Also returns which cases sit on a
    near-tie (a score at a threshold, or two top scores) for IoU and hit.
    """
    s = np.asarray(score_maps, dtype=np.float64)
    mask = np.zeros(s.shape, dtype=bool)
    for c, box in enumerate(boxes):
        mask[c, list(box)] = True
    n_in = mask.sum(axis=1)
    n_out = s.shape[1] - n_in
    mean_in = np.where(mask, s, 0.0).sum(axis=1) / n_in
    mean_out = np.where(mask, 0.0, s).sum(axis=1) / n_out
    var_in = np.where(mask, (s - mean_in[:, None]) ** 2, 0.0).sum(axis=1) / n_in
    var_out = np.where(mask, 0.0, (s - mean_out[:, None]) ** 2).sum(axis=1) / n_out
    cnr = np.abs(mean_in - mean_out) / np.sqrt(var_in + var_out + 1e-8)
    predicted = s[:, :, None] >= IOU_THRESHOLDS
    inter = (predicted & mask[:, :, None]).sum(axis=1)
    union = (predicted | mask[:, :, None]).sum(axis=1)
    miou = (inter / union).mean(axis=1)
    top = np.argmax(s, axis=1)
    hit = mask[np.arange(s.shape[0]), top]
    near_threshold = (np.abs(s[:, :, None] - IOU_THRESHOLDS) < TIE).any(axis=(1, 2))
    top2 = np.sort(s, axis=1)[:, -2:]
    near_top = top2[:, 1] - top2[:, 0] < TIE
    return {"cnr": cnr, "miou": miou, "hit": hit,
            "miou_ambiguous": near_threshold, "hit_ambiguous": near_top}


def grounding_problems(cnr, miou, hit, ref) -> list:
    problems = []
    cnr = np.asarray(cnr, dtype=np.float64)
    if cnr.shape != ref["cnr"].shape:
        return [f"grounding: {cnr.size} cases, expected {ref['cnr'].size}"]
    # a ratio of mean differences: its rounding is relative, not absolute
    rel = np.abs(cnr - ref["cnr"]) / np.maximum(np.abs(ref["cnr"]), 1.0)
    if not rel.max(initial=0.0) <= 1e-9:
        c = int(np.argmax(np.where(np.isnan(rel), np.inf, rel)))
        problems.append(f"grounding CNR of case {c} is {cnr[c]!r}, "
                        f"expected {ref['cnr'][c]!r}")
    problems += compare(miou, ref["miou"], "grounding mIoU",
                        skip=ref["miou_ambiguous"])
    hit = np.asarray(hit, dtype=bool)
    wrong = (hit != ref["hit"]) & ~ref["hit_ambiguous"]
    if wrong.any():
        problems.append(f"grounding hit differs on case {int(np.argmax(wrong))}")
    return problems


def reference_ranks(table):
    """1-based rank of each row's own column under a stable descending sort
    (ties keep candidate order), and which rows hold a near-tie with their
    own column."""
    t = np.asarray(table, dtype=np.float64)
    q = t.shape[0]
    order = np.argsort(-t, axis=1, kind="stable")
    ranks = np.argmax(order == np.arange(q)[:, None], axis=1) + 1
    own = np.diag(t)[:, None]
    near = (np.abs(t - own) < TIE) & ~np.eye(q, dtype=bool)
    return ranks, near.any(axis=1)


def lower_median(values) -> float:
    v = np.sort(np.asarray(values))
    return float(v[(v.size - 1) // 2])


def rank_problems(ranks, reference, ambiguous, what: str) -> list:
    ranks = np.asarray(ranks)
    if ranks.shape != reference.shape:
        return [f"{what}: {ranks.shape[0]} ranks, expected {reference.shape[0]}"]
    if (ranks < 1).any() or (ranks > ranks.size).any():
        return [f"{what}: rank out of range"]
    wrong = (ranks != reference) & ~ambiguous
    if wrong.any():
        i = int(np.argmax(wrong))
        return [f"{what}: query {i} ranked {int(ranks[i])}, "
                f"expected {int(reference[i])}"]
    return []


def brute_force_auc(scores, labels, classes):
    """Macro one-vs-rest AUC by counting every (positive, negative) pair,
    ties counted half; also the largest change near-ties could make."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    aucs, slack = [], []
    for c in range(classes):
        pos = scores[labels == c, c]
        neg = scores[labels != c, c]
        if pos.size == 0 or neg.size == 0:
            continue
        diff = pos[:, None] - neg[None, :]
        wins = np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)
        pairs = pos.size * neg.size
        aucs.append(wins / pairs)
        slack.append(np.count_nonzero((np.abs(diff) < TIE) & (diff != 0)) / pairs)
    return float(np.mean(aucs)), float(np.mean(slack))


def reference_probe(train_x, train_y, test_x, classes, iterations=500, lr=0.1):
    """Softmax regression from zero weights by full-batch gradient descent;
    returns test-set class probabilities."""
    x = np.asarray(train_x, dtype=np.float64)
    onehot = np.eye(classes)[np.asarray(train_y)]
    w = np.zeros((classes, x.shape[1]))
    b = np.zeros(classes)
    for _ in range(iterations):
        delta = (_softmax(x @ w.T + b, axis=1) - onehot) / x.shape[0]
        w -= lr * (delta.T @ x)
        b -= lr * delta.sum(axis=0)
    return _softmax(np.asarray(test_x) @ w.T + b, axis=1)


# ---------------------------------------------------------------------------
# files read back


def bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def corpus_problems(made, read) -> list:
    """Field-by-field bit equality of a generated corpus and its read-back."""
    problems = []
    if made.spec != read.spec:
        problems.append("corpus spec differs after read-back")
    for name in ("region_prototypes", "sentence_prototypes", "modality_rotation"):
        if not bits_equal(getattr(made.bank, name), getattr(read.bank, name)):
            problems.append(f"concept bank {name} differs after read-back")
    if made.bank.seed != read.bank.seed:
        problems.append("concept bank seed differs after read-back")
    if len(made.documents) != len(read.documents):
        return problems + [f"{len(read.documents)} documents read back, "
                           f"{len(made.documents)} written"]
    for a, b in zip(made.documents, read.documents):
        same = (a.image_id == b.image_id
                and bits_equal(a.region_observations, b.region_observations)
                and bits_equal(a.sentence_observations, b.sentence_observations)
                and list(a.region_concepts) == list(b.region_concepts)
                and list(a.sentence_concepts) == list(b.sentence_concepts)
                and [tuple(x) for x in a.boxes] == [tuple(x) for x in b.boxes])
        if not same:
            problems.append(f"document {a.image_id} differs after read-back")
            break
    return problems


def checkpoint_problems(saved, loaded) -> list:
    """Bit equality of a training result and the checkpoint read back."""
    problems = []
    pairs = [("parameters", saved.params_flat, loaded.params_flat),
             ("first moment", saved.optimizer.first_moment,
              loaded.optimizer.first_moment),
             ("second moment", saved.optimizer.second_moment,
              loaded.optimizer.second_moment)]
    for name, a, b in pairs:
        if not bits_equal(a, b):
            problems.append(f"checkpoint {name} differ after load")
    if saved.optimizer.step != loaded.optimizer.step or saved.step != loaded.step:
        problems.append("checkpoint step counters differ after load")
    if saved.rng_state != loaded.rng_state:
        problems.append("checkpoint sampler state differs after load")
    if saved.config.to_dict() != loaded.config.to_dict():
        problems.append("checkpoint training config differs after load")
    return problems


def loss_problems(losses) -> list:
    """Training must lower the loss: the mean of the last five logged
    batch losses below the first one (one batch is noisy, five are not)."""
    if len(losses) < 6:
        return [f"only {len(losses)} training steps logged"]
    first, last = losses[0], float(np.mean(losses[-5:]))
    if not (math.isfinite(last) and last < first):
        return [f"training loss did not fall: first {first!r}, last five {last!r}"]
    return []
