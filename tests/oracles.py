"""Straight-line references for the scoring path, the loss, the
evaluation metrics, the canonical JSON encoder and the corpus generator.

The scoring, loss and metric references use plain Python floats written
from the method's definitions: no tape ops, no max-shifts, no norm
floors, no arrays. Specs are read for their fields only. Tests compare
`pairwise_score_tables`, `infonce_score_table` and the batched
evaluation against these, so nothing here may call into them.

`linear_probe_descent` is the probe's gradient descent as whole-array
expressions, one `autodiff.softmax` per iteration and every temporary
fresh: the form the in-place descent in `evaluation.linear_probe_stack`
must reproduce bit for bit.

`canonical_json` formats every value one at a time and `generate_corpus`
draws and builds one region at a time: the element-by-element forms that
`jsonio.dumps_canonical` and `synthgen.generate_corpus` must reproduce
byte for byte. `hex_rows` packs one value at a time: the text a corpus
file must hold for a document bag.
"""

import json
import math
import struct

import numpy as np

from milalign import autodiff as ad


def cos(a, b):
    num = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return num / (na * nb)


def softmax(logits, gamma=1.0):
    raw = [math.exp(gamma * z) for z in logits]
    total = sum(raw)
    return [w / total for w in raw]


def _sigmoid(t):
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:  # exp(-t) is +inf
        return 0.0


def local(spec, scores):
    """One sentence's region scores reduced to a scalar."""
    s = [float(x) for x in scores]
    if spec.kind == "Max":
        return max(s)
    if spec.kind == "Sum":
        return sum(s)
    if spec.kind == "Avg":
        return sum(s) / len(s)
    if spec.kind == "LSE":
        return math.log(sum(math.exp(spec.gamma * x) for x in s)) / spec.gamma
    if spec.kind == "NOR":
        survive = 1.0
        for x in s:
            survive *= 1.0 - (x + 1.0) / 2.0
        return 1.0 - 2.0 * survive
    if spec.kind == "NAND":
        a, b = 10.0, 0.5  # NAND's fixed slope and offset
        pbar = sum((x + 1.0) / 2.0 for x in s) / len(s)
        lo, hi = _sigmoid(-a * b), _sigmoid(a * (1.0 - b))
        return 2.0 * (_sigmoid(a * (pbar - b)) - lo) / (hi - lo) - 1.0
    raise ValueError(f"unknown local kind {spec.kind!r}")


def sentence(spec, scores):
    """Per-sentence scores reduced to the document score."""
    s = [float(x) for x in scores]
    if spec.kind == "Avg":
        return sum(s) / len(s)
    if spec.kind == "Sum":
        return sum(s)
    if spec.kind == "Max":
        return max(s)
    if spec.kind == "LSE":
        return math.log(sum(math.exp(spec.gamma * x) for x in s)) / spec.gamma
    if spec.kind == "Id":
        assert len(s) == 1
        return s[0]
    raise ValueError(f"unknown sentence kind {spec.kind!r}")


def _matvec(matrix, x):
    return [sum(float(row[c]) * float(x[c]) for c in range(len(x)))
            for row in matrix]


def pool_weights(spec, regions, cosines):
    """Weights over one image's regions for one sentence, whose cosines
    to the regions are `cosines`."""
    n = len(regions)
    if spec.kind == "Avg":
        return [1.0 / n] * n
    if spec.kind == "Att":
        logits = [sum(float(v) * math.tanh(h) for v, h in
                      zip(spec.att_vec, _matvec(spec.att_proj, x)))
                  for x in regions]
        return softmax(logits)
    if spec.kind == "NL":
        k = max(range(n), key=lambda i: cosines[i])  # first maximal
        mapped = [_matvec(spec.sim_map, x) for x in regions]
        sims = [sum(a * b for a, b in zip(mapped[i], mapped[k]))
                for i in range(n)]
        return softmax(sims, spec.gamma)
    if spec.kind == "CA":
        return softmax(cosines)
    raise ValueError(f"unknown global kind {spec.kind!r}")


def pooled(spec, regions, cosines):
    weights = pool_weights(spec, regions, cosines)
    return [sum(w * float(x[c]) for w, x in zip(weights, regions))
            for c in range(len(regions[0]))]


def pair_scores(regions, sentences, local_spec, global_spec, sentence_spec):
    """(local, global) score of one image against one document; a
    disabled route scores None."""
    per_local, per_global = [], []
    for y in sentences:
        cosines = [cos(x, y) for x in regions]
        if local_spec is not None:
            per_local.append(local(local_spec, cosines))
        if global_spec is not None:
            per_global.append(cos(pooled(global_spec, regions, cosines), y))
    return (None if local_spec is None else sentence(sentence_spec, per_local),
            None if global_spec is None else sentence(sentence_spec, per_global))


def score_tables(images, documents, local_spec, global_spec, sentence_spec):
    """Row j column i holds image j against document i, per route; a
    disabled route gives None."""
    cells = [[pair_scores(img, doc, local_spec, global_spec, sentence_spec)
              for doc in documents] for img in images]
    return tuple(
        None if spec is None else [[cell[route] for cell in row] for row in cells]
        for route, spec in enumerate((local_spec, global_spec)))


def infonce(pos, negs, gamma):
    num = math.exp(gamma * pos)
    return -math.log(num / (num + sum(math.exp(gamma * s) for s in negs)))


def table_loss(table, gamma):
    """Mean over documents (columns) of the loss against every image."""
    b = len(table)
    return sum(infonce(table[i][i], [table[j][i] for j in range(b) if j != i],
                       gamma) for i in range(b)) / b


def grounding(scores, box, thresholds, guard):
    """(CNR, mean IoU over the thresholds, hit) of one score map against
    one box of region indices."""
    s = [float(x) for x in scores]
    members = set(box)

    def population(values):
        mean = sum(values) / len(values)
        return mean, sum((x - mean) ** 2 for x in values) / len(values)

    mean_in, var_in = population([x for i, x in enumerate(s) if i in members])
    mean_out, var_out = population([x for i, x in enumerate(s)
                                    if i not in members])
    contrast = abs(mean_in - mean_out) / math.sqrt(var_in + var_out + guard)
    total = 0.0
    for t in thresholds:
        predicted = {i for i, x in enumerate(s) if x >= float(t)}
        total += len(predicted & members) / len(predicted | members)
    top = max(range(len(s)), key=lambda i: s[i])  # first maximal
    return contrast, total / len(thresholds), top in members


def mann_whitney_auc(scores, positive):
    """Share of (positive, negative) pairs the positive wins, a tie
    counting half."""
    pos = [float(s) for s, p in zip(scores, positive) if p]
    neg = [float(s) for s, p in zip(scores, positive) if not p]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
               for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def match_ranks(table):
    """1-based rank of each row's own entry: a candidate goes first if it
    scores higher, or scores the same and has a lower index."""
    q = len(table)
    return [1 + sum(1 for j in range(q)
                    if table[i][j] > table[i][i]
                    or (table[i][j] == table[i][i] and j < i))
            for i in range(q)]


def linear_probe_descent(train_features, train_labels, classes, iterations,
                         lr):
    """(weights (R, classes, d), bias (R, classes)) of softmax regression
    on an (R, n, d) stack of feature sets, from zero, by full-batch
    gradient descent."""
    x = np.asarray(train_features, dtype=np.float64)
    sets, n, dim = x.shape
    weights = np.zeros((sets, classes, dim))
    bias = np.zeros((sets, 1, classes))
    onehot = np.eye(classes)[np.asarray(train_labels)]
    for _ in range(iterations):
        logits = x @ weights.transpose(0, 2, 1) + bias
        delta = (ad.softmax(logits, 1.0, axis=2).value - onehot) / n
        weights -= lr * (delta.transpose(0, 2, 1) @ x)
        bias -= lr * delta.sum(axis=1, keepdims=True)
    return weights, bias[:, 0]


def canonical_json(obj) -> str:
    """Compact JSON, keys sorted, every float as format(x, ".17g"), arrays
    as nested lists encoded value by value."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError("cannot serialize non-finite float")
        return format(x, ".17g")
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(key) + ":" + canonical_json(obj[key])
                              for key in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(item) for item in obj) + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def hex_rows(bag):
    """One string per row of a 2-D bag: each value's little-endian float64
    bytes in lowercase hex, packed one value at a time."""
    return ["".join(struct.pack("<d", float(x)).hex() for x in row)
            for row in bag]


def _orthonormal(raw):
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def generate_corpus(spec):
    """(region prototypes, sentence prototypes, rotation, documents) with
    each document a dict of its observations, concepts and boxes. Regions
    are drawn and built one at a time, in index order."""
    rng = np.random.default_rng(spec.seed)
    protos = _orthonormal(rng.standard_normal((spec.region_dim,
                                               spec.concepts))).T
    rotation = _orthonormal(rng.standard_normal((spec.sentence_dim,
                                                 spec.region_dim)))
    sentence_protos = protos @ rotation.T
    shared_scale = math.sqrt(spec.noise_coupling)
    own_scale = math.sqrt(1.0 - spec.noise_coupling)
    documents = []
    for image_id in range(spec.documents):
        count = int(rng.integers(spec.concepts_min, spec.concepts_max + 1))
        concepts = [int(c) for c in rng.choice(spec.concepts, size=count,
                                               replace=False)]
        sizes = [int(s) for s in rng.integers(spec.box_min, spec.box_max + 1,
                                              size=count)]
        order = rng.permutation(spec.regions_per_image)
        boxes = []
        offset = 0
        owner = [None] * spec.regions_per_image
        for which, size in enumerate(sizes):
            members = sorted(int(i) for i in order[offset:offset + size])
            offset += size
            boxes.append(tuple(members))
            for idx in members:
                owner[idx] = which
        shared = rng.standard_normal((count, spec.region_dim))
        regions = np.empty((spec.regions_per_image, spec.region_dim))
        concept_of_region = []
        for idx in range(spec.regions_per_image):
            which = owner[idx]
            if which is None:
                v = rng.standard_normal(spec.region_dim)
                regions[idx] = 0.5 * v / max(float(np.sqrt(np.sum(v * v))),
                                             1e-300)
                concept_of_region.append(None)
            else:
                noise = shared_scale * shared[which] \
                    + own_scale * rng.standard_normal(spec.region_dim)
                regions[idx] = protos[concepts[which]] + spec.noise_sigma * noise
                concept_of_region.append(concepts[which])
        described = min(count, spec.sentences_per_doc)
        sentences = np.empty((described, spec.sentence_dim))
        for which in range(described):
            noise = shared_scale * (rotation @ shared[which]) \
                + own_scale * rng.standard_normal(spec.sentence_dim)
            sentences[which] = sentence_protos[concepts[which]] \
                + spec.noise_sigma * noise
        documents.append({
            "image_id": image_id,
            "regions": regions,
            "region_concepts": concept_of_region,
            "sentences": sentences,
            "sentence_concepts": concepts[:described],
            "boxes": boxes[:described],
        })
    return protos, sentence_protos, rotation, documents
