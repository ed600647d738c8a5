"""Straight-line references for the scoring path, the loss and the
evaluation metrics.

Plain Python floats written from the method's definitions: no tape ops,
no max-shifts, no norm floors, no arrays. Specs are read for their fields
only. Tests compare `pairwise_score_tables`, `infonce_score_table` and
the batched evaluation against these, so nothing here may call into them.
"""

import math


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
    return 1.0 / (1.0 + math.exp(-t))


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
        a, b = spec.nand_slope, spec.nand_offset
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


def match_ranks(table):
    """1-based rank of each row's own entry: a candidate goes first if it
    scores higher, or scores the same and has a lower index."""
    q = len(table)
    return [1 + sum(1 for j in range(q)
                    if table[i][j] > table[i][i]
                    or (table[i][j] == table[i][i] and j < i))
            for i in range(q)]
