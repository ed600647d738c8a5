"""Output checks of one round, run after its timed stages.

This module hands the program's outputs to the independent references in
checks.py. It calls the program only to produce the values under test
(a score table, a loss, a gradient); every expected value comes from
checks.py.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import checks
from layers import route_name
from milalign import aggregators, autodiff, objective, scoring, trainer
from milalign.encoders import encode_bag, unflatten_params

# central-difference step and the top-two cosine gap a batch needs before
# a frozen argmax (Max, the NL critical region) cannot flip within it
FD_STEP = 1e-5
FD_MARGIN = 1e-3
FD_BATCH = 4
FD_COORDINATES = 6
MAX_DRAWS = 200


def run_checks(workload: str, config, state) -> list:
    """Every check of the round; returns the problems found."""
    problems = checks.corpus_problems(state["corpus"], state["read"])
    problems += checks.checkpoint_problems(state["result"], state["checkpoint"])
    rng = np.random.default_rng([config.train.seed, 1])
    if workload == "grid":
        return problems + grid_problems(config, state, rng)
    problems += model_problems(config.train, state["result"].params_flat,
                               state["train_docs"], rng, every_local_kind=True)
    problems += checks.loss_problems([row[2] for row in state["result"].log_rows])
    return problems + eval_problems(config, state)


def model_params(model, flat) -> dict:
    layout = checks.param_layout(model.region_input_dim, model.sentence_input_dim,
                                 model.hidden_dim, model.embed_dim,
                                 model.use_nl, model.use_att)
    return checks.split_params(flat, layout)


def _spec_dict(spec):
    if spec is None:
        return None
    return {k: getattr(spec, k) for k in ("kind", "gamma", "nand_slope", "nand_offset")
            if hasattr(spec, k)}


def _program_tables(config, p, regions, sentences, local_agg, global_agg):
    b, n, _ = regions.shape
    m = sentences.shape[1]
    bound = None
    if global_agg is not None:
        bound = aggregators.bind_global_spec(global_agg, sim_map=p.get("sim_map"),
                                             att_proj=p.get("att_proj"),
                                             att_vec=p.get("att_vec"))
    return scoring.pairwise_score_tables(
        regions.reshape(b * n, -1), n, sentences.reshape(b * m, -1), m,
        local_agg, bound, config.sentence_agg)


def model_problems(config, flat, docs, rng, every_local_kind=False) -> list:
    """Score tables, permutation invariance, InfoNCE and the loss gradient
    of one trained model on batches drawn from its training documents."""
    problems = []
    route = route_name(config.local_agg, config.global_agg)
    p = model_params(config.model, flat)
    batch = trainer.sample_batch(docs, config, rng)
    obs_r = np.stack([item.document.region_observations for item in batch])
    obs_s = np.stack([item.sentence_bag for item in batch])
    regions = checks.encode(p, "region", obs_r)
    sentences = checks.encode(p, "sentence", obs_s)

    params = unflatten_params(config.model, flat)
    got = encode_bag(params.region_encoder, obs_r.reshape(-1, obs_r.shape[2])).value
    problems += checks.compare(got, regions.reshape(got.shape),
                               f"{route}: region encoder")

    routes = [(config.local_agg, config.global_agg)]
    if every_local_kind:
        routes += [(aggregators.LocalAggregatorSpec(kind=k), None)
                   for k in ("Max", "Sum", "Avg", "NOR", "NAND")]
        routes.append((None, aggregators.GlobalAggregatorSpec(kind="Avg")))
    for local_agg, global_agg in routes:
        name = route_name(local_agg, global_agg)
        want_l, want_g, ambiguous = checks.reference_tables(
            p, regions, sentences, _spec_dict(local_agg), _spec_dict(global_agg))
        got_l, got_g = _program_tables(config, p, regions, sentences,
                                       local_agg, global_agg)
        for label, got_t, want_t, skip in (("local", got_l, want_l, None),
                                           ("global", got_g, want_g, ambiguous)):
            if (got_t is None) != (want_t is None):
                problems.append(f"{name}: {label} table missing")
            elif got_t is not None:
                problems += checks.compare(got_t.value, want_t,
                                           f"{name}: {label} score table", skip=skip)

    # permuting regions within each image and sentences within each bag
    # must leave every score unchanged
    perm_r = np.stack([rng.permutation(regions.shape[1]) for _ in batch])
    perm_s = np.stack([rng.permutation(sentences.shape[1]) for _ in batch])
    shuffled_r = np.take_along_axis(regions, perm_r[:, :, None], axis=1)
    shuffled_s = np.take_along_axis(sentences, perm_s[:, :, None], axis=1)
    base = _program_tables(config, p, regions, sentences,
                           config.local_agg, config.global_agg)
    permuted = _program_tables(config, p, shuffled_r, shuffled_s,
                               config.local_agg, config.global_agg)
    gamma = float(np.exp(p["log_gamma"]))
    for table, moved in zip(base, permuted):
        if table is None:
            continue
        problems += checks.compare(moved.value, table.value,
                                   f"{route}: table after permuting bags")
        loss = objective.infonce_score_table(
            table, objective.Temperature(log_gamma=p["log_gamma"])).value
        want = checks.reference_infonce(table.value, gamma)
        problems += checks.compare(loss / max(1.0, abs(want)),
                                   want / max(1.0, abs(want)), f"{route}: InfoNCE")
    return problems + gradient_problems(config, flat, docs, rng)


def _margin_ok(p, batch) -> bool:
    regions = checks.encode(p, "region", np.stack(
        [item.document.region_observations for item in batch]))
    sentences = checks.encode(p, "sentence", np.stack(
        [item.sentence_bag for item in batch]))
    cos = np.einsum("jnd,imd->jinm", checks.unit(regions), checks.unit(sentences))
    top2 = np.sort(cos, axis=2)[:, :, -2:, :]
    return bool((top2[:, :, 1, :] - top2[:, :, 0, :]).min() >= FD_MARGIN
                and np.abs(cos).max() < 0.99)


def gradient_problems(config, flat, docs, rng) -> list:
    """Central differences of trainer.batch_loss on a few coordinates,
    on a small batch whose frozen argmax selections have margin."""
    route = route_name(config.local_agg, config.global_agg)
    small = dataclasses.replace(config, batch_size=FD_BATCH)
    p = model_params(config.model, flat)
    for _ in range(MAX_DRAWS):
        batch = trainer.sample_batch(docs, small, rng)
        if _margin_ok(p, batch):
            break
    else:
        return [f"{route}: no batch with argmax margin {FD_MARGIN} "
                f"in {MAX_DRAWS} draws"]
    leaf = autodiff.Var(np.array(flat, dtype=np.float64))
    loss = trainer.batch_loss(config, leaf, batch)
    loss.backward()
    coords = sorted(set(rng.choice(flat.size - 1, FD_COORDINATES - 1,
                                   replace=False).tolist()) | {flat.size - 1})
    numeric = checks.central_difference(
        lambda x: float(trainer.batch_loss(config, x, batch).value),
        flat, coords, FD_STEP)
    grad = np.asarray(leaf.grad)
    return [f"{route}: {msg}" for msg in checks.gradient_problems(
        grad[coords], numeric, float(loss.value), float(np.abs(grad).max()))]


def _doc_label(doc) -> int:
    present = {c for c in doc.region_concepts if c is not None}
    return present.pop() if len(present) == 1 else -1


def _pooled(p, docs):
    return checks.encode(p, "region", np.stack(
        [d.region_observations for d in docs])).mean(axis=1)


def _grounding_reference(p, cases):
    regions = checks.encode(p, "region", np.stack(
        [c.region_observations for c in cases]))
    sentences = checks.encode(p, "sentence", np.stack(
        [c.sentence_observation for c in cases]))
    maps = np.clip(np.einsum("cnd,cd->cn", checks.unit(regions),
                             checks.unit(sentences)), -1.0, 1.0)
    return checks.reference_grounding(maps, [c.box for c in cases])


def _retrieval_reference(p, cases):
    boxes = np.stack([checks.encode(p, "region", c.region_observations)[list(c.box)]
                      .mean(axis=0) for c in cases])
    sentences = checks.encode(p, "sentence", np.stack(
        [c.sentence_observation for c in cases]))
    table = checks.cosines(boxes, sentences)
    return checks.reference_ranks(table), checks.reference_ranks(table.T)


class Case:
    """A grounding or retrieval case built straight from a document."""

    def __init__(self, doc, j):
        self.region_observations = doc.region_observations
        self.sentence_observation = doc.sentence_observations[j]
        self.box = tuple(doc.boxes[j])


def eval_problems(config, state) -> list:
    """The four eval tasks of desk and eval-heavy against numpy references,
    plus the quality floors the method guarantees on every seed."""
    problems = []
    p = model_params(config.train.model, state["checkpoint"].params_flat)
    concepts = config.corpus.concepts

    # zero-shot: local-route scores of every image against every prompt
    zs, singles = state["zs"], state["singles"]
    prompts = checks.encode(p, "sentence", state["read"].bank.sentence_prototypes)
    regions = checks.encode(p, "region", np.stack(
        [d.region_observations for d in singles]))
    cos = np.clip(np.einsum("jnd,cd->jnc", checks.unit(regions),
                            checks.unit(prompts)), -1.0, 1.0)
    local = config.train.local_agg
    want = checks.local_pool(local.kind, cos, axis=1, gamma=local.gamma)
    problems += checks.compare(zs.raw_scores, want, "zero-shot score table")
    labels = np.array([_doc_label(d) for d in singles])
    if not np.array_equal(zs.labels, labels):
        problems.append("zero-shot labels differ from the documents' concepts")
    # the prediction is the best prompt after min-max scaling each column
    scaled = (want - want.min(axis=0)) / (want.max(axis=0) - want.min(axis=0))
    top2 = np.sort(scaled, axis=1)[:, -2:]
    wrong = (zs.predictions != np.argmax(scaled, axis=1)) \
        & (top2[:, 1] - top2[:, 0] >= checks.TIE)
    if wrong.any():
        problems.append(f"zero-shot prediction differs on image {int(np.argmax(wrong))}")
    if abs(zs.accuracy - float(np.mean(zs.predictions == labels))) > 1e-15:
        problems.append("zero-shot accuracy disagrees with its predictions")
    if zs.accuracy < 4.0 / concepts:
        problems.append(f"zero-shot accuracy {zs.accuracy} is below four times "
                        f"chance (1/{concepts})")

    # probe: AUC of the program's own probe, by counting every pair
    probe = state["probe"]
    test = state["probe_test"]
    probs = _pooled(p, test) @ probe.weights.T + probe.bias
    probs = np.exp(probs - probs.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    auc, slack = checks.brute_force_auc(probs, [_doc_label(d) for d in test],
                                        probe.weights.shape[0])
    if abs(probe.auc - auc) > checks.TOL + slack:
        problems.append(f"probe AUC {probe.auc!r}, pair counting gives {auc!r}")

    # grounding and retrieval cases, built again from the documents
    cases = [Case(d, j) for d in state["test_docs"] for j in range(len(d.boxes))]
    r_cases = cases[:config.eval_options.retrieval_cases]
    if len(cases) != len(state["grounding_cases"]) or \
            len(r_cases) != len(state["retrieval_cases"]):
        return problems + ["grounding or retrieval case count differs"]
    g = state["grounding"]
    ref = _grounding_reference(p, cases)
    problems += checks.grounding_problems(g.per_case_cnr, g.per_case_miou,
                                          g.per_case_hit, ref)
    for name, per_case, mean in (("CNR", g.per_case_cnr, g.mean_cnr),
                                 ("mIoU", g.per_case_miou, g.mean_miou),
                                 ("hit rate", g.per_case_hit, g.hit_rate)):
        if abs(float(np.mean(per_case)) - mean) > 1e-12 * max(1.0, abs(mean)):
            problems.append(f"grounding mean {name} is not the mean of its cases")
    if g.hit_rate < 0.5:
        problems.append(f"grounding hit rate {g.hit_rate} is below 0.5")

    # retrieval
    r = state["retrieval"]
    (b2s, b2s_amb), (s2b, s2b_amb) = _retrieval_reference(p, r_cases)
    problems += checks.rank_problems(r.box_to_sentence_ranks, b2s, b2s_amb,
                                     "box-to-sentence ranks")
    problems += checks.rank_problems(r.sentence_to_box_ranks, s2b, s2b_amb,
                                     "sentence-to-box ranks")
    for name, ranks, medr in (
            ("box-to-sentence", r.box_to_sentence_ranks, r.box_to_sentence_medr),
            ("sentence-to-box", r.sentence_to_box_ranks, r.sentence_to_box_medr)):
        if checks.lower_median(ranks) != medr:
            problems.append(f"{name} median rank is not the median of its ranks")
        if medr > r.count / 10:
            problems.append(f"{name} median rank {medr} of {r.count} is worse "
                            "than the top tenth")
    return problems


def grid_problems(config, state, rng) -> list:
    """Each trained grid row: its route's checks at its own parameters,
    and its probe AUC, mean CNR and median rank recomputed."""
    problems = []
    results = {route_name(r.config.local_agg, r.config.global_agg): r
               for r in state["results"]}
    train_docs, test_docs = state["train_docs"], state["test_docs"]
    probe_train = [d for d in train_docs if _doc_label(d) >= 0]
    probe_test = [d for d in test_docs if _doc_label(d) >= 0]
    train_y = [_doc_label(d) for d in probe_train]
    test_y = [_doc_label(d) for d in probe_test]
    classes = max(train_y) + 1
    cases = [Case(d, j) for d in test_docs for j in range(len(d.boxes))]
    r_cases = cases[:config.eval_options.retrieval_cases]
    for row in state["rows"]:
        if not row.trained:
            continue
        result = results[row.name.replace("+", "-")]
        problems += model_problems(result.config, result.params_flat,
                                   train_docs, rng)
        problems += [f"{row.name}: {msg}" for msg in checks.loss_problems(
            [r[2] for r in result.log_rows])]
        p = model_params(result.config.model, result.params_flat)

        probs = checks.reference_probe(_pooled(p, probe_train), train_y,
                                       _pooled(p, probe_test), classes)
        auc, slack = checks.brute_force_auc(probs, test_y, classes)
        if abs(row.probe_auc - auc) > 1e-9 + slack:
            problems.append(f"{row.name}: probe AUC {row.probe_auc!r}, "
                            f"reference {auc!r}")
        cnr = float(np.mean(_grounding_reference(p, cases)["cnr"]))
        if abs(row.mean_cnr - cnr) > 1e-9 * max(1.0, cnr):
            problems.append(f"{row.name}: mean CNR {row.mean_cnr!r}, "
                            f"reference {cnr!r}")
        (b2s, amb1), (s2b, amb2) = _retrieval_reference(p, r_cases)
        medr = 0.5 * (checks.lower_median(b2s) + checks.lower_median(s2b))
        if not (amb1.any() or amb2.any()) and row.retrieval_medr != medr:
            problems.append(f"{row.name}: median rank {row.retrieval_medr!r}, "
                            f"reference {medr!r}")
        if row.probe_auc < 0.75:
            problems.append(f"{row.name}: probe AUC {row.probe_auc} below 0.75")
        # 48 steps a row guarantee no fine ranking (Max reached 20.5 of 200
        # on seed 11), only one well above chance (a median near half the
        # cases). Noisy-OR saturates at initialisation and ranks near 40
        # after short training; that is the method, so its row has no floor.
        if row.name != "NOR" and row.retrieval_medr > len(r_cases) / 4:
            problems.append(f"{row.name}: median rank {row.retrieval_medr} of "
                            f"{len(r_cases)} is worse than the top quarter")
    return problems
