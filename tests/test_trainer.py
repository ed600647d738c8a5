"""Training loop: schedule, optimizer, batched loss vs straight-line oracles,
determinism, checkpointing, and failure reporting."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import oracles
from memory import traced_call
from milalign.autodiff import ContractError, Var, _toposort
from milalign.aggregators import (
    GlobalAggregatorSpec,
    LocalAggregatorSpec,
    bind_global_spec,
)
from milalign.config import experiment_from_dict
from milalign.encoders import (
    ModelConfig,
    init_model,
    param_count,
    unflatten_params,
)
from milalign.evaluation import GridEntry, default_grid
from milalign.synthgen import CorpusSpec, SyntheticDocument, generate_corpus
from milalign.trainer import (
    NonFiniteLossError,
    TrainConfig,
    adamw_step,
    batch_loss,
    init_optimizer_state,
    load_checkpoint,
    lr_at_step,
    sample_batch,
    save_checkpoint,
    save_result,
    train,
    train_config_from_dict,
    write_training_log,
)


def tiny_corpus(documents=80, seed=0):
    spec = CorpusSpec(concepts=4, region_dim=6, sentence_dim=6,
                      regions_per_image=8, sentences_per_doc=2,
                      documents=documents, concepts_min=1, concepts_max=2,
                      box_min=2, box_max=3, seed=seed)
    return generate_corpus(spec)


def tiny_config(**kw):
    base = dict(
        model=ModelConfig(region_input_dim=6, sentence_input_dim=6,
                          hidden_dim=8, embed_dim=5, use_nl=True),
        local_agg=LocalAggregatorSpec(kind="LSE", gamma=0.1),
        global_agg=GlobalAggregatorSpec(kind="NL", gamma=math.e),
        batch_size=8,
        sentences_per_bag=3,
        epochs=1,
        warmup_steps=4,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def local_only_config(**kw):
    base = dict(
        model=ModelConfig(region_input_dim=6, sentence_input_dim=6,
                          hidden_dim=8, embed_dim=5),
        local_agg=LocalAggregatorSpec(kind="LSE", gamma=0.1),
        global_agg=None,
        batch_size=8,
        sentences_per_bag=3,
        epochs=1,
        warmup_steps=4,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ContractError, match="at least one"):
        tiny_config(local_agg=None, global_agg=None)
    with pytest.raises(ContractError, match="use_nl"):
        tiny_config(global_agg=None)  # model still has use_nl=True
    with pytest.raises(ContractError, match="use_att"):
        tiny_config(model=ModelConfig(region_input_dim=6,
                                      sentence_input_dim=6, hidden_dim=8,
                                      embed_dim=5),
                    global_agg=GlobalAggregatorSpec(kind="Att"))
    with pytest.raises(ContractError, match="batch_size"):
        tiny_config(batch_size=1)
    with pytest.raises(ContractError, match="sentences_per_bag"):
        tiny_config(sentences_per_bag=0)
    with pytest.raises(ContractError, match="epochs"):
        tiny_config(epochs=-1)
    with pytest.raises(ContractError, match="peak_lr"):
        tiny_config(peak_lr=0.0)
    with pytest.raises(ContractError, match="betas"):
        tiny_config(betas=(0.9, 1.0))
    with pytest.raises(ContractError, match="gamma_init"):
        tiny_config(gamma_init=-3.0)


def test_config_dict_roundtrip():
    config = tiny_config()
    back = train_config_from_dict(config.to_dict())
    assert back.to_dict() == config.to_dict()
    config2 = local_only_config(sentence_agg=dataclasses.replace(
        config.sentence_agg))
    assert train_config_from_dict(config2.to_dict()).to_dict() == \
        config2.to_dict()


def test_lr_schedule_frozen_points():
    # peak 0.02, warmup 50, total 600
    assert lr_at_step(0, 0.02, 50, 600) == 0.0
    assert abs(lr_at_step(25, 0.02, 50, 600) - 0.01) < 1e-15
    assert abs(lr_at_step(50, 0.02, 50, 600) - 0.02) < 1e-15
    # halfway through the cosine phase the rate is half the peak
    assert abs(lr_at_step(325, 0.02, 50, 600) - 0.01) < 1e-15
    assert abs(lr_at_step(600, 0.02, 50, 600)) < 1e-17
    assert abs(lr_at_step(599, 0.02, 50, 600)
               - 1.6313351349883654e-07) < 1e-18


def test_lr_schedule_monotone_warmup_then_decay():
    values = [lr_at_step(t, 0.1, 10, 40) for t in range(41)]
    assert all(b > a for a, b in zip(values[:10], values[1:11]))
    assert all(b < a for a, b in zip(values[10:40], values[11:41]))


def test_lr_schedule_rejects_total_not_exceeding_warmup():
    with pytest.raises(ContractError, match="exceed"):
        lr_at_step(0, 0.1, 50, 50)
    with pytest.raises(ContractError, match="exceed"):
        lr_at_step(0, 0.1, 50, 40)
    with pytest.raises(ContractError):
        lr_at_step(-1, 0.1, 0, 10)


def test_sample_batch_distinct_documents_fixed_bag():
    corpus = tiny_corpus()
    config = tiny_config(batch_size=16, sentences_per_bag=5)
    rng = np.random.default_rng(0)
    batch = sample_batch(corpus, config, rng)
    assert len(batch) == 16
    ids = [item.document.image_id for item in batch]
    assert len(set(ids)) == 16
    for item in batch:
        assert item.sentence_bag.shape == (5, 6)
        available = item.document.sentence_observations
        for row in item.sentence_bag:
            assert any(np.array_equal(row, s) for s in available)


def test_sample_batch_draws_with_replacement():
    # documents hold at most 2 sentences; a 5-slot bag must repeat some
    corpus = tiny_corpus()
    config = tiny_config(sentences_per_bag=5)
    rng = np.random.default_rng(1)
    batch = sample_batch(corpus, config, rng)
    repeats = 0
    for item in batch:
        rows = {tuple(r) for r in item.sentence_bag}
        if len(rows) < item.sentence_bag.shape[0]:
            repeats += 1
    assert repeats == len(batch)


def test_sample_batch_requires_enough_documents():
    corpus = tiny_corpus(documents=4)
    config = tiny_config(batch_size=8)
    with pytest.raises(ContractError, match="fewer than batch_size"):
        sample_batch(corpus, config, np.random.default_rng(0))


def hand_documents(sentence_counts, seed=0):
    rng = np.random.default_rng(seed)
    return [SyntheticDocument(
                image_id=100 + i,
                region_observations=rng.standard_normal((8, 6)),
                region_concepts=[None] * 8,
                sentence_observations=rng.standard_normal((m, 6)),
                sentence_concepts=list(range(m)),
                boxes=[(0, 1)] * m)
            for i, m in enumerate(sentence_counts)]


@pytest.mark.parametrize("sentences_per_bag", [1, 7])
def test_sample_batch_draws_what_one_call_per_document_draws(sentences_per_bag):
    docs = hand_documents([1, 2, 3] * 5)
    config = tiny_config(batch_size=8, sentences_per_bag=sentences_per_bag)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for _ in range(4):  # successive batches continue the same stream
            batch = sample_batch(docs, config, rng)
            want = oracles.sample_batch_per_document(
                docs, config.batch_size, sentences_per_bag, ref_rng)
            assert [item.document for item in batch] == [d for d, _ in want]
            for item, (_, bag) in zip(batch, want):
                assert item.sentence_bag.shape == (sentences_per_bag, 6)
                assert item.sentence_bag.tobytes() == bag.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_batch_names_a_document_without_sentences():
    docs = hand_documents([2, 3, 0, 1])
    config = tiny_config(batch_size=4)
    with pytest.raises(ContractError, match="document 102 has no sentences"):
        sample_batch(docs, config, np.random.default_rng(0))


def test_adamw_first_step_frozen_oracle():
    # p=1, g=0.5, lr=0.1, betas (0.9, 0.999), eps 1e-8, wd 0.01:
    # m_hat=0.5, v_hat=0.25, update = lr * (0.5/(0.5+1e-8) + 0.01 * p)
    config = local_only_config()
    n = param_count(config.model)
    p = np.ones(n)
    g = np.full(n, 0.5)
    state = init_optimizer_state(n)
    new_p, new_state = adamw_step(p, g, state, 0.1, config)
    from milalign.encoders import decay_mask
    mask = decay_mask(config.model) == 1.0
    assert np.allclose(new_p[mask], 0.8990000019999999, atol=1e-15)
    assert np.allclose(new_p[~mask], 0.9000000019999999, atol=1e-15)
    assert new_state.step == 1
    assert np.allclose(new_state.first_moment, 0.05)
    assert np.allclose(new_state.second_moment, 0.00025)
    # inputs are untouched
    assert np.all(p == 1.0)
    assert state.step == 0 and np.all(state.first_moment == 0.0)


def test_adamw_matches_reference_over_several_steps():
    config = local_only_config(weight_decay=0.004)
    n = param_count(config.model)
    rng = np.random.default_rng(2)
    p = rng.standard_normal(n)
    state = init_optimizer_state(n)
    m = np.zeros(n)
    v = np.zeros(n)
    ref = p.copy()
    from milalign.encoders import decay_mask
    mask = decay_mask(config.model)
    for t in range(1, 6):
        g = rng.standard_normal(n)
        lr = 0.05 / t
        p, state = adamw_step(p, g, state, lr, config)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        ref = ref - lr * (mh / (np.sqrt(vh) + 1e-8) + 0.004 * mask * ref)
        assert np.allclose(p, ref, atol=1e-14)
    assert state.step == 5


def test_adamw_shape_checks():
    config = local_only_config()
    n = param_count(config.model)
    with pytest.raises(ContractError):
        adamw_step(np.ones(n), np.ones(n + 1), init_optimizer_state(n),
                   0.1, config)
    with pytest.raises(ContractError):
        adamw_step(np.ones(n), np.ones(n), init_optimizer_state(n + 1),
                   0.1, config)


def test_batch_loss_matches_per_pair_assembly():
    # every grid row's loss against the straight-line oracles: numpy
    # encoders, one pure-Python score per image-document pair, and the
    # per-document loss averaged over the batch
    corpus = tiny_corpus()
    rng = np.random.default_rng(3)
    for entry in default_grid():
        kind = entry.global_agg.kind if entry.global_agg else None
        config = tiny_config(
            model=dataclasses.replace(tiny_config().model,
                                      use_nl=kind == "NL", use_att=kind == "Att"),
            local_agg=entry.local_agg, global_agg=entry.global_agg)
        batch = sample_batch(corpus, config, rng)
        flat = init_model(config.model, config.gamma_init, 0)
        got = batch_loss(config, flat, batch).value

        params = unflatten_params(config.model, flat)
        global_spec = None
        if kind is not None:
            global_spec = bind_global_spec(
                entry.global_agg, sim_map=params.sim_map,
                att_proj=params.att_proj, att_vec=params.att_vec)

        def encode(enc, obs):
            return np.tanh(obs @ enc.W1.T + enc.b1) @ enc.W2.T + enc.b2

        images = [encode(params.region_encoder,
                         item.document.region_observations) for item in batch]
        documents = [encode(params.sentence_encoder, item.sentence_bag)
                     for item in batch]
        gamma = math.exp(float(params.log_gamma))
        want = sum(oracles.table_loss(table, gamma) for table in
                   oracles.score_tables(images, documents, entry.local_agg,
                                        global_spec, config.sentence_agg)
                   if table is not None)
        assert abs(got - want) < 1e-12, entry.name


def test_batch_loss_needs_two_documents():
    corpus = tiny_corpus()
    config = tiny_config()
    batch = sample_batch(corpus, config, np.random.default_rng(0))
    flat = init_model(config.model, config.gamma_init, 0)
    with pytest.raises(ContractError, match="at least two"):
        batch_loss(config, flat, batch[:1])


def test_tape_size_does_not_depend_on_batch_size():
    # every route is one whole-batch expression, so a per-image loop on the
    # tape would show up as a node count growing with the batch
    corpus = tiny_corpus()
    ca = GridEntry("LSE+CA", local_agg=LocalAggregatorSpec(kind="LSE", gamma=0.1),
                   global_agg=GlobalAggregatorSpec(kind="CA"))
    for entry in default_grid() + [ca]:
        kind = entry.global_agg.kind if entry.global_agg else None
        counts = []
        for size in (4, 32):
            config = tiny_config(
                model=dataclasses.replace(tiny_config().model,
                                          use_nl=kind == "NL",
                                          use_att=kind == "Att"),
                local_agg=entry.local_agg, global_agg=entry.global_agg,
                batch_size=size)
            batch = sample_batch(corpus, config, np.random.default_rng(size))
            leaf = Var(init_model(config.model, config.gamma_init, 0))
            counts.append(len(_toposort(batch_loss(config, leaf, batch))))
        assert counts[0] == counts[1], (entry.name, counts)


# tape nodes of one batch_loss per default_grid() row, constants included,
# as the benchmark's layer trace counts them: one node per parameter
# field, and one for NL's weights
TAPE_NODES = {
    "Max": 44, "Avg": 44, "LSE": 44, "NOR": 54, "NAND": 61,
    "g-Avg": 45, "g-Att": 55, "g-NL": 54,
    "LSE+Avg": 61, "LSE+Att": 71, "LSE+NL": 70,
}


def test_tape_size_of_one_batch_loss_is_pinned():
    corpus = tiny_corpus()
    got = {}
    for entry in default_grid():
        kind = entry.global_agg.kind if entry.global_agg else None
        config = tiny_config(
            model=dataclasses.replace(tiny_config().model,
                                      use_nl=kind == "NL",
                                      use_att=kind == "Att"),
            local_agg=entry.local_agg, global_agg=entry.global_agg)
        batch = sample_batch(corpus, config, np.random.default_rng(0))
        leaf = Var(init_model(config.model, config.gamma_init, 0))
        got[entry.name] = len(_toposort(batch_loss(config, leaf, batch)))
    assert got == TAPE_NODES
    # the default experiment's own step is LSE+NL
    default = experiment_from_dict({"corpus": {"documents": 40}})
    batch = sample_batch(generate_corpus(default.corpus), default.train,
                         np.random.default_rng(0))
    leaf = Var(init_model(default.train.model, default.train.gamma_init, 0))
    assert len(_toposort(batch_loss(default.train, leaf, batch))) == \
        TAPE_NODES["LSE+NL"]


# sha256 prefixes of leaf.grad's bytes for each default_grid() row on one
# fixed batch: what the tape records or keeps may change, these bits may not
GRADIENT_DIGESTS = {
    "Max": "16f575f85e98de98",
    "Avg": "b25732fcd751ea5b",
    "LSE": "9db1e3760db9f54b",
    "NOR": "7cae1e52400e8035",
    "NAND": "8ffc768961f392f0",
    "g-Avg": "b5318945ddfceb7d",
    "g-Att": "fbbe7fa8d6a25e8b",
    "g-NL": "36a7fd95f0f7091c",
    "LSE+Avg": "2d10bb0500e77358",
    "LSE+Att": "14d4ae92aa5992b7",
    "LSE+NL": "eb2ce374f0f5b5d3",
}


def test_batch_loss_gradient_bits_are_pinned():
    corpus = tiny_corpus()
    got = {}
    for entry in default_grid():
        kind = entry.global_agg.kind if entry.global_agg else None
        config = tiny_config(
            model=dataclasses.replace(tiny_config().model,
                                      use_nl=kind == "NL",
                                      use_att=kind == "Att"),
            local_agg=entry.local_agg, global_agg=entry.global_agg)
        batch = sample_batch(corpus, config, np.random.default_rng(21))
        leaf = Var(init_model(config.model, config.gamma_init, 21))
        batch_loss(config, leaf, batch).backward()
        got[entry.name] = hashlib.sha256(leaf.grad.tobytes()).hexdigest()[:16]
    assert got == GRADIENT_DIGESTS


def test_initial_loss_near_log_batch_size():
    # a single enabled route on an untrained model at the shipped corpus
    # and encoder widths scores nearly uniformly, so the first loss sits
    # within 20 percent of ln(batch_size)
    corpus = generate_corpus(CorpusSpec(documents=600))
    config = TrainConfig(
        model=ModelConfig(region_input_dim=12, sentence_input_dim=12,
                          hidden_dim=32, embed_dim=16),
        local_agg=LocalAggregatorSpec(kind="LSE", gamma=0.1),
        batch_size=32, epochs=1, warmup_steps=2, seed=0)
    result = train(corpus, config, max_steps=1)
    first_loss = result.log_rows[0][2]
    assert abs(first_loss - math.log(32)) < 0.2 * math.log(32)


def test_training_descends_and_logs():
    corpus = tiny_corpus()
    config = tiny_config(epochs=3)
    result = train(corpus, config)
    assert result.total_steps == 3 * (80 // 8)
    assert result.step == result.total_steps
    assert len(result.log_rows) == result.total_steps
    steps = [row[0] for row in result.log_rows]
    assert steps == list(range(result.total_steps))
    for step, lr, loss, gamma in result.log_rows:
        assert lr == lr_at_step(step, config.peak_lr, config.warmup_steps,
                                result.total_steps)
        assert np.isfinite(loss) and loss > 0.0
        assert gamma > 0.0
    # the loss should clearly drop from its starting point
    assert result.log_rows[-1][2] < 0.8 * result.log_rows[0][2]
    # the logged gamma is the value used in that step's loss, so the
    # first row shows exactly the configured initial temperature
    assert abs(result.log_rows[0][3] - config.gamma_init) < 1e-12


def test_training_is_deterministic():
    corpus = tiny_corpus()
    config = tiny_config(epochs=2)
    a = train(corpus, config)
    b = train(corpus, config)
    assert np.array_equal(a.params_flat, b.params_flat)
    assert a.log_rows == b.log_rows


def test_training_holds_one_step_tape_at_a_time():
    # each step's sweep frees its own tape, so a step's forward values
    # are gone before the next step builds its own: four steps peak where
    # one does
    default = experiment_from_dict({"corpus": {"documents": 600}})
    corpus = generate_corpus(default.corpus)
    peaks = {}
    for steps in (1, 4):
        result, _, peaks[steps] = traced_call(train, corpus, default.train,
                                              max_steps=steps)
        assert result.step == steps
    assert peaks[4] <= 1.1 * peaks[1], peaks


def test_zero_epochs_returns_initial_parameters():
    corpus = tiny_corpus()
    config = tiny_config(epochs=0)
    result = train(corpus, config)
    assert result.step == 0
    assert result.log_rows == []
    want = init_model(config.model, config.gamma_init,
                      np.random.SeedSequence(config.seed).spawn(2)[0])
    assert np.array_equal(result.params_flat, want)


def test_non_finite_loss_names_step_and_batch():
    corpus = tiny_corpus()
    bad = SyntheticDocument(
        image_id=999,
        region_observations=np.full((8, 6), np.nan),
        region_concepts=[None] * 8,
        sentence_observations=np.ones((2, 6)),
        sentence_concepts=[0, 1],
        boxes=[(0, 1), (2, 3)],
    )
    docs = corpus.documents[:8] + [bad]
    config = tiny_config(batch_size=9, epochs=1, warmup_steps=0)
    with pytest.raises(NonFiniteLossError) as err:
        train(docs, config)
    message = str(err.value)
    assert "step 0" in message
    assert "999" in message


def test_checkpoint_roundtrip(tmp_path):
    corpus = tiny_corpus()
    config = tiny_config(epochs=1)
    result = train(corpus, config, max_steps=4)
    path = tmp_path / "ck.json"
    save_checkpoint(path, config, result.params_flat, result.optimizer,
                    result.rng_state, result.step, config_fingerprint="abcd")
    ck = load_checkpoint(path)
    assert np.array_equal(ck.params_flat, result.params_flat)
    assert ck.step == 4
    assert ck.optimizer.step == result.optimizer.step
    assert np.array_equal(ck.optimizer.first_moment,
                          result.optimizer.first_moment)
    assert np.array_equal(ck.optimizer.second_moment,
                          result.optimizer.second_moment)
    assert ck.config.to_dict() == config.to_dict()


def test_resume_reproduces_uninterrupted_run(tmp_path):
    corpus = tiny_corpus()
    config = tiny_config(epochs=2)
    full = train(corpus, config)

    half = train(corpus, config, max_steps=10)
    path = tmp_path / "half.json"
    save_result(path, half)
    rest = train(corpus, config, resume=load_checkpoint(path))

    assert half.log_rows + rest.log_rows == full.log_rows
    assert np.array_equal(rest.params_flat, full.params_flat)


def test_resume_refuses_other_config(tmp_path):
    corpus = tiny_corpus()
    config = tiny_config(epochs=1)
    result = train(corpus, config, max_steps=2)
    path = tmp_path / "ck.json"
    save_result(path, result)
    other = tiny_config(epochs=2)
    with pytest.raises(ContractError, match="different configuration"):
        train(corpus, other, resume=load_checkpoint(path))


def test_load_checkpoint_validation(tmp_path):
    corpus = tiny_corpus()
    config = tiny_config(epochs=1)
    result = train(corpus, config, max_steps=1)
    good = tmp_path / "good.json"
    save_result(good, result)

    import json
    payload = json.loads(good.read_text())

    def dump(obj, name):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return p

    with pytest.raises(ContractError, match="not a checkpoint"):
        load_checkpoint(dump({**payload, "kind": "other"}, "kind.json"))
    with pytest.raises(ContractError, match="version"):
        load_checkpoint(dump({**payload, "format_version": 99}, "ver.json"))
    with pytest.raises(ContractError, match="sampler state"):
        load_checkpoint(dump({k: v for k, v in payload.items()
                              if k != "rng"}, "norng.json"))
    with pytest.raises(ContractError, match="sampler state"):
        load_checkpoint(dump({**payload, "rng": {"bit_generator": "PCG64"}},
                             "badrng.json"))
    with pytest.raises(ContractError, match="layout"):
        load_checkpoint(dump({**payload,
                              "param_order": payload["param_order"][::-1]},
                             "order.json"))
    with pytest.raises(ContractError, match="length"):
        load_checkpoint(dump({**payload, "params": payload["params"][:-1]},
                             "short.json"))
    with pytest.raises(ContractError, match="negative step"):
        load_checkpoint(dump({**payload, "step": -1}, "negstep.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ContractError, match="not valid JSON"):
        load_checkpoint(bad)


def test_checkpoint_file_is_byte_deterministic(tmp_path):
    corpus = tiny_corpus()
    config = tiny_config(epochs=1)
    result = train(corpus, config, max_steps=3)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_result(a, result, config_fingerprint="ff")
    save_result(b, result, config_fingerprint="ff")
    assert a.read_bytes() == b.read_bytes()


def test_write_training_log_format(tmp_path):
    path = tmp_path / "log.csv"
    rows = [(0, 0.0, 3.5, 14.0), (1, 0.005, 3.25, 13.9)]
    write_training_log(path, rows, config_fingerprint="beef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config beef"
    assert lines[1] == "step,lr,loss,gamma"
    assert lines[2] == "0,0,3.5,14"
    assert lines[3].startswith("1,0.005")
    assert len(lines) == 4
