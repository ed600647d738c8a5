"""Synthetic corpus generation: spec validation, deterministic structure,
cross-modal noise coupling, and the line-oriented disk format."""

import dataclasses
import hashlib
import json
import math
import struct
import sys

import numpy as np
import pytest

import oracles
from memory import traced_call
from milalign import jsonio, synthgen
from milalign.autodiff import ContractError
from milalign.synthgen import (
    Corpus,
    CorpusSpec,
    generate_corpus,
    prompt_bank,
    read_corpus,
    spec_from_dict,
    split_corpus,
    write_corpus,
    write_prompts,
)


def tiny_spec(**kw):
    base = dict(concepts=4, region_dim=6, sentence_dim=6, regions_per_image=10,
                sentences_per_doc=2, documents=40, concepts_min=1,
                concepts_max=2, box_min=2, box_max=3, seed=0)
    base.update(kw)
    return CorpusSpec(**base)


def test_spec_validation_messages():
    # the spec names the bare field; the reader adds the path it read at
    with pytest.raises(ContractError, match="^concepts must be >= 2$"):
        tiny_spec(concepts=1)
    with pytest.raises(ContractError, match="^corpus.concepts must be >= 2$"):
        spec_from_dict(dict(tiny_spec().to_dict(), concepts=1), "corpus")
    with pytest.raises(ContractError, match="feature"):
        tiny_spec(concepts=7)
    with pytest.raises(ContractError, match="sentence_dim"):
        tiny_spec(sentence_dim=5)
    with pytest.raises(ContractError, match="regions_per_image"):
        tiny_spec(concepts_max=4, box_max=3)
    with pytest.raises(ContractError, match="proper subsets"):
        tiny_spec(regions_per_image=3, concepts_max=1)
    with pytest.raises(ContractError, match="noise_coupling"):
        tiny_spec(noise_coupling=1.5)
    with pytest.raises(ContractError, match="train_fraction"):
        tiny_spec(train_fraction=1.0)
    with pytest.raises(ContractError, match="box size"):
        tiny_spec(box_min=3, box_max=2)


def test_spec_roundtrip():
    spec = tiny_spec(noise_sigma=0.2, seed=9)
    assert spec_from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("spec", [
    CorpusSpec(),
    tiny_spec(noise_sigma=0.0, noise_coupling=1.0, seed=9),
], ids=["default", "non-default"])
def test_spec_from_dict_reads_the_header_text_field_by_field(spec):
    # canonical JSON writes 0.0 and 1.0 as 0 and 1; they read back as floats
    raw = json.loads(jsonio.dumps_canonical(spec.to_dict()))
    back = spec_from_dict(raw)
    assert back == spec
    for field in dataclasses.fields(CorpusSpec):
        assert type(getattr(back, field.name)) is type(field.default)
    with pytest.raises(ContractError, match="unknown field spec.extra"):
        spec_from_dict(dict(raw, extra=1))


def test_generation_is_deterministic():
    spec = tiny_spec()
    a = generate_corpus(spec)
    b = generate_corpus(spec)
    assert np.array_equal(a.bank.region_prototypes, b.bank.region_prototypes)
    for da, db in zip(a.documents, b.documents):
        assert np.array_equal(da.region_observations, db.region_observations)
        assert np.array_equal(da.sentence_observations, db.sentence_observations)
        assert da.boxes == db.boxes
    c = generate_corpus(tiny_spec(seed=1))
    assert not np.array_equal(a.documents[0].region_observations,
                              c.documents[0].region_observations)


IDENTITY_SPECS = {
    "default": dict(documents=60),
    "tiny": dict(concepts=4, region_dim=6, sentence_dim=6,
                 regions_per_image=10, sentences_per_doc=2, documents=80,
                 concepts_max=2, box_min=2, box_max=3, seed=5),
    "dim8": dict(region_dim=8, sentence_dim=8, documents=60, seed=1),
    "dim33": dict(region_dim=33, sentence_dim=40, documents=40, seed=2),
    "uncoupled": dict(noise_coupling=0.0, documents=60, seed=3),
    "coupled": dict(noise_coupling=1.0, noise_sigma=0.3, documents=60,
                    seed=4),
    "no-background": dict(concepts=4, region_dim=6, sentence_dim=6,
                          regions_per_image=6, concepts_min=3,
                          concepts_max=3, box_min=2, box_max=2,
                          documents=30, seed=6),
    # a document holds concepts it does not describe, whose shared noise
    # still shapes its regions
    "one-sentence": dict(sentences_per_doc=1, concepts_max=3, documents=60,
                         seed=7),
    "noiseless": dict(noise_sigma=0.0, documents=40, seed=8),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_SPECS))
def test_generation_matches_the_per_region_reference(name):
    spec = CorpusSpec(**IDENTITY_SPECS[name])
    corpus = generate_corpus(spec)
    protos, sentence_protos, rotation, documents = \
        oracles.generate_corpus(spec)
    assert np.array_equal(corpus.bank.region_prototypes, protos)
    assert np.array_equal(corpus.bank.sentence_prototypes, sentence_protos)
    assert np.array_equal(corpus.bank.modality_rotation, rotation)
    assert len(corpus.documents) == len(documents)
    for doc, want in zip(corpus.documents, documents):
        assert doc.image_id == want["image_id"]
        assert np.array_equal(doc.region_observations, want["regions"])
        assert np.array_equal(doc.sentence_observations, want["sentences"])
        assert doc.region_concepts == want["region_concepts"]
        assert doc.sentence_concepts == want["sentence_concepts"]
        assert doc.boxes == want["boxes"]


@pytest.mark.parametrize("block", [1, 7])
def test_generation_does_not_depend_on_the_block_size(monkeypatch, block):
    spec = CorpusSpec(**IDENTITY_SPECS["default"])
    monkeypatch.setattr(synthgen, "GENERATE_BLOCK_DOCUMENTS", block)
    documents = generate_corpus(spec).documents
    for doc, want in zip(documents, oracles.generate_corpus(spec)[3],
                         strict=True):
        assert np.array_equal(doc.region_observations, want["regions"])
        assert np.array_equal(doc.sentence_observations, want["sentences"])
        assert doc.region_concepts == want["region_concepts"]
        assert doc.sentence_concepts == want["sentence_concepts"]
        assert doc.boxes == want["boxes"]


# SHA-256 of the generated values themselves, so a change of the file format
# cannot hide a change of the numbers it stores
GOLDEN_CORPUS_VALUES = {
    0: "5fb94e806a2c0260e155866cf3b833a534680aa847a446c8e52b20018fa3e882",
    1: "5f23d97c3f334e6a8c59481982e81767aa902776f24c1146ab63242c223cc51b",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_CORPUS_VALUES))
def test_generated_values_keep_their_golden_bits(seed):
    corpus = generate_corpus(CorpusSpec(documents=50, seed=seed))
    digest = hashlib.sha256()
    bank = corpus.bank
    for array in (bank.region_prototypes, bank.sentence_prototypes,
                  bank.modality_rotation):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    for doc in corpus.documents:
        digest.update(doc.region_observations.tobytes())
        digest.update(doc.sentence_observations.tobytes())
        digest.update(json.dumps([doc.image_id, doc.region_concepts,
                                  doc.sentence_concepts,
                                  [list(b) for b in doc.boxes]]).encode())
    assert digest.hexdigest() == GOLDEN_CORPUS_VALUES[seed]


def _canonical_fields(doc):
    """A document's six fields as `jsonio.dumps_canonical` takes them, its
    bags as the reference hex rows."""
    return {
        "image_id": doc.image_id,
        "regions": oracles.hex_rows(doc.region_observations),
        "region_concepts": doc.region_concepts,
        "sentences": oracles.hex_rows(doc.sentence_observations),
        "sentence_concepts": doc.sentence_concepts,
        "boxes": [list(b) for b in doc.boxes],
    }


@pytest.mark.parametrize("name", sorted(IDENTITY_SPECS))
def test_each_document_line_is_the_canonical_text_of_its_fields(tmp_path,
                                                                name):
    corpus = generate_corpus(CorpusSpec(**IDENTITY_SPECS[name]))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus, "abc")
    *lines, last = path.read_text(encoding="utf-8").split("\n")
    assert last == ""
    for doc, line in zip(corpus.documents, lines[1:], strict=True):
        assert line == jsonio.dumps_canonical(_canonical_fields(doc))


# SHA-256 of write_corpus's output (config fingerprint "abc") for every
# identity spec but the default, whose 50-document file test_jsonio pins:
# dim33 has rows of 33 and 40 values, no-background no null region concept
GOLDEN_IDENTITY_FILES = {
    "coupled":
        "7798502b989625d9e64c717b3e4181fcb88152cc3daa6a029c3b0c12a068fdf7",
    "dim33":
        "32792473c1b7fa2065ff121d380e6e72d8d04f87432bbbc2ce0f7c61c2c94a45",
    "dim8":
        "f2091cb8fdeedd92aff4a27edb1d5af64c6f2002b896257b110b4a5df069bc26",
    "no-background":
        "3e9c2af696bedd746c2d8e37e387d20afcc5dcc309b718ad980d447214464abf",
    "noiseless":
        "a95f9317d951bbaa7946672015d0501a72d155d2348a216bc81aec4a0064e0b9",
    "one-sentence":
        "f8bc2a5d562f359a77d565d8cb876a0266bbe179759ef736485b4cf42d68cab5",
    "tiny":
        "4dcaa3f17a4e1a34e18d49978d0afb993c45ffdf4ee822118e80e407e914b0e8",
    "uncoupled":
        "c7f1bc465f10353ecf900a5627e7e54ef2a51972ec9cfea20e4bdc20dd93c712",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_IDENTITY_FILES))
def test_identity_corpus_files_keep_their_golden_bytes(tmp_path, name):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, generate_corpus(CorpusSpec(**IDENTITY_SPECS[name])),
                 "abc")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN_IDENTITY_FILES[name]


def test_prototypes_are_orthonormal_and_rotated():
    corpus = generate_corpus(tiny_spec())
    bank = corpus.bank
    gram = bank.region_prototypes @ bank.region_prototypes.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    gram_s = bank.sentence_prototypes @ bank.sentence_prototypes.T
    assert np.max(np.abs(gram_s - np.eye(4))) < 1e-12
    want = bank.region_prototypes @ bank.modality_rotation.T
    assert np.max(np.abs(bank.sentence_prototypes - want)) < 1e-12
    rot = bank.modality_rotation
    assert np.max(np.abs(rot.T @ rot - np.eye(6))) < 1e-12


def test_document_structure_invariants():
    spec = tiny_spec(documents=200)
    corpus = generate_corpus(spec)
    assert len(corpus.documents) == 200
    for doc in corpus.documents:
        n = doc.region_observations.shape[0]
        assert n == spec.regions_per_image
        m = doc.sentence_observations.shape[0]
        assert 1 <= m <= spec.sentences_per_doc
        assert len(doc.sentence_concepts) == m
        assert len(doc.boxes) == m
        concepts_here = [c for c in doc.region_concepts if c is not None]
        assert len(set(doc.sentence_concepts)) == len(doc.sentence_concepts)
        for j, box in enumerate(doc.boxes):
            assert spec.box_min <= len(box) <= spec.box_max
            assert list(box) == sorted(box)
            assert 0 <= min(box) and max(box) < n
            # every box region carries that sentence's concept
            for idx in box:
                assert doc.region_concepts[idx] == doc.sentence_concepts[j]
        # boxes never overlap
        all_members = [i for box in doc.boxes for i in box]
        assert len(all_members) == len(set(all_members))
        for c in concepts_here:
            assert 0 <= c < spec.concepts


def test_region_noise_scale():
    spec = tiny_spec(documents=300, noise_sigma=0.05)
    corpus = generate_corpus(spec)
    protos = corpus.bank.region_prototypes
    residuals = []
    for doc in corpus.documents:
        for idx, c in enumerate(doc.region_concepts):
            if c is not None:
                residuals.append(doc.region_observations[idx] - protos[c])
    residuals = np.asarray(residuals)
    # per-coordinate standard deviation should track noise_sigma
    std = residuals.std()
    assert 0.8 * 0.05 < std < 1.2 * 0.05


def test_noise_coupling_links_modalities():
    def paired_noise_correlation(coupling):
        spec = tiny_spec(documents=400, noise_coupling=coupling, seed=2)
        corpus = generate_corpus(spec)
        rot = corpus.bank.modality_rotation
        protos = corpus.bank.region_prototypes
        sprotos = corpus.bank.sentence_prototypes
        dots = []
        for doc in corpus.documents:
            for j, concept in enumerate(doc.sentence_concepts):
                box = doc.boxes[j]
                region_noise = np.mean(
                    [doc.region_observations[i] - protos[concept]
                     for i in box], axis=0)
                sent_noise = doc.sentence_observations[j] - sprotos[concept]
                a = rot @ region_noise
                dots.append(float(np.dot(a, sent_noise))
                            / (np.linalg.norm(a) * np.linalg.norm(sent_noise)))
        return float(np.mean(dots))

    coupled = paired_noise_correlation(0.9)
    uncoupled = paired_noise_correlation(0.0)
    assert coupled > 0.5
    assert abs(uncoupled) < 0.15


def test_split_is_deterministic_partition():
    corpus = generate_corpus(tiny_spec(documents=50))
    tr1, te1 = split_corpus(corpus, 0.6, seed=0)
    tr2, te2 = split_corpus(corpus, 0.6, seed=0)
    assert [d.image_id for d in tr1.documents] == \
        [d.image_id for d in tr2.documents]
    assert len(tr1.documents) == 30 and len(te1.documents) == 20
    ids = sorted(d.image_id for d in tr1.documents + te1.documents)
    assert ids == list(range(50))
    tr3, _ = split_corpus(corpus, 0.6, seed=1)
    assert [d.image_id for d in tr3.documents] != \
        [d.image_id for d in tr1.documents]


def test_split_degenerate_sizes_error():
    corpus = generate_corpus(tiny_spec(documents=2))
    with pytest.raises(ContractError, match="degenerate"):
        split_corpus(corpus, 0.1, seed=0)
    with pytest.raises(ContractError):
        split_corpus(corpus, 1.5, seed=0)


def test_prompt_bank_is_noise_free():
    corpus = generate_corpus(tiny_spec())
    prompts = prompt_bank(corpus.bank)
    assert sorted(prompts) == [0, 1, 2, 3]
    for c, vec in prompts.items():
        assert np.array_equal(vec, corpus.bank.sentence_prototypes[c])


def test_corpus_file_roundtrip(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=12))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus, config_fingerprint="abcd")
    back = read_corpus(path)
    assert back.spec == corpus.spec
    assert np.array_equal(back.bank.region_prototypes,
                          corpus.bank.region_prototypes)
    assert len(back.documents) == 12
    for da, db in zip(corpus.documents, back.documents):
        assert da.image_id == db.image_id
        assert np.array_equal(da.region_observations, db.region_observations)
        assert np.array_equal(da.sentence_observations,
                              db.sentence_observations)
        assert da.region_concepts == db.region_concepts
        assert da.sentence_concepts == db.sentence_concepts
        assert da.boxes == db.boxes
    # writing the re-read corpus reproduces the file byte for byte
    path2 = tmp_path / "again.jsonl"
    write_corpus(path2, back, config_fingerprint="abcd")
    assert path.read_bytes() == path2.read_bytes()


def test_read_corpus_error_reporting(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ContractError, match="header"):
        read_corpus(empty)

    noheader = tmp_path / "noheader.jsonl"
    noheader.write_text('{"kind":"other"}\n')
    with pytest.raises(ContractError, match="line 1"):
        read_corpus(noheader)

    corpus = generate_corpus(tiny_spec(documents=3))
    broken = tmp_path / "broken.jsonl"
    write_corpus(broken, corpus)
    lines = broken.read_text().splitlines()
    lines[2] = "{not json"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError, match="line 3"):
        read_corpus(broken)


def _edit_document(doc, edit):
    if edit == "dropped region":
        doc["regions"] = doc["regions"][:-1]
        return "(9, 6)"
    if edit == "wrong width":
        # one more value per row: 16 more hex digits
        doc["regions"] = [row + "0" * 16 for row in doc["regions"]]
        return "(10, 7)"
    if edit == "too many sentences":
        doc["sentences"] = [doc["sentences"][0]] * 3
        return "(3, 6)"
    doc["sentences"] = []
    return "(0,)"


@pytest.mark.parametrize("edit", ["dropped region", "wrong width",
                                  "too many sentences",
                                  "empty sentence list"])
def test_read_corpus_refuses_bags_that_do_not_fit_the_spec(tmp_path, edit):
    corpus = generate_corpus(tiny_spec(documents=4))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[3])
    found = _edit_document(doc, edit)
    lines[3] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError) as err:
        read_corpus(path)
    message = str(err.value)
    assert f"line 4: image_id {doc['image_id']}:" in message
    assert found in message
    assert "expected regions (10, 6) and sentences (k, 6) " \
        "with 1 <= k <= 2" in message


def _special_values(rng, shape):
    """A random array of `shape` whose first values are the float64 edge
    cases, the rest random finite bit patterns and gaussians."""
    edges = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
             sys.float_info.min, sys.float_info.max, -sys.float_info.max,
             1.0, -1.0]
    bits = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64)
    values = bits.view(np.float64).copy()
    values[~np.isfinite(values)] = 0.5
    values.flat[:len(edges)] = edges
    values.flat[-5:] = rng.standard_normal(5)
    return values


def test_bags_are_written_as_reference_hex_rows_and_read_back_bit_for_bit(
        tmp_path):
    rng = np.random.default_rng(11)
    corpus = generate_corpus(tiny_spec(documents=8))
    for doc in corpus.documents:
        doc.region_observations = _special_values(
            rng, doc.region_observations.shape)
        doc.sentence_observations = _special_values(
            rng, doc.sentence_observations.shape)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()[1:]
    back = read_corpus(path)
    for doc, line, read in zip(corpus.documents, lines, back.documents,
                               strict=True):
        written = json.loads(line)
        for field, bag, got in (
                ("regions", doc.region_observations, read.region_observations),
                ("sentences", doc.sentence_observations,
                 read.sentence_observations)):
            assert written[field] == oracles.hex_rows(bag)
            assert got.dtype == np.float64 and got.shape == bag.shape
            assert got.tobytes() == bag.tobytes()
    # capital digits read as the same bytes
    upper = tmp_path / "upper.jsonl"
    docs = [json.loads(line) for line in lines]
    for doc in docs:
        doc["regions"] = [row.upper() for row in doc["regions"]]
    upper.write_text("\n".join([path.read_text().splitlines()[0]]
                               + [json.dumps(doc) for doc in docs]) + "\n")
    for doc, read in zip(corpus.documents, read_corpus(upper).documents,
                         strict=True):
        assert read.region_observations.tobytes() == \
            doc.region_observations.tobytes()


def _hex(*values):
    return struct.pack(f"<{len(values)}d", *values).hex()


def _set_row(field, index, row):
    def edit(doc):
        doc[field][index] = row(doc[field][index])
    return edit


@pytest.mark.parametrize("edit, found", [
    (_set_row("regions", 3, lambda r: _hex(math.nan) + r[16:]),
     "regions[3] holds a non-finite value"),
    (_set_row("regions", 9, lambda r: r[:-16] + _hex(math.inf)),
     "regions[9] holds a non-finite value"),
    (_set_row("sentences", 1, lambda r: r[:16] + _hex(-math.inf) + r[32:]),
     "sentences[1] holds a non-finite value"),
    (_set_row("regions", 3, lambda r: [0.0] * 6),
     "regions[3] is not a string"),
    (_set_row("regions", 0, lambda r: None),
     "regions[0] is not a string"),
    (_set_row("sentences", 1, lambda r: r[:-2]),
     "sentences[1] has 94 characters, not 16 × 6"),
    (_set_row("regions", 3, lambda r: r + "00"),
     "regions[3] has 98 characters, not 16 × 6"),
    (_set_row("regions", 0, lambda r: r[:-2]),
     "regions[0] has 94 characters, not 16 per value"),
    (_set_row("regions", 0, lambda r: ""),
     "regions[0] has 0 characters, not 16 per value"),
    (_set_row("regions", 3, lambda r: "g" + r[1:]),
     "regions[3] has a character that is not a hex digit"),
    (_set_row("regions", 3, lambda r: r[:40] + "é" + r[41:]),
     "regions[3] has a character that is not a hex digit"),
    (_set_row("sentences", 0, lambda r: "  " + r[2:]),
     "sentences[0] has a character that is not a hex digit"),
    (_set_row("regions", 5, lambda r: r[:-2] + "\n0"),
     "regions[5] has a character that is not a hex digit"),
    (lambda d: d.update(regions="00" * 8),
     "regions is not a list of hex rows"),
], ids=["nan", "inf", "minus inf", "row of numbers", "null first row",
        "short row", "long row", "short first row", "empty first row",
        "non-hex digit", "non-ascii character", "spaces", "newline",
        "bag not a list"])
def test_read_corpus_refuses_rows_that_are_not_finite_hex(tmp_path, edit,
                                                          found):
    corpus = generate_corpus(tiny_spec(documents=6))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines[1:], start=2)
                  if len(json.loads(line)["sentences"]) == 2)
    doc = json.loads(lines[lineno - 1])
    edit(doc)
    lines[lineno - 1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError) as err:
        read_corpus(path)
    assert str(err.value) == \
        f"{path}: line {lineno}: image_id {doc['image_id']}: {found}"


def test_write_corpus_refuses_a_non_finite_value(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=3))
    corpus.documents[1].sentence_observations[0, 2] = math.nan
    with pytest.raises(ContractError, match="non-finite"):
        write_corpus(tmp_path / "corpus.jsonl", corpus)


def _set_id(doc, field, value):
    if field == "image_id":
        doc.image_id = value
    elif field == "boxes":
        doc.boxes[0] = (value,) + tuple(doc.boxes[0][1:])
    else:
        getattr(doc, field)[0] = value


@pytest.mark.parametrize("field", ["image_id", "region_concepts",
                                   "sentence_concepts", "boxes"])
@pytest.mark.parametrize("value", [True, False, 2.0, 0.5, np.int64(2),
                                   np.uint8(1)],
                         ids=["true", "false", "float", "fraction", "int64",
                              "uint8"])
def test_write_corpus_writes_a_non_int_id_canonically_or_refuses_it(
        tmp_path, field, value):
    # never as str() text that is not JSON, such as True
    corpus = generate_corpus(tiny_spec(documents=3))
    doc = corpus.documents[1]
    _set_id(doc, field, value)
    path = tmp_path / "corpus.jsonl"
    try:
        write_corpus(path, corpus)
    except ContractError as exc:
        assert "image_id" in str(exc) and field in str(exc)
        return
    line = path.read_text(encoding="utf-8").splitlines()[2]
    assert line == jsonio.dumps_canonical(_canonical_fields(doc))


def test_write_corpus_writes_id_tuples_as_lists(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=3))
    doc = corpus.documents[1]
    doc.region_concepts = tuple(doc.region_concepts)
    doc.sentence_concepts = tuple(doc.sentence_concepts)
    doc.boxes = tuple(doc.boxes)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    line = path.read_text(encoding="utf-8").splitlines()[2]
    assert line == jsonio.dumps_canonical(_canonical_fields(doc))


def test_read_corpus_refuses_format_version_1(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=3))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format_version"] == 2
    header["format_version"] = 1
    path.write_text("\n".join([jsonio.dumps_canonical(header)] + lines[1:])
                    + "\n")
    with pytest.raises(ContractError) as err:
        read_corpus(path)
    assert str(err.value) == f"{path}: unsupported corpus format_version 1"


def _put(field, index, value):
    def edit(doc):
        doc[field][index] = value
    return edit


def _set_first_box_index(doc, value):
    doc["boxes"][0][0] = value


@pytest.mark.parametrize("edit, found", [
    (lambda d: _set_first_box_index(d, 99),
     "boxes[0] [99, "),
    (lambda d: d["sentence_concepts"].append(0),
     "sentence_concepts has 3 entries for 2 sentences"),
    (_put("sentence_concepts", 1, 4),
     "sentence_concepts has id 4 outside [0, 4)"),
    (lambda d: d["region_concepts"].pop(),
     "region_concepts has 9 entries for 10 regions"),
    (_put("region_concepts", 0, -1),
     "region_concepts has id -1 outside [0, 4) and not null"),
    (lambda d: d["boxes"].pop(),
     "boxes has 1 boxes for 2 sentences"),
    (_put("boxes", 1, []),
     "boxes[1] is empty"),
    (lambda d: _set_first_box_index(d, d["boxes"][0][1]),
     "has duplicate region indices"),
    (_put("boxes", 0, list(range(10))),
     "boxes[0] has 10 of the 10 regions: a box must be a proper subset"),
    (lambda d: _set_first_box_index(d, 4.9),
     "has an index that is not an integer"),
    (_put("sentence_concepts", 1, True),
     "sentence_concepts has id true that is not an integer"),
    (_put("region_concepts", 0, 1.0),
     "region_concepts has id 1.0 that is not an integer and not null"),
], ids=["box index out of range", "extra sentence concept",
        "sentence concept out of range", "missing region concept",
        "region concept out of range", "missing box", "empty box",
        "duplicate box index", "box of every region", "float box index",
        "boolean sentence concept", "float region concept"])
def test_read_corpus_refuses_lists_that_do_not_describe_the_bags(
        tmp_path, edit, found):
    corpus = generate_corpus(tiny_spec(documents=6))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    # the first document with two sentences, so every edit applies
    lineno = next(i for i, line in enumerate(lines[1:], start=2)
                  if len(json.loads(line)["sentences"]) == 2)
    doc = json.loads(lines[lineno - 1])
    edit(doc)
    lines[lineno - 1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError) as err:
        read_corpus(path)
    message = str(err.value)
    assert f"line {lineno}: image_id {doc['image_id']}: " in message
    assert found in message


def test_read_corpus_refuses_a_float_image_id(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=3))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[2])
    doc["image_id"] = 1.5
    lines[2] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError,
                       match="line 3: malformed document: image_id must be "
                             "an integer"):
        read_corpus(path)


def test_header_only_corpus_reads_empty(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=5))
    path = tmp_path / "c.jsonl"
    write_corpus(path, Corpus(spec=corpus.spec, bank=corpus.bank,
                              documents=[]))
    back = read_corpus(path)
    assert back.documents == []


def test_write_prompts_file(tmp_path):
    corpus = generate_corpus(tiny_spec())
    path = tmp_path / "prompts.json"
    write_prompts(path, corpus.bank, config_fingerprint="ff00")
    import json
    payload = json.loads(path.read_text())
    assert payload["kind"] == "prompt-bank"
    assert payload["config_fingerprint"] == "ff00"
    assert sorted(payload["prompts"]) == ["0", "1", "2", "3"]
    got = np.asarray(payload["prompts"]["2"])
    assert np.array_equal(got, corpus.bank.sentence_prototypes[2])


def test_sentence_dim_larger_than_region_dim():
    spec = tiny_spec(sentence_dim=8)
    corpus = generate_corpus(spec)
    assert corpus.bank.sentence_prototypes.shape == (4, 8)
    rot = corpus.bank.modality_rotation
    assert rot.shape == (8, 6)
    assert np.max(np.abs(rot.T @ rot - np.eye(6))) < 1e-12
    for doc in corpus.documents:
        assert doc.sentence_observations.shape[1] == 8


def test_read_corpus_names_the_line_of_a_blank_line(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=4))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus)
    lines = path.read_text().splitlines()
    for blank in ("", "   "):
        path.write_text("\n".join(lines[:3] + [blank] + lines[3:]) + "\n")
        with pytest.raises(ContractError,
                           match="line 4: blank line in corpus"):
            read_corpus(path)


def test_crlf_corpus_reads_back_the_same_arrays(tmp_path):
    corpus = generate_corpus(tiny_spec(documents=6))
    lf = tmp_path / "lf.jsonl"
    write_corpus(lf, corpus, config_fingerprint="abcd")
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back = read_corpus(crlf)
    for da, db in zip(corpus.documents, back.documents, strict=True):
        assert np.array_equal(da.region_observations, db.region_observations)
        assert np.array_equal(da.sentence_observations,
                              db.sentence_observations)
    again = tmp_path / "again.jsonl"
    write_corpus(again, back, config_fingerprint="abcd")
    assert again.read_bytes() == lf.read_bytes()


def test_read_corpus_holds_less_than_the_file(tmp_path):
    # the documents are parsed as the file streams past, so the reader never
    # holds the file's text, let alone a second copy split into lines
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, generate_corpus(CorpusSpec(documents=600)))
    _, _, peak = traced_call(read_corpus, path)
    assert peak < path.stat().st_size


def test_a_default_corpus_holds_its_arrays_and_little_else():
    # beside its two arrays' bytes, each document, a slotted record, holds
    # under 1,100 bytes: its concept and box lists, the array headers and
    # its share of a first call's one-off allocations (1,069 bytes in a
    # fresh interpreter)
    corpus, held, _ = traced_call(generate_corpus, CorpusSpec(documents=3000))
    arrays = sum(doc.region_observations.nbytes
                 + doc.sentence_observations.nbytes
                 for doc in corpus.documents)
    assert held < arrays + 1100 * len(corpus.documents)


def test_generate_corpus_peaks_near_what_the_corpus_holds():
    # the arithmetic runs a block of documents at a time, so no temporary
    # spans the corpus: the peak stays near what the finished corpus holds
    corpus, held, peak = traced_call(generate_corpus,
                                     CorpusSpec(documents=3000))
    assert len(corpus.documents) == 3000
    assert peak < 1.3 * held
