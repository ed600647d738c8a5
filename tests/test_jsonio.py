"""Canonical serialization: sorted keys, 17-digit floats, stable digests,
and the whole-array float64 path against the value-by-value reference."""

import hashlib
import json
import math

import numpy as np
import pytest

import oracles
from milalign.autodiff import ContractError
from milalign.config import experiment_from_dict
from milalign.jsonio import (dumps_canonical, fingerprint, format_float,
                              loads, write_csv)
from milalign.synthgen import (CorpusSpec, generate_corpus, write_corpus,
                               write_prompts)


def test_format_float_roundtrips_float64():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ContractError):
            format_float(bad)


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c", "d"),
              [(None, 0.1, 3, "x; y"), (np.float64(2.5), None, True, "")])
    assert path.read_text().splitlines() == [
        "a,b,c,d", ",0.10000000000000001,3,x; y", "2.5,,True,"]


def test_write_csv_comments_and_non_finite(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("v",), [(1.0,)], comments=("config beef", "seed 2"))
    assert path.read_text() == "# config beef\n# seed 2\nv\n1\n"
    for bad in (math.inf, np.float64(math.nan)):
        with pytest.raises(ContractError, match="non-finite"):
            write_csv(tmp_path / "bad.csv", ("v",), [(bad,)])


def test_keys_are_sorted():
    text = dumps_canonical({"b": 1, "a": 2, "c": 3})
    assert text == '{"a":2,"b":1,"c":3}'


def test_nested_structures_and_scalars():
    obj = {"x": [1, 2.5, None, True, False, "s"], "y": {"z": [[1], [2]]}}
    text = dumps_canonical(obj)
    assert loads(text) == {"x": [1, 2.5, None, True, False, "s"],
                           "y": {"z": [[1], [2]]}}


def test_ndarray_serializes_as_nested_lists():
    arr = np.arange(6.0).reshape(2, 3)
    text = dumps_canonical({"a": arr})
    assert loads(text)["a"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_numpy_scalars_serialize_like_python_scalars():
    assert dumps_canonical(np.int64(3)) == "3"
    assert dumps_canonical(np.float64(0.5)) == "0.5"
    assert dumps_canonical(True) == "true"


def test_serialization_is_key_order_independent():
    a = {"p": 1, "q": [1.5, {"r": 2}]}
    b = {"q": [1.5, {"r": 2}], "p": 1}
    assert dumps_canonical(a) == dumps_canonical(b)
    assert fingerprint(a) == fingerprint(b)


def test_fingerprint_is_16_hex_digits_and_value_sensitive():
    fp = fingerprint({"a": 1})
    assert len(fp) == 16
    assert all(c in "0123456789abcdef" for c in fp)
    assert fingerprint({"a": 1}) == fp
    assert fingerprint({"a": 2}) != fp


def test_float_roundtrip_through_serialization():
    values = [1.0 / 3.0, math.pi, 1e-300, -2.2250738585072014e-308]
    text = dumps_canonical(values)
    assert loads(text) == values


def test_rejects_unserializable_objects():
    with pytest.raises(ContractError):
        dumps_canonical({"a": object()})
    with pytest.raises(ContractError):
        dumps_canonical({1: "non-string key"})


def test_matches_stdlib_json_for_plain_content():
    obj = {"a": [1, 2], "b": "text"}
    assert json.loads(dumps_canonical(obj)) == obj


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.5e300, -1.5e300, 1.0,
               0.1, 1.0 / 3.0, -2.2250738585072014e-308, 123456789.0]


def _float64_arrays():
    rng = np.random.default_rng(7)
    yield rng.standard_normal(5)
    yield rng.standard_normal((4, 3))
    yield rng.standard_normal((2, 3, 4)) * 10.0 ** rng.integers(-20, 20,
                                                               (2, 3, 4))
    yield np.array(EDGE_VALUES)
    yield np.array(EDGE_VALUES).reshape(3, 4)
    yield np.array(2.5)
    for shape in ((0,), (0, 3), (3, 0)):
        yield np.zeros(shape)
    base = rng.standard_normal((6, 8))
    yield base[::2, 1::3]
    yield base[:, 5]
    yield base.T
    yield np.asfortranarray(base)
    yield np.asfortranarray(rng.standard_normal((3, 4, 2)))


@pytest.mark.parametrize("arr", list(_float64_arrays()),
                         ids=lambda a: f"{a.shape}-"
                         f"{'F' if a.flags.f_contiguous else 'C'}")
def test_float64_arrays_match_the_value_by_value_reference(arr):
    assert arr.dtype == np.float64
    want = oracles.canonical_json(arr)
    assert dumps_canonical(arr) == want
    assert dumps_canonical({"a": arr, "b": [arr, 1]}) == \
        oracles.canonical_json({"a": arr, "b": [arr, 1]})


def test_edge_values_keep_their_17_digit_text():
    text = dumps_canonical(np.array(EDGE_VALUES))
    assert text == "[" + ",".join(format(x, ".17g") for x in EDGE_VALUES) + "]"
    assert text.startswith("[-0,0,4.9406564584124654e-324,")
    assert loads(text) == EDGE_VALUES


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_array_entry_raises_the_scalar_message(bad):
    arr = np.ones((3, 4))
    arr[2, 1] = bad
    with pytest.raises(ContractError) as scalar:
        format_float(bad)
    with pytest.raises(ContractError) as whole:
        dumps_canonical({"x": arr})
    with pytest.raises(ValueError) as reference:
        oracles.canonical_json(arr)
    assert str(whole.value) == str(scalar.value) == str(reference.value)


@pytest.mark.parametrize("arr", [
    np.arange(6).reshape(2, 3),
    np.array([[True, False], [False, True]]),
    np.array([0.1, -0.0, 1e-40, 3.0], dtype=np.float32).reshape(2, 2),
    np.zeros((2, 0), dtype=np.int64),
], ids=["int", "bool", "float32", "empty-int"])
def test_other_dtypes_encode_as_before(arr):
    assert dumps_canonical(arr) == oracles.canonical_json(arr)


# SHA-256 of write_corpus + write_prompts output (config fingerprint "abc")
# for CorpusSpec(documents=50, seed=...). The prompt files were recorded with
# the value-by-value encoder and the per-region generator; the corpus files
# with format version 2's hex rows, once test_synthgen's golden values had
# pinned the generated numbers. Any drift in a file format or the generated
# values changes them
GOLDEN_CORPUS_FILES = {
    0: ("4e0f1d92e1ca15b0def6bc691c40c738e1ac43c06f9ff018c8cf9f762630d8d3",
        "a747ab9d31cb0352caac2266cdcddc0551664fc271432b59c1e30da03a535e95"),
    1: ("903bf0794898a126cd30616f56f693f154b7b7df8a712876f81fcd2c8d5c6aa8",
        "06cf4a00dd78fd7d07046dd7a02bf535a1a5987af562c7f0c1bf5c0cd74d7f20"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_CORPUS_FILES))
def test_corpus_and_prompt_files_keep_their_golden_bytes(tmp_path, seed):
    corpus = generate_corpus(CorpusSpec(documents=50, seed=seed))
    write_corpus(tmp_path / "corpus.jsonl", corpus, "abc")
    write_prompts(tmp_path / "prompts.json", corpus.bank, "abc")
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("corpus.jsonl", "prompts.json"))
    assert got == GOLDEN_CORPUS_FILES[seed]


def test_default_experiment_fingerprint_is_pinned():
    assert experiment_from_dict({}).fingerprint == "bb5814d7c3f8f5e6"
