"""Synthetic latent-concept corpus with paired region and sentence bags.

Each document is an image of N region observations plus up to
`sentences_per_doc` sentence observations. Every sentence describes one
concept that is guaranteed to occupy at least one region (its box); the
remaining regions are background noise, so a sentence is a positive bag
label in the multiple-instance sense. Region and sentence observations
live in separate spaces tied by a fixed orthogonal rotation: sentence
prototypes are the rotated region prototypes, and a fraction
(`noise_coupling`) of each concept's per-document noise is shared across
the two modalities through the same rotation. The shared part is what
makes individual pairs distinguishable within a concept; with matching
dimensions (the default) the marginal observation distribution is still
exactly prototype + isotropic gaussian, and with a strictly larger
sentence space the directions outside the rotated region subspace carry
the independent share of the noise only.

On disk a corpus is one JSON line per document after a header line. The
header is canonical JSON text (`jsonio`); its spec is read by
`spec_from_dict`, the same reader the config's `corpus` section goes
through. A document's `regions` and `sentences` are lists of hex rows:
each row is the lowercase hex of its values' little-endian float64 bytes,
16 digits per value, so a bag reads back bit for bit with one
`bytes.fromhex` and one `np.frombuffer` call. Every id in a document
must be a JSON integer; anything else, and a row that is not a string of
the bag's width in hex digits or holds a non-finite value, is refused
naming the line and the field.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import ContractError
from . import jsonio

# Each file kind has its own version; a version-2 corpus holds its document
# bags as hex rows, and the reader accepts no other version.
CORPUS_FORMAT_VERSION = 2
PROMPTS_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CorpusSpec:
    concepts: int = 8
    region_dim: int = 12
    sentence_dim: int = 12
    regions_per_image: int = 16
    sentences_per_doc: int = 3
    documents: int = 2000
    noise_sigma: float = 0.1
    concepts_min: int = 1
    concepts_max: int = 3
    box_min: int = 2
    box_max: int = 4
    noise_coupling: float = 0.75
    train_fraction: float = 0.65
    seed: int = 0

    def __post_init__(self):
        if self.concepts < 2:
            raise ContractError("concepts must be >= 2")
        if self.concepts > min(self.region_dim, self.sentence_dim):
            raise ContractError("concepts cannot exceed either feature "
                                "dimension (prototypes are orthonormal)")
        if self.sentence_dim < self.region_dim:
            raise ContractError("sentence_dim must be >= region_dim "
                                "(the modality rotation preserves norms)")
        if self.documents < 1:
            raise ContractError("documents must be >= 1")
        if self.sentences_per_doc < 1:
            raise ContractError("sentences_per_doc must be >= 1")
        if not (1 <= self.concepts_min <= self.concepts_max <= self.concepts):
            raise ContractError("concepts_min and concepts_max must satisfy "
                                "1 <= concepts_min <= concepts_max <= concepts")
        if not (1 <= self.box_min <= self.box_max):
            raise ContractError("box_min and box_max must give a box size "
                                "range 1 <= box_min <= box_max")
        if self.concepts_max * self.box_max > self.regions_per_image:
            raise ContractError("regions_per_image is too small for the "
                                "largest concept/box combination")
        if self.box_max >= self.regions_per_image:
            raise ContractError("box_max must be < regions_per_image (boxes "
                                "must be proper subsets of the regions)")
        if not self.noise_sigma >= 0.0:
            raise ContractError("noise_sigma must be >= 0")
        if not 0.0 <= self.noise_coupling <= 1.0:
            raise ContractError("noise_coupling must lie in [0, 1]")
        if not 0.0 < self.train_fraction < 1.0:
            raise ContractError("train_fraction must lie in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


def spec_from_dict(d: dict, path: str = "spec") -> CorpusSpec:
    """Inverse of CorpusSpec.to_dict: every field is required and read as
    the type of its default; a missing, wrongly typed or unknown field
    raises ContractError naming its dotted path under `path`."""
    return jsonio.read_dataclass(CorpusSpec, d, path)


@dataclass(eq=False)
class ConceptBank:
    """Fixed concept geometry: orthonormal prototypes per modality plus the
    rotation that carries region space onto sentence space."""

    region_prototypes: np.ndarray    # (C, region_dim), orthonormal rows
    sentence_prototypes: np.ndarray  # (C, sentence_dim), rotated region rows
    modality_rotation: np.ndarray    # (sentence_dim, region_dim), orthonormal cols
    seed: int

    @property
    def concepts(self) -> int:
        return self.region_prototypes.shape[0]


@dataclass(eq=False)
class SyntheticDocument:
    image_id: int
    region_observations: np.ndarray   # (N, region_dim)
    region_concepts: list             # concept id per region, None = background
    sentence_observations: np.ndarray # (M_doc, sentence_dim)
    sentence_concepts: list           # concept id per sentence
    boxes: list                       # per sentence, sorted tuple of region indices


@dataclass(eq=False)
class Corpus:
    spec: CorpusSpec
    bank: ConceptBank
    documents: list = field(default_factory=list)


def _rotation(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # orthonormal columns (rows >= cols is enforced by CorpusSpec)
    raw = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically generate the bank and all documents from spec.seed."""
    rng = np.random.default_rng(spec.seed)
    protos = _rotation(rng, spec.region_dim, spec.concepts).T  # orthonormal rows
    rotation = _rotation(rng, spec.sentence_dim, spec.region_dim)
    bank = ConceptBank(
        region_prototypes=protos,
        sentence_prototypes=protos @ rotation.T,
        modality_rotation=rotation,
        seed=spec.seed,
    )
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
        owner = np.full(spec.regions_per_image, -1)
        for which, size in enumerate(sizes):
            members = sorted(int(i) for i in order[offset:offset + size])
            offset += size
            boxes.append(tuple(members))
            owner[members] = which
        shared = rng.standard_normal((count, spec.region_dim))
        # every region draws region_dim normals in index order; background
        # rows become a raw gaussian direction scaled to norm 0.5, half the
        # prototype norm, concept rows the prototype plus coupled noise
        draw = rng.standard_normal((spec.regions_per_image, spec.region_dim))
        background = owner < 0
        raw = draw[background]
        norms = np.sqrt(np.sum(raw * raw, axis=1))
        owned = owner[~background]
        regions = np.empty((spec.regions_per_image, spec.region_dim))
        regions[background] = 0.5 * raw / np.maximum(norms, 1e-300)[:, None]
        noise = shared_scale * shared[owned] + own_scale * draw[~background]
        regions[~background] = protos[np.asarray(concepts)[owned]] \
            + spec.noise_sigma * noise
        concept_of_region = [None if w < 0 else concepts[w]
                             for w in owner.tolist()]
        described = min(count, spec.sentences_per_doc)
        sentences = np.empty((described, spec.sentence_dim))
        for which in range(described):
            noise = shared_scale * (rotation @ shared[which]) \
                + own_scale * rng.standard_normal(spec.sentence_dim)
            sentences[which] = bank.sentence_prototypes[concepts[which]] \
                + spec.noise_sigma * noise
        documents.append(SyntheticDocument(
            image_id=image_id,
            region_observations=regions,
            region_concepts=concept_of_region,
            sentence_observations=sentences,
            sentence_concepts=concepts[:described],
            boxes=boxes[:described],
        ))
    return Corpus(spec=spec, bank=bank, documents=documents)


def split_corpus(corpus: Corpus, train_fraction: float, seed: int):
    """Deterministic shuffle-split into disjoint train/test corpora."""
    n = len(corpus.documents)
    if not 0.0 < train_fraction < 1.0:
        raise ContractError("train_fraction must lie in (0, 1)")
    k = int(math.floor(train_fraction * n))
    if k < 1 or n - k < 1:
        raise ContractError(f"degenerate split: {k} train / {n - k} test documents")
    order = np.random.default_rng(seed).permutation(n)
    train = [corpus.documents[int(i)] for i in order[:k]]
    test = [corpus.documents[int(i)] for i in order[k:]]
    return (Corpus(spec=corpus.spec, bank=corpus.bank, documents=train),
            Corpus(spec=corpus.spec, bank=corpus.bank, documents=test))


def prompt_bank(bank: ConceptBank) -> dict:
    """Noise-free sentence observation per concept id."""
    return {c: bank.sentence_prototypes[c].copy() for c in range(bank.concepts)}


# A bag row's values as the file stores them, whatever the machine's order.
_FILE_FLOAT = np.dtype("<f8")


def _hex_rows(bag: np.ndarray) -> list:
    """The rows of a (k, dim) float64 bag, each as the lowercase hex of its
    values' little-endian bytes, 16 digits per value."""
    if not np.isfinite(bag).all():
        raise ContractError("cannot serialize non-finite float")
    text = bag.astype(_FILE_FLOAT, copy=False).tobytes().hex()
    width = 16 * bag.shape[1]
    return [text[start:start + width] for start in range(0, len(text), width)]


class _BagError(ContractError):
    """A document bag whose hex rows do not decode."""


def _row_problem(row, width: int) -> str | None:
    """What keeps one hex row from holding `width` // 16 values, or None."""
    if type(row) is not str:
        return "is not a string"
    if len(row) != width:
        return f"has {len(row)} characters, not 16 × {width // 16}"
    try:
        # fromhex skips whitespace, so a row with some decodes short
        if 2 * len(bytes.fromhex(row)) == width:
            return None
    except ValueError:
        pass
    return "has a character that is not a hex digit"


def _bag_from_hex(rows, name: str) -> np.ndarray:
    """The (k, dim) float64 bag `_hex_rows` wrote; its first row sets dim.
    An empty list reads as shape (0,). A row that is not a string of
    16 × dim hex digits, or that holds a non-finite value, is a _BagError
    naming the field and the row."""
    if not isinstance(rows, list):
        raise _BagError(f"{name} is not a list of hex rows")
    if not rows:
        return np.empty(0)
    if type(rows[0]) is not str:
        raise _BagError(f"{name}[0] is not a string")
    width = len(rows[0])
    if not width or width % 16:
        raise _BagError(f"{name}[0] has {width} characters, not 16 per value")
    try:
        text = "".join(rows)
        raw = bytes.fromhex(text)
    except (TypeError, ValueError):
        raw = None
    if raw is None or 2 * len(raw) != len(text) \
            or set(map(len, rows)) != {width}:
        for index, row in enumerate(rows):
            problem = _row_problem(row, width)
            if problem is not None:
                raise _BagError(f"{name}[{index}] {problem}")
    # a native copy that owns its data: writable, and holding no view of
    # the decoded bytes
    bag = np.frombuffer(raw, dtype=_FILE_FLOAT).reshape(len(rows), -1) \
        .astype(np.float64)
    if not np.isfinite(bag).all():
        index = int(np.argmin(np.isfinite(bag).all(axis=1)))
        raise _BagError(f"{name}[{index}] holds a non-finite value")
    return bag


def _doc_to_dict(doc: SyntheticDocument) -> dict:
    return {
        "image_id": doc.image_id,
        "regions": _hex_rows(doc.region_observations),
        "region_concepts": doc.region_concepts,
        "sentences": _hex_rows(doc.sentence_observations),
        "sentence_concepts": doc.sentence_concepts,
        "boxes": [list(b) for b in doc.boxes],
    }


def _doc_from_dict(d: dict) -> SyntheticDocument:
    """A parsed document line; a bag that does not decode is a _BagError
    naming the image_id, and _list_problem checks the ids."""
    image_id = jsonio.require_int(d, "image_id")
    try:
        regions = _bag_from_hex(d["regions"], "regions")
        sentences = _bag_from_hex(d["sentences"], "sentences")
    except _BagError as exc:
        raise _BagError(f"image_id {image_id}: {exc}") from None
    return SyntheticDocument(
        image_id=image_id,
        region_observations=regions,
        region_concepts=list(d["region_concepts"]),
        sentence_observations=sentences,
        sentence_concepts=list(d["sentence_concepts"]),
        boxes=[tuple(b) for b in d["boxes"]],
    )


def _fits_spec(doc: SyntheticDocument, spec: CorpusSpec) -> bool:
    regions = doc.region_observations.shape
    sentences = doc.sentence_observations.shape
    return (regions == (spec.regions_per_image, spec.region_dim)
            and len(sentences) == 2 and sentences[1] == spec.sentence_dim
            and 1 <= sentences[0] <= spec.sentences_per_doc)


def _bad_id(value, limit: int) -> str:
    if type(value) is int:
        return f"id {value} outside [0, {limit})"
    return f"id {json.dumps(value)} that is not an integer"


def _list_problem(doc: SyntheticDocument, spec: CorpusSpec) -> str | None:
    """What is wrong with the lists that describe a document's bags, or
    None. The bags themselves must already fit the spec; every id must be
    a JSON integer, so a boolean or a float is refused, not converted."""
    sentences = doc.sentence_observations.shape[0]
    regions = spec.regions_per_image
    if len(doc.sentence_concepts) != sentences:
        return (f"sentence_concepts has {len(doc.sentence_concepts)} entries "
                f"for {sentences} sentences")
    bad = [c for c in doc.sentence_concepts
           if type(c) is not int or not 0 <= c < spec.concepts]
    if bad:
        return f"sentence_concepts has {_bad_id(bad[0], spec.concepts)}"
    if len(doc.region_concepts) != regions:
        return (f"region_concepts has {len(doc.region_concepts)} entries for "
                f"{regions} regions")
    bad = [c for c in doc.region_concepts if c is not None
           and (type(c) is not int or not 0 <= c < spec.concepts)]
    if bad:
        return (f"region_concepts has {_bad_id(bad[0], spec.concepts)} "
                f"and not null")
    if len(doc.boxes) != sentences:
        return f"boxes has {len(doc.boxes)} boxes for {sentences} sentences"
    for j, box in enumerate(doc.boxes):
        if not box:
            return f"boxes[{j}] is empty"
        if any(type(i) is not int for i in box):
            return (f"boxes[{j}] {json.dumps(list(box))} has an index that "
                    f"is not an integer")
        if len(set(box)) != len(box):
            return f"boxes[{j}] {list(box)} has duplicate region indices"
        if min(box) < 0 or max(box) >= regions:
            return f"boxes[{j}] {list(box)} has an index outside [0, {regions})"
        if len(box) >= regions:
            return (f"boxes[{j}] has {len(box)} of the {regions} regions: a box "
                    f"must be a proper subset")
    return None


def write_corpus(path, corpus: Corpus, config_fingerprint: str = "") -> None:
    """One JSON object per line: a header of canonical text, then one line
    per document with its bags as hex rows (`_hex_rows`). A non-finite
    value is refused."""
    header = {
        "kind": "corpus-header",
        "format_version": CORPUS_FORMAT_VERSION,
        "spec": corpus.spec.to_dict(),
        "seed": corpus.spec.seed,
        "config_fingerprint": config_fingerprint,
        "concept_bank": {
            "seed": corpus.bank.seed,
            "region_prototypes": corpus.bank.region_prototypes,
            "sentence_prototypes": corpus.bank.sentence_prototypes,
            "modality_rotation": corpus.bank.modality_rotation,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps_canonical(header) + "\n")
        for doc in corpus.documents:
            fh.write(jsonio.dumps_canonical(_doc_to_dict(doc)) + "\n")


def read_corpus(path) -> Corpus:
    """The corpus `write_corpus` wrote, read one line at a time, every bag
    bit for bit. A header of another format_version is refused, naming
    the path; any other problem is a ContractError naming the path and the
    line number, and for a bag row the image_id and the row."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ContractError(f"{path}: missing corpus header line")
        spec, bank = _read_header(path, first.removesuffix("\n"))
        documents = [_read_document(path, lineno, line.removesuffix("\n"), spec)
                     for lineno, line in enumerate(fh, start=2)]
    return Corpus(spec=spec, bank=bank, documents=documents)


def _read_header(path, line: str):
    """(spec, concept bank) of a corpus header line."""
    try:
        header = jsonio.loads(line)
    except ValueError as exc:
        raise ContractError(f"{path}: line 1: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "corpus-header":
        raise ContractError(f"{path}: line 1 is not a corpus header")
    if header.get("format_version") != CORPUS_FORMAT_VERSION:
        raise ContractError(f"{path}: unsupported corpus format_version "
                            f"{header.get('format_version')!r}")
    try:
        spec = spec_from_dict(jsonio.require(header, "spec"))
        raw_bank = jsonio.require(header, "concept_bank")
        arrays = {}
        for name, shape in (
                ("region_prototypes", (spec.concepts, spec.region_dim)),
                ("sentence_prototypes", (spec.concepts, spec.sentence_dim)),
                ("modality_rotation", (spec.sentence_dim, spec.region_dim))):
            arrays[name] = jsonio.require_array(raw_bank, name, "concept_bank")
            if arrays[name].shape != shape:
                raise ContractError(
                    f"concept_bank.{name} has shape {arrays[name].shape}, "
                    f"expected {shape} from the header spec")
        bank = ConceptBank(**arrays, seed=jsonio.require_int(
            raw_bank, "seed", "concept_bank"))
    except ContractError as exc:
        raise ContractError(f"{path}: line 1: {exc}") from exc
    return spec, bank


def _read_document(path, lineno: int, line: str, spec: CorpusSpec):
    """The document on one corpus line, checked against the header spec."""
    if not line.strip():
        raise ContractError(f"{path}: line {lineno}: blank line in corpus")
    try:
        doc = _doc_from_dict(jsonio.loads(line))
    except _BagError as exc:
        raise ContractError(f"{path}: line {lineno}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ContractError(
            f"{path}: line {lineno}: malformed document: {exc}"
        ) from exc
    if not _fits_spec(doc, spec):
        raise ContractError(
            f"{path}: line {lineno}: image_id {doc.image_id}: regions "
            f"{doc.region_observations.shape} and sentences "
            f"{doc.sentence_observations.shape} do not fit the header "
            f"spec: expected regions ({spec.regions_per_image}, "
            f"{spec.region_dim}) and sentences (k, {spec.sentence_dim}) "
            f"with 1 <= k <= {spec.sentences_per_doc}")
    problem = _list_problem(doc, spec)
    if problem is not None:
        raise ContractError(
            f"{path}: line {lineno}: image_id {doc.image_id}: {problem}")
    return doc


def write_prompts(path, bank: ConceptBank, config_fingerprint: str = "") -> None:
    payload = {
        "kind": "prompt-bank",
        "format_version": PROMPTS_FORMAT_VERSION,
        "config_fingerprint": config_fingerprint,
        "prompts": {str(c): v for c, v in prompt_bank(bank).items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps_canonical(payload) + "\n")
