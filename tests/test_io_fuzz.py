"""Fuzz tests for the four readers: on any input they either parse or raise
FormatError. Any other exception (TypeError, OverflowError, UnicodeDecodeError,
numpy's ValueError, ...) fails the test.

Inputs are byte or character splices of a valid file, valid JSON documents
with values replaced by arbitrary JSON, and weights containers assembled from
arbitrary header fields. The detection reader must also return the same
records, or raise with the same message, as the per-record reference.
"""
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_ppm
from oracle_helpers import read_detections_reference
from y11.io_formats import (
    FormatError,
    read_annotations,
    read_detections,
    read_ppm,
    read_weights,
    write_weights,
)
from y11.tensor import Tensor

FUZZ = settings(max_examples=400, deadline=None)

# Scalars that readers tend to mishandle: non-finite floats, an integer too
# large for a float, empty and numeric-looking strings.
AWKWARD = st.sampled_from([0, -1, 1.5, float("nan"), float("inf"), float("-inf"),
                           10**400, "", "1", True, None])
JSON_VALUES = st.recursive(
    AWKWARD | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def accepts_or_format_error(reader, data) -> None:
    try:
        reader(data)
    except FormatError:
        pass


@st.composite
def spliced(draw, valid, piece):
    """`valid` (bytes or str) with one to four spans overwritten, cut or grown."""
    data = valid
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 8))
        data = data[:pos] + draw(piece) + data[pos + cut :]
    return data


def _paths(value, prefix=()):
    """Every key path into a JSON value, the empty path (the value itself) first."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, prefix + (key,))


@st.composite
def patched(draw, doc):
    """JSON text of `doc` with one or two values inside it, or the whole
    document, replaced by an awkward scalar or an arbitrary JSON value."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(AWKWARD | JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return json.dumps(doc)


VALID_PPM = write_ppm(Tensor(np.linspace(0, 1, 18, dtype=np.float32).reshape(1, 3, 2, 3)))
VALID_WEIGHTS = write_weights([
    ("layer0.weight", np.arange(6, dtype=np.float32).reshape(1, 2, 3)),
    ("layer0.bias", np.zeros(2, dtype=np.float32)),
    ("s", np.float32(1.0)),
])
# One record of each kind, so that each field is a likely pick for `patched`.
ANNOTATIONS = {
    "images": [{"id": 1, "width": 64, "height": 48}],
    "annotations": [{"id": 10, "image_id": 1, "category_id": 2, "bbox": [4, 5, 10, 12]}],
    "categories": [{"id": 2, "name": "thing"}],
}
DETECTIONS = [{"image_id": 1, "category_id": 2, "bbox": [4, 5, 0, 12], "score": 0.9}]


@st.composite
def detection_dumps(draw):
    """JSON text of one to five valid detection records, with up to three
    fields (a whole field or one bbox value) of any records replaced by an
    awkward scalar or an arbitrary JSON value, so a bad record can sit
    anywhere in the dump."""
    doc = [{"image_id": k, "category_id": 2, "bbox": [4, 5.5, 0, 12], "score": 0.9}
           for k in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        record = doc[draw(st.integers(0, len(doc) - 1))]
        key = draw(st.sampled_from(["image_id", "category_id", "bbox", "score"]))
        value = draw(AWKWARD | JSON_VALUES)
        bbox = record["bbox"]
        if key == "bbox" and type(bbox) is list and bbox and draw(st.booleans()):
            bbox[draw(st.integers(0, len(bbox) - 1))] = value
        else:
            record[key] = value
    return json.dumps(doc)


def read_outcome(reader, text):
    """The records `reader` returns, or the message of its FormatError."""
    try:
        return reader(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


# Every id field, as (reader, document, path to the field).
ID_FIELDS = [(read_annotations, ANNOTATIONS, (section, 0, key)) for section, key in [
    ("images", "id"), ("annotations", "id"), ("annotations", "image_id"),
    ("annotations", "category_id"), ("categories", "id"),
]] + [(read_detections, DETECTIONS, (0, key)) for key in ("image_id", "category_id")]
NON_INTEGERS = (AWKWARD | JSON_VALUES).filter(lambda v: type(v) is not int)

# Dims worth hitting on purpose: zero (an empty payload that still has to be
# reshaped) next to ones whose product overflows what numpy can allocate.
DIMS = st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@st.composite
def assembled_weights(draw):
    """A container whose header fields are drawn freely: any name bytes, any
    rank up to 255, dims from DIMS, a payload of any length."""
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.binary(max_size=6) | st.sampled_from([b"ok", b"\xff\xfe", b"\xc3"]))
        rank = draw(st.integers(0, 255) | st.sampled_from([63, 64, 65]))
        dims = (draw(st.lists(DIMS, min_size=1, max_size=4)) * rank)[:rank]
        entries.append(struct.pack("<H", len(name)) + name
                       + struct.pack("<BB", draw(st.sampled_from([0, 0, 1])), rank)
                       + struct.pack(f"<{rank}I", *dims) + draw(st.binary(max_size=16)))
    count = draw(st.integers(0, 4) | st.just(len(entries)))
    return b"Y11W" + struct.pack("<II", 1, count) + b"".join(entries)


class TestFuzzReaders:
    @FUZZ
    @given(st.binary(max_size=40) | spliced(VALID_PPM, st.binary(max_size=8)))
    def test_read_ppm(self, data):
        accepts_or_format_error(read_ppm, data)

    @FUZZ
    @given(st.binary(max_size=40) | spliced(VALID_WEIGHTS, st.binary(max_size=8))
           | assembled_weights())
    def test_read_weights(self, data):
        accepts_or_format_error(read_weights, data)

    @FUZZ
    @given(JSON_VALUES.map(json.dumps) | patched(ANNOTATIONS)
           | spliced(json.dumps(ANNOTATIONS), st.text(max_size=6)))
    def test_read_annotations(self, text):
        accepts_or_format_error(read_annotations, text)

    @FUZZ
    @given(JSON_VALUES.map(json.dumps) | patched(DETECTIONS)
           | spliced(json.dumps(DETECTIONS), st.text(max_size=6)))
    def test_read_detections(self, text):
        accepts_or_format_error(read_detections, text)

    @FUZZ
    @given(detection_dumps())
    def test_read_detections_matches_the_per_record_reader(self, text):
        got = read_outcome(read_detections, text)
        want = read_outcome(read_detections_reference, text)
        assert got == want
        assert repr(got) == repr(want)  # also tells -0.0 from 0.0
        if isinstance(got, list):
            for d in got:
                assert type(d.image_id) is int and type(d.category_id) is int
                assert all(type(v) is float for v in (*d.bbox, d.score))

    @FUZZ
    @given(st.sampled_from(ID_FIELDS), NON_INTEGERS)
    def test_non_integer_id_is_format_error(self, field, value):
        reader, doc, path = field
        doc = json.loads(json.dumps(doc))
        record = doc
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
        with pytest.raises(FormatError):
            reader(json.dumps(doc))
