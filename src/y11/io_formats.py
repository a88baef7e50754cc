"""Bit-exact file formats.

Images come in as binary PPM (P6, maxval 255), scaled to [0, 1] RGB planes.

Weights container (all integers little-endian):

    offset  size        field
    0       4           magic "Y11W"
    4       4           format version (u32, currently 1)
    8       4           entry count (u32)
    --- per entry ---
    +0      2           name length (u16)
    +2      n           name, UTF-8
    +2+n    1           dtype code (u8; 0 = float32)
    +3+n    1           rank (u8)
    +4+n    4*rank      dims (u32 each)
    ...     4*prod(dims) payload, little-endian float32

The file ends exactly after the last entry. Annotations and detection dumps
are JSON; annotations follow a strict subset of the COCO schema and detection
dumps carry COCO-style xywh boxes with fixed 6-decimal formatting so equal
inputs produce byte-equal files. `read_annotations` and `read_detections` run
with Python's cyclic garbage collector paused (`_gcpause.gc_paused`): the
parsed JSON and the records built from it hold no reference cycles, and
collections set off by their allocations would only walk them. The pause is
process-wide and the collector's state is restored on return or raise.
"""
from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._gcpause import gc_paused
from .tensor import Tensor

__all__ = [
    "FormatError",
    "read_ppm",
    "WEIGHTS_MAGIC",
    "WEIGHTS_VERSION",
    "write_weights",
    "read_weights",
    "ImageInfo",
    "Annotation",
    "Category",
    "AnnotationSet",
    "read_annotations",
    "DumpDetection",
    "write_detections",
    "read_detections",
]

WEIGHTS_MAGIC = b"Y11W"
WEIGHTS_VERSION = 1


class FormatError(ValueError):
    """Malformed or inconsistent file content."""


# ---------------------------------------------------------------------------
# PPM images

# A header token ends at ASCII whitespace; `#` between tokens starts a comment
# that runs to CR or LF.
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def read_ppm(data: bytes) -> Tensor:
    """Parse a binary P6 PPM into a 1x3xHxW tensor with values in [0, 1]."""
    pos = 0

    def token() -> bytes:
        nonlocal pos
        m = _PPM_TOKEN.match(data, pos)
        pos = m.end()
        if not m[1]:
            raise FormatError(f"ppm: truncated header at byte {pos}")
        return m[1]

    def number() -> int:
        text = token()  # outside the try: a truncated header raises its own message
        try:
            return int(text)
        except ValueError as exc:
            raise FormatError(f"ppm: bad header near byte {pos}: {exc}") from None

    magic = token()
    if magic != b"P6":
        raise FormatError(f"ppm: unsupported magic {magic!r} (binary P6 required)")
    width, height, maxval = number(), number(), number()
    if width < 1 or height < 1:
        raise FormatError(f"ppm: non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"ppm: maxval must be 255, got {maxval}")
    pos += 1  # exactly one whitespace byte separates header and pixel data
    expected = 3 * width * height
    pixels = data[pos : pos + expected]
    if len(pixels) < expected:
        raise FormatError(
            f"ppm: truncated pixel data at byte {pos + len(pixels)} "
            f"(expected {expected} bytes)"
        )
    if len(data) > pos + expected:
        raise FormatError(f"ppm: trailing data after pixel block at byte {pos + expected}")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    planes = arr.transpose(2, 0, 1).astype(np.float32) / 255.0
    return Tensor._wrap(planes[None])


# ---------------------------------------------------------------------------
# Weights container


def write_weights(entries: Sequence[tuple[str, np.ndarray]]) -> bytes:
    """Serialize named float32 arrays; order is preserved and names must be unique."""
    seen = set()
    parts = [WEIGHTS_MAGIC, struct.pack("<II", WEIGHTS_VERSION, len(entries))]
    for name, arr in entries:
        if name in seen:
            raise FormatError(f"duplicate weight entry {name!r}")
        seen.add(name)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"entry name too long: {name[:40]!r}...")
        arr = np.asarray(arr, dtype="<f4")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<BB", 0, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def read_weights(data: bytes) -> list[tuple[str, np.ndarray]]:
    """Parse a weights container; exact inverse of write_weights.

    Entries are read-only views into the container, not copies, so they keep
    its buffer alive. A mutable buffer is copied once up front, so writing to
    it afterwards leaves the entries unchanged.
    """
    data = bytes(data)
    size = len(data)
    if data[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"weights: bad magic {data[:4]!r}")
    if size < 12:
        raise FormatError("weights: truncated header")
    version, count = struct.unpack_from("<II", data, 4)
    if version != WEIGHTS_VERSION:
        raise FormatError(f"weights: unsupported version {version}")
    pos = 12
    out: list[tuple[str, np.ndarray]] = []
    seen = set()
    for i in range(count):
        start = pos  # only the error paths spell out `entry {i} at byte {start}`
        if pos + 2 > size:
            raise FormatError(
                f"weights: truncated before name length of entry {i} at byte {start}"
            )
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + name_len + 2 > size:
            raise FormatError(f"weights: truncated inside entry {i} at byte {start}")
        try:
            name = data[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(
                f"weights: name of entry {i} at byte {start} is not valid UTF-8"
            ) from None
        pos += name_len
        if name in seen:
            raise FormatError(f"weights: duplicate entry {name!r}")
        seen.add(name)
        dtype_code, rank = data[pos], data[pos + 1]
        pos += 2
        if dtype_code != 0:
            raise FormatError(f"weights: unknown dtype code {dtype_code} in {name!r}")
        if pos + 4 * rank > size:
            raise FormatError(f"weights: truncated dims of {name!r} at byte {pos}")
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        payload = 4
        for d in dims:
            payload *= d
        if pos + payload > size:
            raise FormatError(
                f"weights: truncated payload of {name!r} at byte {pos} "
                f"(need {payload} bytes)"
            )
        try:  # numpy refuses a rank above 64, and a zero dim beside huge ones
            arr = np.frombuffer(data, dtype="<f4", count=payload // 4, offset=pos).reshape(dims)
        except ValueError as exc:
            raise FormatError(
                f"weights: bad dims {dims} of entry {i} at byte {start}: {exc}"
            ) from None
        pos += payload
        out.append((name, arr))
    if pos != size:
        raise FormatError(f"weights: trailing data after last entry at byte {pos}")
    return out


# ---------------------------------------------------------------------------
# Annotations (strict COCO subset) and detection dumps


# Building a record can meet a missing key, a wrong type, or an integer too
# large for a float.
_BAD_RECORD = (KeyError, TypeError, OverflowError)


# JSON value types as `json.loads` returns them. Types are compared exactly,
# so a bool, which isinstance counts as an int, is neither an id nor a number.
_INT = (int,)
_NUMBER = (int, float)


def _typed(value, types: tuple[type, ...]):
    """`value` itself if its type is one of `types`; else TypeError, which
    the readers turn into a FormatError naming the record."""
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep nesting
        raise FormatError(f"{what}: invalid JSON: {exc}") from None


@dataclass(frozen=True)
class ImageInfo:
    id: int
    width: int
    height: int


@dataclass(frozen=True)
class Annotation:
    id: int
    image_id: int
    category_id: int
    bbox: tuple[float, float, float, float]  # x, y, w, h in pixels


@dataclass(frozen=True)
class Category:
    id: int
    name: str


@dataclass
class AnnotationSet:
    images: list[ImageInfo]
    annotations: list[Annotation]
    categories: list[Category]


@gc_paused
def read_annotations(text: str) -> AnnotationSet:
    """Parse and validate the annotation JSON; every foreign key must resolve."""
    doc = _load_json(text, "annotations")
    if not isinstance(doc, dict):
        raise FormatError("annotations: top-level value must be an object")
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise FormatError(f"annotations: missing list field {key!r}")

    images = []
    for item in doc["images"]:
        try:
            image = ImageInfo(*(_typed(item[k], _INT) for k in ("id", "width", "height")))
        except _BAD_RECORD as exc:
            raise FormatError(f"annotations: bad image record {item!r}: {exc}") from None
        if image.width < 1 or image.height < 1:
            raise FormatError(f"annotations: image {image.id} has non-positive size "
                              f"{image.width}x{image.height}")
        images.append(image)
    categories = []
    for item in doc["categories"]:
        try:
            categories.append(Category(_typed(item["id"], _INT), _typed(item["name"], (str,))))
        except _BAD_RECORD as exc:
            raise FormatError(f"annotations: bad category record {item!r}: {exc}") from None

    image_by_id = {im.id: im for im in images}
    category_ids = {c.id for c in categories}
    if len(image_by_id) != len(images):
        raise FormatError("annotations: duplicate image id")
    if len(category_ids) != len(categories):
        raise FormatError("annotations: duplicate category id")

    annotations = []
    for item in doc["annotations"]:
        try:
            ann = Annotation(
                _typed(item["id"], _INT),
                _typed(item["image_id"], _INT),
                _typed(item["category_id"], _INT),
                tuple(float(_typed(v, _NUMBER)) for v in item["bbox"]),
            )
        except _BAD_RECORD as exc:
            raise FormatError(f"annotations: bad annotation record {item!r}: {exc}") from None
        if len(ann.bbox) != 4:
            raise FormatError(f"annotations: annotation {ann.id}: bbox must have 4 numbers")
        if ann.image_id not in image_by_id:
            raise FormatError(
                f"annotations: annotation {ann.id} references unknown image_id {ann.image_id}"
            )
        if ann.category_id not in category_ids:
            raise FormatError(
                f"annotations: annotation {ann.id} references unknown category_id {ann.category_id}"
            )
        if not all(map(math.isfinite, ann.bbox)):
            raise FormatError(f"annotations: annotation {ann.id} has a non-finite bbox value")
        if ann.bbox[2] <= 0 or ann.bbox[3] <= 0:
            raise FormatError(f"annotations: annotation {ann.id} has non-positive box dims")
        x, y, w, h = ann.bbox
        image = image_by_id[ann.image_id]
        if x >= image.width or y >= image.height or x + w <= 0 or y + h <= 0:
            raise FormatError(f"annotations: annotation {ann.id} lies wholly outside image "
                              f"{image.id} ({image.width}x{image.height})")
        annotations.append(ann)
    if len({a.id for a in annotations}) != len(annotations):
        raise FormatError("annotations: duplicate annotation id")
    return AnnotationSet(images, annotations, categories)


class DumpDetection(NamedTuple):
    """One dumped detection. A NamedTuple, so it is cheap to build and
    compares equal to a plain tuple of the same values."""

    image_id: int
    category_id: int
    bbox: tuple[float, float, float, float]  # x, y, w, h
    score: float


def write_detections(dets: Sequence[DumpDetection]) -> str:
    """Serialize detections as a JSON array with fixed 6-decimal floats. JSON
    has no NaN or infinity, so a non-finite bbox value or score is refused."""
    lines = []
    for k, d in enumerate(dets):
        if not all(map(math.isfinite, (*d.bbox, d.score))):
            raise FormatError(f"detections: record {k} has a non-finite bbox or score: {d!r}")
        bbox = ", ".join(f"{v:.6f}" for v in d.bbox)
        lines.append(
            f'  {{"image_id": {d.image_id}, "category_id": {d.category_id}, '
            f'"bbox": [{bbox}], "score": {d.score:.6f}}}'
        )
    if not lines:
        return "[]\n"
    return "[\n" + ",\n".join(lines) + "\n]\n"


@gc_paused
def read_detections(text: str) -> list[DumpDetection]:
    """Parse a detection dump. Every bbox value must be finite and w, h >= 0;
    zero is allowed, since unletterboxing can clip a box to zero width.

    Valid input is checked by column: each field's value types at once, then
    finiteness, box dims and score range as one numpy mask each. On any
    failure the dump is read again record by record, which names the first
    bad record with the same messages."""
    doc = _load_json(text, "detections")
    if not isinstance(doc, list):
        raise FormatError("detections: top-level value must be a list")
    records = _read_detection_columns(doc)
    return records if records is not None else _read_detection_records(doc)


def _read_detection_columns(doc: list) -> list[DumpDetection] | None:
    """The records of `doc`, each check done on a whole column; None if any
    check fails, without saying which."""
    try:
        image_ids = [item["image_id"] for item in doc]
        category_ids = [item["category_id"] for item in doc]
        bboxes = [item["bbox"] for item in doc]
        scores = [item["score"] for item in doc]
    except (KeyError, TypeError):  # a record that is not an object, or lacks a field
        return None
    # Types compare exactly, as in `_typed`, so a bool is neither an id nor a number.
    if not (set(map(type, image_ids)) | set(map(type, category_ids)) <= {int}
            and set(map(type, bboxes)) <= {list} and set(map(len, bboxes)) <= {4}):
        return None
    values = [v for bbox in bboxes for v in bbox]
    if not set(map(type, values)) | set(map(type, scores)) <= {int, float}:
        return None
    try:
        values, scores = list(map(float, values)), list(map(float, scores))
    except OverflowError:  # an int too large for a float
        return None
    boxes, s = np.array(values).reshape(-1, 4), np.array(scores)
    if not (np.isfinite(boxes).all() and (boxes[:, 2:] >= 0).all()
            and ((s >= 0) & (s <= 1)).all()):
        return None
    it = iter(values)
    return list(map(DumpDetection._make,
                    zip(image_ids, category_ids, zip(it, it, it, it), scores)))


def _read_detection_records(doc: list) -> list[DumpDetection]:
    """`read_detections` one record at a time; raises naming the first bad one."""
    out = []
    for k, item in enumerate(doc):
        try:
            det = DumpDetection(
                _typed(item["image_id"], _INT),
                _typed(item["category_id"], _INT),
                tuple(float(_typed(v, _NUMBER)) for v in item["bbox"]),
                float(_typed(item["score"], _NUMBER)),
            )
        except _BAD_RECORD as exc:
            raise FormatError(f"detections: bad record {item!r}: {exc}") from None
        if len(det.bbox) != 4:
            raise FormatError(f"detections: bbox must have 4 numbers, got {item!r}")
        if not all(map(math.isfinite, det.bbox)):
            raise FormatError(f"detections: record {k} has a non-finite bbox value: {item!r}")
        if det.bbox[2] < 0 or det.bbox[3] < 0:
            raise FormatError(f"detections: record {k} has negative box dims: {item!r}")
        if not 0.0 <= det.score <= 1.0:
            raise FormatError(f"detections: record {k} has a score outside [0, 1]: {item!r}")
        out.append(det)
    return out
