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
inputs produce byte-equal files.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tensor

__all__ = [
    "FormatError",
    "read_ppm",
    "write_ppm",
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


def read_ppm(data: bytes) -> Tensor:
    """Parse a binary P6 PPM into a 1x3xHxW tensor with values in [0, 1]."""
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"ppm: truncated header at byte {start}")
        return data[start:pos]

    magic = token()
    if magic != b"P6":
        raise FormatError(f"ppm: unsupported magic {magic!r} (binary P6 required)")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise FormatError(f"ppm: bad header near byte {pos}: {exc}") from None
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


def write_ppm(image: Tensor) -> bytes:
    """Serialize a 1x3xHxW tensor in [0, 1] to binary P6."""
    if image.n != 1 or image.c != 3:
        raise ValueError(f"write_ppm expects a 1x3xHxW tensor, got {image.shape}")
    arr = np.clip(np.rint(image.data[0] * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{image.w} {image.h}\n255\n".encode("ascii")
    return header + arr.transpose(1, 2, 0).tobytes()


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
    if data[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"weights: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise FormatError("weights: truncated header")
    version, count = struct.unpack_from("<II", data, 4)
    if version != WEIGHTS_VERSION:
        raise FormatError(f"weights: unsupported version {version}")
    pos = 12
    out: list[tuple[str, np.ndarray]] = []
    seen = set()
    for i in range(count):
        where = f"entry {i} at byte {pos}"
        if pos + 2 > len(data):
            raise FormatError(f"weights: truncated before name length of {where}")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + name_len + 2 > len(data):
            raise FormatError(f"weights: truncated inside {where}")
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        if name in seen:
            raise FormatError(f"weights: duplicate entry {name!r}")
        seen.add(name)
        dtype_code, rank = struct.unpack_from("<BB", data, pos)
        pos += 2
        if dtype_code != 0:
            raise FormatError(f"weights: unknown dtype code {dtype_code} in {name!r}")
        if pos + 4 * rank > len(data):
            raise FormatError(f"weights: truncated dims of {name!r} at byte {pos}")
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        payload = 4
        for d in dims:
            payload *= d
        if pos + payload > len(data):
            raise FormatError(
                f"weights: truncated payload of {name!r} at byte {pos} "
                f"(need {payload} bytes)"
            )
        arr = np.frombuffer(data, dtype="<f4", count=payload // 4, offset=pos)
        pos += payload
        out.append((name, arr.reshape(dims)))
    if pos != len(data):
        raise FormatError(f"weights: trailing data after last entry at byte {pos}")
    return out


# ---------------------------------------------------------------------------
# Annotations (strict COCO subset) and detection dumps


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


def read_annotations(text: str) -> AnnotationSet:
    """Parse and validate the annotation JSON; every foreign key must resolve."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"annotations: invalid JSON: {exc}") from None
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise FormatError(f"annotations: missing list field {key!r}")

    images = []
    for item in doc["images"]:
        try:
            images.append(ImageInfo(int(item["id"]), int(item["width"]), int(item["height"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"annotations: bad image record {item!r}: {exc}") from None
    categories = []
    for item in doc["categories"]:
        try:
            categories.append(Category(int(item["id"]), str(item["name"])))
        except (KeyError, TypeError) as exc:
            raise FormatError(f"annotations: bad category record {item!r}: {exc}") from None

    image_ids = {im.id for im in images}
    category_ids = {c.id for c in categories}
    if len(image_ids) != len(images):
        raise FormatError("annotations: duplicate image id")
    if len(category_ids) != len(categories):
        raise FormatError("annotations: duplicate category id")

    annotations = []
    for item in doc["annotations"]:
        try:
            ann = Annotation(
                int(item["id"]),
                int(item["image_id"]),
                int(item["category_id"]),
                tuple(float(v) for v in item["bbox"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"annotations: bad annotation record {item!r}: {exc}") from None
        if len(ann.bbox) != 4:
            raise FormatError(f"annotations: annotation {ann.id}: bbox must have 4 numbers")
        if ann.image_id not in image_ids:
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
        annotations.append(ann)
    return AnnotationSet(images, annotations, categories)


@dataclass(frozen=True)
class DumpDetection:
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


def read_detections(text: str) -> list[DumpDetection]:
    """Parse a detection dump. Every bbox value must be finite and w, h >= 0;
    zero is allowed, since unletterboxing can clip a box to zero width."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"detections: invalid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise FormatError("detections: top-level value must be a list")
    out = []
    for k, item in enumerate(doc):
        try:
            det = DumpDetection(
                int(item["image_id"]),
                int(item["category_id"]),
                tuple(float(v) for v in item["bbox"]),
                float(item["score"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"detections: bad record {item!r}: {exc}") from None
        if len(det.bbox) != 4:
            raise FormatError(f"detections: bbox must have 4 numbers, got {item!r}")
        if not all(map(math.isfinite, det.bbox)):
            raise FormatError(f"detections: record {k} has a non-finite bbox value: {item!r}")
        if det.bbox[2] < 0 or det.bbox[3] < 0:
            raise FormatError(f"detections: record {k} has negative box dims: {item!r}")
        if not 0.0 <= det.score <= 1.0:
            raise FormatError(f"detections: score {det.score} outside [0, 1]")
        out.append(det)
    return out
