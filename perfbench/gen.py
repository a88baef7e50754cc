"""Seeded input generator for the perfbench workloads.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR [--smoke]

writes the workload's input files into DIR plus `manifest.json`, which holds
the SHA-256 of every file and, for the evaluation workload, the expected
scores from the independent evaluator in `oracle.py`. Equal arguments give
byte-equal files. The weights container and the PPM and JSON files are
written here, not by the engine; the engine is asked only for the names and
shapes of the model's parameter entries.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

import common
import oracle

# Class-prior logits on the head's cls outputs. Class 0 is a common class
# whose logit stays near CLS0_PRIOR everywhere (small weights), so at
# conf 0.001 every cell is a candidate; the other classes sit far below the
# 0.25 threshold and only the strongest cells cross it, which keeps
# candidates sparse at conf 0.25.
CLS0_PRIOR = -4.0
CLS_PRIOR_HIGH = -13.0
CLS_PRIOR_LOW = -16.0
CLS_WEIGHT_GAIN = 20.0
BOX_WEIGHT_GAIN = 10.0


def _entry_rng(seed: int, name: str) -> np.random.Generator:
    # Keyed by name, so entry order in the model never changes a value.
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def model_entries(names_shapes, seed: int) -> list[tuple[str, np.ndarray]]:
    """Seeded float32 values for every (name, shape) parameter entry.

    Convolutions are He-uniform; batch-norm statistics are non-identity; the
    head's last box and cls convolutions get larger gains and the cls bias is
    a class prior (see CLS_* above).
    """
    out = []
    for name, shape in names_shapes:
        rng = _entry_rng(seed, name)
        parts = name.split(".")
        suffix = parts[-1]
        head_cls = len(parts) == 4 and parts[1].startswith("cls") and parts[2] == "4"
        head_box = len(parts) == 4 and parts[1].startswith("box") and parts[2] == "2"
        if suffix == "weight":
            bound = math.sqrt(6.0 / int(np.prod(shape[1:])))
            value = rng.uniform(-bound, bound, shape)
            if head_box:
                value *= BOX_WEIGHT_GAIN
            if head_cls:
                value[1:] *= CLS_WEIGHT_GAIN
        elif suffix == "bias":
            value = np.zeros(shape)
            if head_cls:
                value = np.linspace(CLS_PRIOR_HIGH, CLS_PRIOR_LOW, shape[0])
                value[0] = CLS0_PRIOR
        elif suffix == "gamma":
            value = rng.uniform(0.8, 1.2, shape)
        elif suffix == "beta":
            value = rng.uniform(-0.2, 0.2, shape)
        elif suffix == "mean":
            value = rng.uniform(-0.2, 0.2, shape)
        elif suffix == "var":
            value = rng.uniform(0.8, 1.2, shape)
        else:
            raise ValueError(f"unexpected parameter entry {name!r}")
        out.append((name, np.asarray(value, dtype=np.float32)))
    return out


def weights_bytes(entries) -> bytes:
    """The Y11W container (magic, version 1, count, then named float32 entries)."""
    parts = [b"Y11W", struct.pack("<II", 1, len(entries))]
    for name, arr in entries:
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        parts.append(struct.pack("<H", len(encoded)) + encoded)
        parts.append(struct.pack(f"<BB{arr.ndim}I", 0, arr.ndim, *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def model_weights(variant: str, seed: int = common.MODEL_SEED) -> bytes:
    common.use_engine_source()
    from y11.graph import build_graph

    graph = build_graph(variant, num_classes=common.NUM_CLASSES, reg_max=common.REG_MAX)
    names_shapes = [(name, arr.shape) for name, arr in graph.state_entries()]
    return weights_bytes(model_entries(names_shapes, seed))


def ppm_bytes(rng: np.random.Generator, width: int, height: int) -> bytes:
    """A P6 image: colour gradient, a few flat rectangles, mild noise."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float32)
    base = rng.uniform(0, 255, 3)
    gx, gy = rng.uniform(-80, 80, 3), rng.uniform(-80, 80, 3)
    img = base + gx * (xx / width)[..., None] + gy * (yy / height)[..., None]
    for _ in range(int(rng.integers(3, 12))):
        bw = max(1, int(rng.uniform(0.05, 0.5) * width))
        bh = max(1, int(rng.uniform(0.05, 0.5) * height))
        x0, y0 = int(rng.integers(0, width - bw + 1)), int(rng.integers(0, height - bh + 1))
        img[y0 : y0 + bh, x0 : x0 + bw] = rng.uniform(0, 255, 3)
    img += rng.normal(0.0, 8.0, img.shape)
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def image_stream(seed: int, count: int, size: int) -> list[bytes]:
    """`count` images of mixed sizes and aspect ratios around `size` pixels.

    The mix of (width, height) pairs is fixed per workload, so the seed
    changes image content and order but not how many pixels a pass reads.
    """
    longest = np.linspace(0.6, 1.6, count) * size
    aspect = np.roll(np.geomspace(0.5, 2.0, count), count // 3)
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in rng.permutation(count):
        w = max(8, int(longest[i] * min(1.0, aspect[i])))
        h = max(8, int(longest[i] * min(1.0, 1.0 / aspect[i])))
        out.append(ppm_bytes(rng, w, h))
    return out


def probe_image(size: int) -> bytes:
    """The fixed image whose head tensors are compared with `reference.json`."""
    rng = np.random.default_rng(common.PROBE_SEED)
    return ppm_bytes(rng, size * 5 // 4, size * 3 // 4)


def coco_pair(seed: int, n_images: int, gts_per_image: int, dets_per_image: int) -> tuple[str, str]:
    """(annotations JSON, detections JSON) of a COCO-like evaluation set.

    Each ground truth gets one to three jittered detections (some with the
    wrong class); the rest of each image's detections are false positives,
    half of them in classes present in the image.
    """
    rng = np.random.default_rng([seed, 2])
    class_p = 1.0 / (np.arange(common.NUM_CLASSES) + 1.0) ** 0.8
    class_p /= class_p.sum()
    images, anns, dets = [], [], []

    def rand_box(w, h):
        bw, bh = rng.uniform(0.04, 0.5) * w, rng.uniform(0.04, 0.5) * h
        return [round(float(rng.uniform(0, w - bw)), 2), round(float(rng.uniform(0, h - bh)), 2),
                round(float(bw), 2), round(float(bh), 2)]

    for image_id in range(1, n_images + 1):
        w, h = int(rng.integers(320, 1025)), int(rng.integers(320, 1025))
        images.append({"id": image_id, "width": w, "height": h})
        present = []
        for _ in range(int(rng.integers(gts_per_image - 3, gts_per_image + 4))):
            cid = int(rng.choice(common.NUM_CLASSES, p=class_p))
            box = rand_box(w, h)
            present.append(cid)
            anns.append({"id": len(anns) + 1, "image_id": image_id, "category_id": cid, "bbox": box})
            for _ in range(int(rng.integers(1, 4))):
                sigma = rng.uniform(0.02, 0.3)
                jx, jy = rng.normal(0, sigma, 2) * box[2:]
                sw, sh = np.exp(rng.normal(0, sigma, 2))
                jbox = [round(float(box[0] + jx), 2), round(float(box[1] + jy), 2),
                        round(float(max(1.0, box[2] * sw)), 2), round(float(max(1.0, box[3] * sh)), 2)]
                jcid = cid if rng.random() > 0.1 else int(rng.integers(0, common.NUM_CLASSES))
                dets.append({"image_id": image_id, "category_id": jcid, "bbox": jbox,
                             "score": round(float(rng.uniform(0.2, 1.0)), 4)})
        n_fp = int(rng.integers(dets_per_image - 10, dets_per_image + 11)) - len(present) * 2
        for _ in range(max(0, n_fp)):
            cid = int(rng.choice(present)) if rng.random() < 0.5 else int(rng.integers(0, common.NUM_CLASSES))
            dets.append({"image_id": image_id, "category_id": cid, "bbox": rand_box(w, h),
                         "score": round(float(rng.uniform(0.0, 0.7)), 4)})
    categories = [{"id": c, "name": f"class{c}"} for c in range(common.NUM_CLASSES)]
    ann_text = json.dumps({"images": images, "annotations": anns, "categories": categories})
    return ann_text, json.dumps(dets)


def generate(cfg: dict, seed: int, out: Path) -> dict:
    """Write the workload's inputs into `out`; return the manifest."""
    files: dict[str, bytes] = {"weights.y11w": model_weights(cfg["variant"])}
    manifest: dict = {"workload": cfg["name"], "seed": seed}
    if cfg["kind"] == "detect":
        files["probe.ppm"] = probe_image(cfg["size"])
        for i, data in enumerate(image_stream(seed, cfg["images"], cfg["size"])):
            files[f"image{i:03d}.ppm"] = data
    else:
        ann_text, det_text = coco_pair(seed, cfg["images"], cfg["gts"], cfg["dets"])
        files["annotations.json"] = ann_text.encode("utf-8")
        files["detections.json"] = det_text.encode("utf-8")
        manifest["expected"] = oracle.evaluate_json(
            det_text, ann_text, common.THRESHOLDS, common.OPERATING_CONF
        )
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    manifest["files"] = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    manifest["digest"] = hashlib.sha256(
        "".join(f"{n}:{d}\n" for n, d in sorted(manifest["files"].items())).encode()
    ).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    generate(common.workload_config(args.workload, args.smoke), args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
