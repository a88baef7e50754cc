"""Record the probe image's head tensors into perfbench/reference.json.

    python3 perfbench/record_reference.py

Run this only at a commit whose engine is trusted (the reference in the
repository was recorded at the commit that added the benchmark); the detect
workloads compare every later commit's head tensors with it.
"""
from __future__ import annotations

import hashlib
import json
import sys

import common

SIZES = sorted({cfg["size"] for cfg in common.WORKLOADS.values() if "size" in cfg}
               | {cfg["size"] for cfg in common.SMOKE.values() if "size" in cfg})


def main() -> int:
    common.cap_blas_threads()
    common.use_engine_source()
    import gen
    import workloads
    from y11 import graph, io_formats, postprocess

    weights = gen.model_weights("n")
    model = graph.build_graph("n", num_classes=common.NUM_CLASSES, reg_max=common.REG_MAX)
    model.load_state(io_formats.read_weights(weights))
    out = {}
    for size in SIZES:
        probe = gen.probe_image(size)
        boxed, _ = postprocess.letterbox(io_formats.read_ppm(probe), size)
        out[str(size)] = {
            "weights_sha256": hashlib.sha256(weights).hexdigest(),
            "probe_sha256": hashlib.sha256(probe).hexdigest(),
            "heads": workloads.head_summary(model.forward(boxed)),
        }
    workloads.REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE} for sizes {SIZES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
