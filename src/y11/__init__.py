"""CPU inference engine for YOLOv11-family detectors.

Submodules: tensor (NCHW kernels), blocks (network blocks), graph (model
assembly and accounting), postprocess (letterbox/decode/NMS), metrics
(IoU/PR/AP/mAP), io_formats (PPM, weights container, annotation and detection
files), cli (infer/eval/bench/summary commands).

The package root imports nothing, so the CLI can cap BLAS thread pools via the
Y11_THREADS environment variable before numpy is loaded.
"""
__version__ = "0.1.0"
