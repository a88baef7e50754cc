import numpy as np
import pytest

from y11.tensor import Tensor


@pytest.fixture
def small_ppm(tmp_path):
    """An 80x48 noise image on disk, small enough for fast end-to-end runs."""
    rng = np.random.default_rng(7)
    image = Tensor(rng.random((1, 3, 48, 80), dtype=np.float32))
    path = tmp_path / "fixture.ppm"
    path.write_bytes(write_ppm(image))
    return path


def random_tensor(rng: np.random.Generator, n: int, c: int, h: int, w: int) -> Tensor:
    return Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32))


def write_ppm(image: Tensor) -> bytes:
    """Serialize a 1x3xHxW tensor in [0, 1] to binary P6."""
    if image.n != 1 or image.c != 3:
        raise ValueError(f"write_ppm expects a 1x3xHxW tensor, got {image.shape}")
    arr = np.clip(np.rint(image.data[0] * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{image.w} {image.h}\n255\n".encode("ascii")
    return header + arr.transpose(1, 2, 0).tobytes()
