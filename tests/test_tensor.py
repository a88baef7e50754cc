"""Tensor type and primitive kernels against hand values and naive oracles."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_tensor
from oracle_helpers import (
    conv2d_direct,
    conv2d_three_path_reference,
    maxpool2d_direct,
    softmax_reference,
)
from y11.tensor import (
    BatchNormParams,
    ConvSpec,
    Tensor,
    concat_channels,
    conv2d,
    conv_output_dim,
    fold_batchnorm,
    maxpool2d,
    sigmoid,
    silu,
    softmax_lastaxis,
    split_channels,
    upsample_nearest2x,
)


class TestTensor:
    def test_rank_enforced(self):
        with pytest.raises(ValueError, match="rank 4"):
            Tensor(np.zeros((3, 4, 5)))

    def test_immutability(self):
        t = Tensor(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0

    def test_properties(self):
        t = Tensor(np.zeros((2, 3, 4, 5)))
        assert (t.n, t.c, t.h, t.w) == (2, 3, 4, 5)
        assert t.data.size == 2 * 3 * 4 * 5

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((1, 1, 2, 2))) + Tensor(np.zeros((1, 1, 2, 3)))


def identity_spec(c: int, k: int = 1) -> ConvSpec:
    w = np.zeros((c, c, k, k), dtype=np.float32)
    for i in range(c):
        w[i, i, k // 2, k // 2] = 1.0
    return ConvSpec(in_channels=c, out_channels=c, kernel=k, weight=w)


class TestConv2d:
    def test_all_ones_3x3(self):
        # Hand convolution over the zero-padded 3x3 grid of ones.
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        spec = ConvSpec(1, 1, 3, weight=np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, spec).data[0, 0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        assert np.array_equal(out, expected)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = random_tensor(rng, 2, 3, 5, 7)
        out = conv2d(x, identity_spec(3))
        assert np.array_equal(out.data, x.data)

    def test_stride2_shape_640(self):
        rng = np.random.default_rng(1)
        x = random_tensor(rng, 1, 3, 640, 640)
        spec = ConvSpec(3, 64, 3, stride=2,
                        weight=rng.standard_normal((64, 3, 3, 3)).astype(np.float32) * 0.1)
        out = conv2d(x, spec)
        assert out.shape == (1, 64, 320, 320)
        assert np.all(np.isfinite(out.data))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), identity_spec(3))

    def test_nonpositive_output(self):
        spec = ConvSpec(1, 1, 3, stride=2)
        with pytest.raises(ValueError, match="output dims"):
            conv2d(Tensor(np.zeros((1, 1, 1, 0))), spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kernel"):
            ConvSpec(1, 1, 5)
        with pytest.raises(ValueError, match="stride"):
            ConvSpec(1, 1, 3, stride=3)
        for k in (1, 3):
            assert ConvSpec(2, 2, k).padding == k // 2
        with pytest.raises(ValueError, match="groups"):
            ConvSpec(3, 4, 1, groups=2)

    def test_spec_refuses_bad_groups_and_parameter_shapes(self):
        with pytest.raises(ValueError, match="^groups must be positive$"):
            ConvSpec(2, 2, 1, groups=0)
        with pytest.raises(ValueError, match=r"^weight shape \(2, 1, 1, 1\) does not match "
                                             r"spec \(2, 2, 1, 1\)$"):
            ConvSpec(2, 2, 1, weight=np.zeros((2, 1, 1, 1)))
        with pytest.raises(ValueError, match=r"^bias shape \(3,\) does not match \(2,\)$"):
            ConvSpec(2, 2, 1, bias=np.zeros(3))

    @staticmethod
    def _check_against_direct(rng, n, c_in, c_out, groups, k, s, h, w):
        weight = rng.uniform(-1, 1, (c_out, c_in // groups, k, k)).astype(np.float32)
        bias = rng.uniform(-1, 1, c_out).astype(np.float32) if rng.random() < 0.5 else None
        x = rng.uniform(-1, 1, (n, c_in, h, w)).astype(np.float32)
        spec = ConvSpec(c_in, c_out, k, stride=s, groups=groups, weight=weight, bias=bias)
        got = conv2d(Tensor(x), spec).data
        want = conv2d_direct(x, weight, bias, s, k // 2, groups)
        assert np.max(np.abs(got - want)) < 1e-5

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_direct_oracle(self, seed):
        # Each seed draws a dense or grouped conv, then a depthwise one
        # (groups = c_in = c_out) on inputs as small as k x k.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        groups = int(rng.choice([1, 1, 2, 3]))
        cpg_in = int(rng.integers(1, 5))
        cpg_out = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3]))
        s = int(rng.choice([1, 2]))
        h = int(rng.integers(k, 17))
        w = int(rng.integers(k, 17))
        self._check_against_direct(rng, n, groups * cpg_in, groups * cpg_out, groups, k, s, h, w)
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 7))
        k = int(rng.choice([1, 3]))
        s = int(rng.choice([1, 2]))
        h = int(rng.integers(k, 9))
        w = int(rng.integers(k, 9))
        self._check_against_direct(rng, n, c, c, c, k, s, h, w)

    def test_depthwise_matches_oracle(self):
        rng = np.random.default_rng(3)
        c = 6
        weight = rng.uniform(-1, 1, (c, 1, 3, 3)).astype(np.float32)
        x = rng.uniform(-1, 1, (1, c, 9, 9)).astype(np.float32)
        spec = ConvSpec(c, c, 3, groups=c, weight=weight)
        got = conv2d(Tensor(x), spec).data
        want = conv2d_direct(x, weight, None, 1, 1, c)
        assert np.max(np.abs(got - want)) < 1e-5

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_depthwise_strided_batched_matches_oracle(self, k, stride, with_bias):
        rng = np.random.default_rng(10 * k + 2 * stride + with_bias)
        c = 5
        weight = rng.uniform(-1, 1, (c, 1, k, k)).astype(np.float32)
        bias = rng.uniform(-1, 1, c).astype(np.float32) if with_bias else None
        x = rng.uniform(-1, 1, (2, c, 7, 10)).astype(np.float32)
        spec = ConvSpec(c, c, k, stride=stride, groups=c, weight=weight, bias=bias)
        got = conv2d(Tensor(x), spec).data
        want = conv2d_direct(x, weight, bias, stride, k // 2, c)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        k=st.sampled_from([1, 3]),
        s=st.sampled_from([1, 2]),
    )
    def test_shape_algebra(self, h, w, k, s):
        p = k // 2
        oh, ow = conv_output_dim(h, k, s, p), conv_output_dim(w, k, s, p)
        spec = ConvSpec(1, 1, k, stride=s)
        if oh <= 0 or ow <= 0:
            with pytest.raises(ValueError):
                conv2d(Tensor(np.zeros((1, 1, h, w))), spec)
        else:
            assert conv2d(Tensor(np.zeros((1, 1, h, w))), spec).shape == (1, 1, oh, ow)


class TestConv2dAgainstThreePaths:
    """The one strided view against the three algorithms it replaced: the same
    bytes wherever the reference multiplies matrices, and ulps off its tap
    loop, which took every conv with groups = c_in = c_out (one channel too)
    and whose k*k taps the matmul sums in its own order."""

    @pytest.mark.parametrize("kind", ["dense", "grouped", "depthwise"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_equals_reference(self, kind, k, stride):
        rng = np.random.default_rng(100 * k + 10 * stride + len(kind))
        for n in (1, 2):
            for h, w in ((k, k), (k + 1, k + 2), (11, 8), (16, 16)):
                for with_bias in (False, True):
                    a, b = (int(v) for v in rng.integers(1, 5, 2))
                    groups, c_in, c_out = {
                        "dense": (1, a, b),
                        "grouped": (a + 1, (a + 1) * b, (a + 1) * a),
                        "depthwise": (a + b, a + b, a + b),
                    }[kind]
                    weight = rng.standard_normal((c_out, c_in // groups, k, k)).astype(np.float32)
                    bias = rng.standard_normal(c_out).astype(np.float32) if with_bias else None
                    x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
                    spec = ConvSpec(c_in, c_out, k, stride, groups, weight, bias)
                    got = conv2d(Tensor(x), spec).data
                    want = conv2d_three_path_reference(x, weight, bias, stride, groups)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    if groups == c_in == c_out:  # the tap loop's rule, 1 channel too
                        assert np.all(np.abs(got - want) <= 1e-6 * (1 + np.abs(want)))
                    else:
                        assert got.tobytes() == want.tobytes()

    def test_stride1_pointwise_multiplies_the_input_in_place(self, monkeypatch):
        # The 1x1 stride-1 window view is the input itself, so no column copy.
        seen = []
        real_matmul = np.matmul

        def matmul(a, b):
            seen.append(b)
            return real_matmul(a, b)

        monkeypatch.setattr(np, "matmul", matmul)
        x = random_tensor(np.random.default_rng(0), 2, 4, 5, 6)
        conv2d(x, ConvSpec(4, 3, 1))
        conv2d(x, ConvSpec(4, 3, 1, stride=2))
        assert np.shares_memory(seen[0], x.data)
        assert not np.shares_memory(seen[1], x.data)


class TestFoldBatchnorm:
    def test_identity_normalization(self):
        rng = np.random.default_rng(0)
        spec = ConvSpec(2, 3, 3, weight=rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
        bn = BatchNormParams.identity(3, eps=1e-12)
        folded = fold_batchnorm(spec, bn)
        assert np.allclose(folded.weight, spec.weight, atol=1e-6)
        assert np.allclose(folded.bias, 0.0, atol=1e-6)

    def test_gamma_two_doubles_weight(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 2, 1, 1)).astype(np.float32)
        spec = ConvSpec(2, 4, 1, weight=w)
        bn = BatchNormParams(
            gamma=np.full(4, 2.0), beta=np.zeros(4), mean=np.zeros(4), var=np.ones(4),
            eps=1e-12,
        )
        folded = fold_batchnorm(spec, bn)
        assert np.allclose(folded.weight, 2 * w, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_composition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        spec = ConvSpec(4, 6, 3, weight=rng.standard_normal((6, 4, 3, 3)).astype(np.float32))
        bn = BatchNormParams(
            gamma=rng.uniform(0.5, 2.0, 6),
            beta=rng.uniform(-1, 1, 6),
            mean=rng.uniform(-1, 1, 6),
            var=rng.uniform(1e-3, 10, 6),
            eps=1e-3,
        )
        x = random_tensor(rng, 1, 4, 8, 8)
        folded_out = conv2d(x, fold_batchnorm(spec, bn)).data
        scale, shift = bn.scale_shift()
        reference = conv2d(x, spec).data * scale[None, :, None, None] + shift[None, :, None, None]
        assert np.max(np.abs(folded_out - reference)) < 1e-4

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            fold_batchnorm(ConvSpec(1, 2, 1), BatchNormParams.identity(3))

    def test_bn_validation(self):
        with pytest.raises(ValueError, match="variance"):
            BatchNormParams(np.ones(2), np.zeros(2), np.zeros(2), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="variance"):
            BatchNormParams(np.ones(2), np.zeros(2), np.zeros(2), np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="epsilon"):
            BatchNormParams.identity(2, eps=0.0)

    @pytest.mark.parametrize("gamma", [np.ones(3), np.ones((2, 1))])
    def test_bn_shapes_refused(self, gamma):
        msg = "^batch-norm parameters must be 1-D arrays of equal length$"
        with pytest.raises(ValueError, match=msg):
            BatchNormParams(gamma, np.zeros(2), np.zeros(2), np.ones(2))


class TestActivations:
    def test_silu_values(self):
        x = Tensor(np.array([[[[0.0, 1.0, -20.0]]]], dtype=np.float32))
        out = silu(x).data.ravel()
        assert out[0] == 0.0
        assert abs(out[1] - 0.7310586) < 1e-6
        assert abs(out[2] - (-4.122e-8)) < 1e-9
        assert np.all(np.isfinite(out))

    def test_sigmoid_values(self):
        x = np.array([0.0, 1e9, -1e9], dtype=np.float32)
        out = sigmoid(x)
        assert out.shape == x.shape
        assert out[0] == 0.5
        assert out[1] == 1.0 and np.isfinite(out[1])
        assert out[2] == 0.0

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(2)
        x = random_tensor(rng, 1, 2, 4, 4).data
        total = sigmoid(x) + sigmoid(-x)
        assert np.max(np.abs(total - 1.0)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=16))
    def test_monotone_nondecreasing(self, values):
        arr = np.sort(np.array(values, dtype=np.float32)).reshape(1, 1, 1, -1)
        s = sigmoid(arr).ravel()
        z = silu(Tensor(arr)).data.ravel()
        assert np.all(np.diff(s) >= 0)
        assert np.all(z >= -0.2785)
        assert np.all((s >= 0) & (s <= 1))

    def test_sigmoid_monotone_on_every_float32_near_a_tenth(self):
        # A float32-only sigmoid steps down by one ulp between some adjacent
        # inputs here; every float32 in [0.09, 0.11] and its mirror is scanned.
        lo, hi = np.array([0.09, 0.11], dtype=np.float32).view(np.int32)
        xs = np.arange(lo, hi + 1, dtype=np.int32).view(np.float32)
        for window in (xs, -xs[::-1]):
            assert np.all(np.diff(sigmoid(window)) >= 0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-15, 15), min_size=1, max_size=16))
    def test_open_unit_interval_before_saturation(self, values):
        # float32 saturates to exactly 0/1 past |x| ~ 17; below that the
        # image must stay strictly inside (0, 1)
        s = sigmoid(np.array(values, dtype=np.float32))
        assert np.all((s > 0) & (s < 1))

    def test_silu_global_minimum_bound(self):
        xs = np.linspace(-10, 10, 20001, dtype=np.float32).reshape(1, 1, 1, -1)
        assert silu(Tensor(xs)).data.min() >= -0.2785

    def test_against_float64_reference(self):
        # Below -87 the exact value leaves float32's normal range, so relative
        # error is only meaningful on [-87, 87].
        xs = np.linspace(-87, 87, 400001, dtype=np.float32)
        ref = 1.0 / (1.0 + np.exp(-xs.astype(np.float64)))
        s = sigmoid(xs).astype(np.float64)
        z = silu(Tensor(xs.reshape(1, 1, 1, -1))).data.ravel().astype(np.float64)
        assert np.all(np.abs(s - ref) <= 1e-6 * ref)
        silu_ref = xs * ref
        assert np.all(np.abs(z - silu_ref) <= 1e-6 * np.abs(silu_ref))

    def test_saturation_exact_and_warning_free(self):
        # exp(1e9) overflows float32; the result must still be exact and quiet.
        x = np.array([1e9, -1e9, np.inf, -np.inf], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sigmoid(x)
            z = silu(Tensor(x[:2].reshape(1, 1, 1, -1))).data.ravel()
        assert list(s) == [1.0, 0.0, 1.0, 0.0]
        assert z[0] == np.float32(1e9) and z[1] == 0.0

    def test_nan_propagates(self):
        x = np.array([np.nan, 0.0, np.nan], dtype=np.float32)
        s = sigmoid(x)
        z = silu(Tensor(x.reshape(1, 1, 1, -1))).data.ravel()
        assert np.isnan(s[[0, 2]]).all() and s[1] == 0.5
        assert np.isnan(z[[0, 2]]).all() and z[1] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float32, st.integers(1, 64), elements=st.floats(-200, 200, width=32)))
    def test_silu_is_one_float32_division(self, values):
        # x / (1 + exp(-x)) rounded once, bit for bit, limits included; the
        # reciprocal-then-product form rounds twice and misses by an ulp.
        x = np.concatenate([values, np.float32([1e9, -1e9, np.inf, -np.inf, np.nan])])
        with np.errstate(over="ignore", invalid="ignore"):
            want = x / (1 + np.exp(-x))
            got = silu(Tensor(x.reshape(1, 1, 1, -1))).data.ravel()
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


class TestMaxpool:
    def test_hand_max(self):
        x = Tensor(np.array([[[[1, 2], [3, 4]]]], dtype=np.float32))
        out = maxpool2d(x, 2, 2, 0)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = random_tensor(rng, 1, 3, 5, 5)
        assert np.array_equal(maxpool2d(x, 1, 1, 0).data, x.data)

    def test_shape_preserving_sppf_config(self):
        x = Tensor(np.zeros((1, 8, 20, 20)))
        assert maxpool2d(x, 5, 1, 2).shape == (1, 8, 20, 20)

    def test_negative_inputs_not_corrupted_by_padding(self):
        # Zero fill would make border maxima 0; -inf fill must preserve them.
        x = Tensor(np.full((1, 1, 4, 4), -3.5, dtype=np.float32))
        out = maxpool2d(x, 3, 1, 1)
        assert np.all(out.data == -3.5)

    def test_nonpositive_output(self):
        with pytest.raises(ValueError, match="output"):
            maxpool2d(Tensor(np.zeros((1, 1, 2, 2))), 3, 1, 0)

    @pytest.mark.parametrize("k, stride, padding, message", [
        (0, 1, 0, r"^pool kernel must be >= 1$"),
        (3, 0, 1, r"^pool stride must be >= 1$"),
        (3, 1, 2, r"^pool padding must be in \[0, 1\] for kernel 3$"),
        (3, 1, -1, r"^pool padding must be in \[0, 1\] for kernel 3$"),
    ])
    def test_pool_geometry_refused(self, k, stride, padding, message):
        with pytest.raises(ValueError, match=message):
            maxpool2d(Tensor(np.zeros((1, 1, 4, 4))), k, stride, padding)

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 7),
        stride=st.integers(1, 3),
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(1, 11),
        w=st.integers(1, 11),
        negative=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_window_scan_oracle_bitwise(
        self, k, stride, n, c, h, w, negative, seed, data
    ):
        padding = data.draw(st.integers(0, k // 2))
        assume(conv_output_dim(h, k, stride, padding) > 0)
        assume(conv_output_dim(w, k, stride, padding) > 0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        if negative:
            x = -np.abs(x) - 1.0
        got = maxpool2d(Tensor(x), k, stride, padding).data
        want = maxpool2d_direct(x, k, stride, padding)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestUpsampleConcat:
    def test_single_pixel_replication(self):
        out = upsample_nearest2x(Tensor(np.full((1, 1, 1, 1), 7.0, dtype=np.float32)))
        assert out.shape == (1, 1, 2, 2)
        assert np.all(out.data == 7.0)

    def test_block_structure(self):
        x = Tensor(np.array([[[[1, 2], [3, 4]]]], dtype=np.float32))
        out = upsample_nearest2x(x).data[0, 0]
        expected = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32
        )
        assert np.array_equal(out, expected)

    def test_sum_conservation(self):
        rng = np.random.default_rng(5)
        x = random_tensor(rng, 2, 3, 6, 7)
        up = upsample_nearest2x(x)
        assert np.isclose(up.data.sum(dtype=np.float64), 4 * x.data.sum(dtype=np.float64))

    def test_concat_single(self):
        x = random_tensor(np.random.default_rng(4), 1, 2, 3, 3)
        out = concat_channels([x])
        assert out.data.tobytes() == x.data.tobytes() and out.shape == x.shape

    def test_concat_ordering(self):
        rng = np.random.default_rng(6)
        a = random_tensor(rng, 1, 2, 3, 3)
        b = random_tensor(rng, 1, 3, 3, 3)
        out = concat_channels([a, b])
        assert out.c == 5
        assert np.array_equal(out.data[:, 2], b.data[:, 0])

    def test_concat_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            concat_channels([Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 2)))])

    def test_split_concat_roundtrip_bitwise(self):
        rng = np.random.default_rng(7)
        x = random_tensor(rng, 2, 6, 4, 4)
        halves = split_channels(x, [3, 3])
        assert np.array_equal(concat_channels(halves).data, x.data)

    def test_split_negative_size_raises(self):
        x = Tensor(np.zeros((1, 4, 2, 2)))
        with pytest.raises(ValueError, match=r"split sizes \[-1, 5\] include a negative"):
            split_channels(x, [-1, 5])
        assert [t.c for t in split_channels(x, [0, 4, 0])] == [0, 4, 0]

    def test_empty_concat_and_short_split_refused(self):
        with pytest.raises(ValueError, match="^concat_channels needs at least one tensor$"):
            concat_channels([])
        with pytest.raises(ValueError, match=r"^split sizes \[1, 2\] do not sum to 4 channels$"):
            split_channels(Tensor(np.zeros((1, 4, 2, 2))), [1, 2])


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_lastaxis(np.zeros((3, 4), dtype=np.float32))
        assert np.allclose(out, 0.25)

    def test_large_values_stable(self):
        out = softmax_lastaxis(np.array([[1000.0, 0.0]], dtype=np.float32))
        assert np.array_equal(out, np.array([[1.0, 0.0]], dtype=np.float32))
        assert not np.any(np.isnan(out))

    def test_shift_invariance_exact(self):
        # Dyadic values and a power-of-two shift keep float math exact.
        row = np.array([[1.0, 2.0, -3.0, 0.5]], dtype=np.float32)
        assert np.array_equal(softmax_lastaxis(row), softmax_lastaxis(row + 512.0))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 7)).astype(np.float32) * 10
        out = softmax_lastaxis(a)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-6

    @pytest.mark.parametrize("length", [1, 2, 5, 16, 32, 33, 100])
    def test_equals_reduction_form_bitwise(self, length):
        # Every row length takes the one reduction path; it must equal
        # softmax_reference on the decode's transposed layout too, with
        # repeated maxima and signed zeros.
        rng = np.random.default_rng(length)
        a = rng.standard_normal((60, 4 * length)).astype(np.float32) * 8
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        a[:5] = a[:5].max()
        for view in (a.reshape(60, 4, length), a.reshape(60, 4, length).transpose(1, 0, 2)):
            got, want = softmax_lastaxis(view), softmax_reference(view)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
