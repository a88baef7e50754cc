"""Composite blocks: residual identities, composition oracles, shape contracts."""
import array

import numpy as np
import pytest

from conftest import random_tensor
from y11 import blocks
from y11.blocks import (
    C2PSA,
    C3K,
    C3K2,
    SPPF,
    AttentionLayer,
    Bottleneck,
    ConvBlock,
    PSABlock,
    iter_leaf_blocks,
)
from y11.graph import DetectHead, build_graph
from y11.tensor import (
    BatchNormParams,
    ConvSpec,
    Tensor,
    concat_channels,
    conv2d,
    maxpool2d,
    silu,
    softmax_lastaxis,
)


def randomize(block, seed):
    """Fill every leaf with random weights and non-trivial bn statistics."""
    rng = np.random.default_rng(seed)
    for _, leaf in iter_leaf_blocks(block):
        spec = leaf.spec
        leaf.set_entry("weight", rng.uniform(-0.5, 0.5, spec.weight.shape).astype(np.float32))
        if spec.bias is not None:
            leaf.set_entry("bias", rng.uniform(-0.5, 0.5, spec.out_channels).astype(np.float32))
        if leaf.bn is not None:
            c = leaf.bn.channels
            leaf.set_entry("gamma", rng.uniform(0.5, 1.5, c).astype(np.float32))
            leaf.set_entry("beta", rng.uniform(-0.3, 0.3, c).astype(np.float32))
            leaf.set_entry("mean", rng.uniform(-0.3, 0.3, c).astype(np.float32))
            leaf.set_entry("var", rng.uniform(0.5, 2.0, c).astype(np.float32))
    return block


def zero_weights(block):
    """Zero every learnable parameter (conv weights/biases, bn gamma/beta).

    Running statistics stay untouched; gamma=0 already collapses the bn
    output to zero, which is what makes residual branches vanish.
    """
    for _, leaf in iter_leaf_blocks(block):
        leaf.set_entry("weight", np.zeros_like(leaf.spec.weight))
        if leaf.spec.bias is not None:
            leaf.set_entry("bias", np.zeros(leaf.spec.out_channels, dtype=np.float32))
        if leaf.bn is not None:
            c = leaf.bn.channels
            leaf.set_entry("gamma", np.zeros(c, dtype=np.float32))
            leaf.set_entry("beta", np.zeros(c, dtype=np.float32))
    return block


def identity_convblock(c: int, k: int = 1) -> ConvBlock:
    w = np.zeros((c, c, k, k), dtype=np.float32)
    for i in range(c):
        w[i, i, k // 2, k // 2] = 1.0
    spec = ConvSpec(c, c, k, weight=w)
    return ConvBlock(spec, BatchNormParams.identity(c, eps=1e-12), act="none")


def manual_conv_block(leaf: ConvBlock, x: Tensor) -> Tensor:
    """Straight-line re-implementation of a ConvBlock in float64 bn math."""
    y = conv2d(x, leaf.spec).data.astype(np.float64)
    if leaf.bn is not None:
        scale = leaf.bn.gamma.astype(np.float64) / np.sqrt(
            leaf.bn.var.astype(np.float64) + leaf.bn.eps
        )
        shift = leaf.bn.beta.astype(np.float64) - leaf.bn.mean.astype(np.float64) * scale
        y = y * scale[None, :, None, None] + shift[None, :, None, None]
    t = Tensor(y.astype(np.float32))
    return silu(t) if leaf.act == "silu" else t


class TestConvBlock:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = random_tensor(rng, 1, 3, 4, 4)
        assert np.array_equal(identity_convblock(3)(x).data, x.data)

    def test_zero_weights_silu(self):
        block = zero_weights(ConvBlock.create(2, 4, k=3))
        x = random_tensor(np.random.default_rng(1), 1, 2, 5, 5)
        assert np.all(block(x).data == 0.0)

    def test_against_unfused_composition(self):
        block = randomize(ConvBlock.create(3, 8, k=3, stride=2), 2)
        x = random_tensor(np.random.default_rng(3), 2, 3, 9, 9)
        got = block(x).data
        want = manual_conv_block(block, x).data
        assert np.max(np.abs(got - want)) < 1e-4

    def test_set_entry_drops_cached_fold(self):
        block = randomize(ConvBlock.create(3, 8, k=3), 4)
        x = random_tensor(np.random.default_rng(5), 1, 3, 6, 6)
        before = block(x).data
        gamma = np.linspace(0.2, 2.0, 8, dtype=np.float32)
        block.set_entry("gamma", gamma)
        fresh = ConvBlock.create(3, 8, k=3)
        for name, arr in block.entries():
            fresh.set_entry(name, arr)
        after = block(x).data
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh(x).data)

    def test_output_channels_and_stride(self):
        block = ConvBlock.create(3, 8, k=3, stride=2)
        x = Tensor(np.zeros((1, 3, 8, 8)))
        assert block(x).shape == (1, 8, 4, 4)

    def test_lone_leaf_names_itself_conv(self):
        block = randomize(ConvBlock.create(3, 4, k=3), 6)
        weight = block.spec.weight.copy()
        weight[2, 1, 0, 0] = np.nan
        block.set_entry("weight", weight)
        with pytest.raises(ValueError) as err:
            block(random_tensor(np.random.default_rng(7), 1, 3, 5, 5))
        assert str(err.value) == "conv: weights fold to a non-finite weight in output channel 2"
        with pytest.raises(ValueError, match=r"^entry 'conv\.var': running variance"):
            block.set_entry("var", np.full(4, -1.0, dtype=np.float32))

    def test_construction_refuses_activation_and_bn_width(self):
        spec = ConvSpec(3, 4, 1)
        with pytest.raises(ValueError, match="^unsupported activation 'relu'$"):
            ConvBlock(spec, None, act="relu")
        with pytest.raises(ValueError, match="^batch-norm has 3 channels, conv outputs 4$"):
            ConvBlock(spec, BatchNormParams.identity(3))

    def test_stored_entry_shares_no_caller_buffer(self):
        block = ConvBlock.create(3, 4)
        held = array.array("f", [0.5] * 4)  # numpy views its buffer, copying nothing
        block.set_entry("gamma", held)
        held[0] = 9.0
        assert np.all(block.bn.gamma == 0.5) and not block.bn.gamma.flags.writeable

    @pytest.mark.parametrize("name", ["scale", "bias"])  # a create leaf has no bias
    def test_unknown_entry_is_key_error(self, name):
        block = ConvBlock.create(3, 4)
        with pytest.raises(KeyError, match=f"^'{name}'$"):
            block.set_entry(name, np.zeros(4, dtype=np.float32))


class TestBottleneck:
    def test_zero_weights_shortcut_is_identity(self):
        block = zero_weights(Bottleneck(4))
        x = random_tensor(np.random.default_rng(0), 1, 4, 6, 6)
        assert np.array_equal(block(x).data, x.data)

    def test_shortcut_difference_equals_input(self):
        block = randomize(Bottleneck(4), 7)
        x = random_tensor(np.random.default_rng(8), 1, 4, 6, 6)
        diff = block(x).data - block.cv2(block.cv1(x)).data
        assert np.max(np.abs(diff - x.data)) < 1e-5


class TestC2F:
    """C3K2 with bottleneck units: the C2f topology."""

    def test_empty_chain_equals_exit_of_entry(self):
        block = randomize(C3K2(8, 8, n=0, c3k=False), 0)
        x = random_tensor(np.random.default_rng(1), 1, 8, 6, 6)
        want = block.cv2(block.cv1(x))
        assert np.array_equal(block(x).data, want.data)

    def test_exit_sees_expected_channels(self):
        block = C3K2(8, 8, n=2, c3k=False)  # c_hidden = 4
        assert block.c_hidden == 4
        assert block.cv2.spec.in_channels == (2 + 2) * 4 == 16

    def test_zero_bottlenecks_chain_passthrough(self):
        block = randomize(C3K2(8, 8, n=3, c3k=False), 2)
        for unit in block.units:
            zero_weights(unit)
        x = random_tensor(np.random.default_rng(3), 1, 8, 5, 5)
        from y11.tensor import split_channels

        y0, y1 = split_channels(block.cv1(x), [4, 4])
        want = block.cv2(concat_channels([y0, y1, y1, y1, y1]))
        assert np.array_equal(block(x).data, want.data)


class TestC3K:
    def test_zero_weights_branch_passthrough(self):
        block = randomize(C3K(8), 0)
        for unit in block.units:
            zero_weights(unit)
        x = random_tensor(np.random.default_rng(1), 1, 8, 5, 5)
        want = block.cv3(concat_channels([block.cv1(x), block.cv2(x)]))
        assert np.array_equal(block(x).data, want.data)

    def test_output_shape_contract(self):
        block = C3K(8)
        x = Tensor(np.zeros((1, 8, 7, 7)))
        assert block(x).shape == (1, 8, 7, 7)

    def test_straightline_oracle(self):
        block = randomize(C3K(8), 5)
        x = random_tensor(np.random.default_rng(6), 1, 8, 6, 6)
        y = manual_conv_block(block.cv1, x)
        for unit in block.units:
            h = manual_conv_block(unit.cv2, manual_conv_block(unit.cv1, y))
            y = Tensor(y.data + h.data)
        want = manual_conv_block(block.cv3, concat_channels([y, manual_conv_block(block.cv2, x)]))
        assert np.max(np.abs(block(x).data - want.data)) < 1e-5


class TestC3K2:
    def test_shape_with_c3k_units(self):
        block = C3K2(32, 32, n=1, c3k=True, e=0.5)
        x = Tensor(np.zeros((1, 32, 20, 20)))
        assert block(x).shape == (1, 32, 20, 20)

    def test_zero_inner_weights(self):
        block = randomize(C3K2(8, 8, n=1, c3k=False), 2)
        zero_weights(block.units[0])
        x = random_tensor(np.random.default_rng(3), 1, 8, 5, 5)
        from y11.tensor import split_channels

        y0, y1 = split_channels(block.cv1(x), [4, 4])
        want = block.cv2(concat_channels([y0, y1, y1]))
        assert np.array_equal(block(x).data, want.data)

    def test_zero_hidden_width_refused(self):
        with pytest.raises(ValueError, match="^hidden channel count must be positive$"):
            C3K2(8, 1, n=1)


class TestSPPF:
    def test_constant_plane(self):
        block = randomize(SPPF(8), 0)
        x = Tensor(np.full((1, 8, 6, 6), 2.5))
        h = block.cv1(x)
        want = block.cv2(concat_channels([h, h, h, h]))
        assert np.array_equal(block(x).data, want.data)

    def test_chained_pool_equals_pool9(self):
        rng = np.random.default_rng(1)
        x = random_tensor(rng, 1, 4, 12, 12)
        twice = maxpool2d(maxpool2d(x, 5, 1, 2), 5, 1, 2)
        once = maxpool2d(x, 9, 1, 4)
        assert np.array_equal(twice.data, once.data)

    def test_triple_pool_equals_pool13(self):
        rng = np.random.default_rng(2)
        x = random_tensor(rng, 1, 3, 15, 15)
        p = x
        for _ in range(3):
            p = maxpool2d(p, 5, 1, 2)
        assert np.array_equal(p.data, maxpool2d(x, 13, 1, 6).data)

    def test_shape_contract(self):
        block = SPPF(64)
        assert block(Tensor(np.zeros((1, 64, 20, 20)))).shape == (1, 64, 20, 20)

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError, match="even"):
            SPPF(7)


class TestAttention:
    def test_single_position(self):
        attn = randomize(AttentionLayer(8, num_heads=2), 0)
        x = random_tensor(np.random.default_rng(1), 1, 8, 1, 1)
        q, k, v = attn._split_qkv(x)
        v_map = Tensor(np.ascontiguousarray(v.reshape(1, 8, 1, 1)))
        want = attn.proj(v_map + attn.pe(v_map))
        assert np.max(np.abs(attn(x).data - want.data)) < 1e-6

    def test_weights_sum_to_one(self, monkeypatch):
        attn = randomize(AttentionLayer(16, num_heads=2), 2)
        x = random_tensor(np.random.default_rng(3), 1, 16, 4, 4)
        captured = []

        def capture(scores):
            captured.append(softmax_lastaxis(scores))
            return captured[-1]

        monkeypatch.setattr(blocks, "softmax_lastaxis", capture)
        attn(x)
        (weights,) = captured
        assert weights.shape == (1, 2, 16, 16)
        assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-6

    def test_spatial_permutation_equivariance(self):
        attn = randomize(AttentionLayer(8, num_heads=1), 4)
        attn.pe.set_entry("weight", np.zeros_like(attn.pe.spec.weight))
        rng = np.random.default_rng(5)
        x = random_tensor(rng, 1, 8, 2, 2)
        perm = np.array([2, 0, 3, 1])
        x_perm = Tensor(x.data.reshape(1, 8, 4)[:, :, perm].reshape(1, 8, 2, 2))
        out = attn(x).data.reshape(1, 8, 4)
        out_perm = attn(x_perm).data.reshape(1, 8, 4)
        assert np.max(np.abs(out[:, :, perm] - out_perm)) < 1e-5

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="heads"):
            AttentionLayer(10, num_heads=4)

    def test_dims_preserved(self):
        attn = randomize(AttentionLayer(32, num_heads=2), 6)
        x = random_tensor(np.random.default_rng(7), 2, 32, 5, 5)
        assert attn(x).shape == x.shape


class TestPSABlock:
    def test_zero_weights_identity(self):
        block = zero_weights(PSABlock(8, num_heads=1))
        x = random_tensor(np.random.default_rng(0), 1, 8, 4, 4)
        assert np.array_equal(block(x).data, x.data)

    def test_dims_preserved(self):
        block = randomize(PSABlock(16, num_heads=2), 1)
        x = random_tensor(np.random.default_rng(2), 1, 16, 6, 6)
        assert block(x).shape == x.shape

    def test_straightline_oracle(self):
        block = randomize(PSABlock(8, num_heads=2), 3)
        x = random_tensor(np.random.default_rng(4), 1, 8, 3, 3)

        attn = block.attn  # dim 8, heads 2, head_dim 4, key_dim 2
        qkv = manual_conv_block(attn.qkv, x).data.reshape(1, 2, 8, 9)
        q, k, v = qkv[:, :, :2], qkv[:, :, 2:4], qkv[:, :, 4:]
        scores = np.einsum("bhdi,bhdj->bhij", q, k).astype(np.float64) * attn.scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        mixed = np.einsum("bhdj,bhij->bhdi", v.astype(np.float64), probs)
        v_map = Tensor(np.ascontiguousarray(v.reshape(1, 8, 3, 3)))
        pos = manual_conv_block(attn.pe, v_map)
        att_out = manual_conv_block(
            attn.proj, Tensor(mixed.reshape(1, 8, 3, 3).astype(np.float32) + pos.data)
        )
        y = Tensor(x.data + att_out.data)
        ffn = manual_conv_block(block.ffn2, manual_conv_block(block.ffn1, y))
        want = y.data + ffn.data
        assert np.max(np.abs(block(x).data - want)) < 1e-5


class TestC2PSA:
    def test_empty_chain(self):
        block = randomize(C2PSA(16, n=0), 0)
        x = random_tensor(np.random.default_rng(1), 1, 16, 4, 4)
        want = block.cv2(block.cv1(x))
        assert np.array_equal(block(x).data, want.data)

    def test_zero_psa_internals(self):
        block = randomize(C2PSA(16, n=2), 2)
        for unit in block.units:
            zero_weights(unit)
        x = random_tensor(np.random.default_rng(3), 1, 16, 4, 4)
        want = block.cv2(block.cv1(x))
        assert np.array_equal(block(x).data, want.data)

    def test_deep_stage_shape(self):
        block = randomize(C2PSA(256, n=1), 4)
        x = random_tensor(np.random.default_rng(5), 1, 256, 20, 20)
        assert block(x).shape == (1, 256, 20, 20)

    def test_zero_hidden_width_refused(self):
        with pytest.raises(ValueError, match="^hidden channel count must be positive$"):
            C2PSA(1, n=1)


class TestCompositeWidth:
    @pytest.mark.parametrize("variant", ["n", "m"])
    def test_output_width_is_out_channels(self, variant):
        # A composite's width is that of its last child in children(); run
        # every composite of a graph and compare with what it really outputs.
        rng = np.random.default_rng(13)
        pending = [b for b in build_graph(variant).init_random(14).blocks if b is not None]
        kinds = set()
        while pending:
            block = pending.pop()
            if isinstance(block, ConvBlock):
                continue
            pending += [child for _, child in block.children()]
            if isinstance(block, DetectHead):
                continue
            c_in = next(iter_leaf_blocks(block))[1].spec.in_channels
            assert block(random_tensor(rng, 1, c_in, 8, 8)).c == block.out_channels
            kinds.add(type(block).__name__)
        assert {"Bottleneck", "C3K", "C3K2", "SPPF", "AttentionLayer", "PSABlock", "C2PSA",
                "_Branch"} <= kinds


class TestChildren:
    @pytest.mark.parametrize(
        "factory, names",
        [
            (lambda: Bottleneck(8), ["cv1", "cv2"]),
            (lambda: C3K(8), ["cv1", "m0", "m1", "cv2", "cv3"]),
            (lambda: C3K2(8, 8, n=2), ["cv1", "m0", "m1", "cv2"]),
            (lambda: C3K2(8, 8, n=1, c3k=True), ["cv1", "m0", "cv2"]),
            (lambda: SPPF(8), ["cv1", "cv2"]),
            (lambda: AttentionLayer(16, 2), ["qkv", "pe", "proj"]),
            (lambda: PSABlock(16, 2), ["attn", "ffn1", "ffn2"]),
            (lambda: C2PSA(16, n=2), ["cv1", "m0", "m1", "cv2"]),
        ],
        ids=["Bottleneck", "C3K", "C3K2", "C3K2-c3k", "SPPF", "AttentionLayer", "PSABlock",
             "C2PSA"],
    )
    def test_children_are_the_blocks_init_sets_in_order(self, factory, names):
        # The order names the weight-file entries, so a reorder in an
        # __init__ fails here by name.
        block = factory()
        children = block.children()
        assert [name for name, _ in children] == names
        units = iter(getattr(block, "units", []))
        for name, child in children:
            assert isinstance(child, (ConvBlock, blocks._Composite))
            assert child is (next(units) if name[0] == "m" else getattr(block, name))
        assert block.out_channels == children[-1][1].out_channels


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Bottleneck(8),
            lambda: C3K2(8, 8, n=1, c3k=True),
            lambda: SPPF(8),
            lambda: C2PSA(16, n=1),
        ],
    )
    def test_forward_bitwise_repeatable(self, factory):
        block = randomize(factory(), 11)
        c_in = 16 if isinstance(block, C2PSA) else 8
        x = random_tensor(np.random.default_rng(12), 1, c_in, 8, 8)
        assert np.array_equal(block(x).data, block(x).data)
