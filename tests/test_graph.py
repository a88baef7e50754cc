"""Model assembly, shape contracts, budget accounting, init and weight loading."""
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_tensor
from oracle_helpers import (
    conv_block_forward_unfused,
    count_flops_reference,
    forward_reference,
    init_random_reference,
    walk_shapes_reference,
)
from y11.blocks import C3K2, SPPF, ConvBlock
from y11.graph import (
    VARIANTS,
    DetectHead,
    VariantSpec,
    build_graph,
    scale_channels,
    scale_units,
)
from y11.io_formats import write_weights
from y11.tensor import ConvSpec, Tensor


def leaf_param_count(block) -> int:
    from y11.blocks import iter_leaf_blocks

    total = 0
    for _, leaf in iter_leaf_blocks(block):
        for suffix, arr in leaf.entries():
            if suffix not in ("mean", "var"):
                total += arr.size
    return total


def randomize_bn(g, rng):
    """Give every batch-norm of graph `g` non-identity statistics."""
    for _, leaf in g.named_leaf_blocks():
        if leaf.bn is not None:
            c = leaf.bn.channels
            leaf.set_entry("gamma", rng.uniform(0.5, 1.5, c).astype(np.float32))
            leaf.set_entry("beta", rng.uniform(-0.3, 0.3, c).astype(np.float32))
            leaf.set_entry("mean", rng.uniform(-0.3, 0.3, c).astype(np.float32))
            leaf.set_entry("var", rng.uniform(0.5, 2.0, c).astype(np.float32))
    return g


class TestScaling:
    def test_channel_rounding(self):
        n = VARIANTS["n"]
        assert scale_channels(64, n) == 16
        assert scale_channels(1024, n) == 256
        x = VARIANTS["x"]
        assert scale_channels(1024, x) == 768  # capped at 512, then x1.5

    def test_channel_floor(self):
        tiny = VariantSpec("t", 1.0, 0.01, 1024)
        assert scale_channels(64, tiny) == 8

    def test_unit_ceil_rounding(self):
        assert scale_units(2, VARIANTS["n"]) == 1  # ceil(2 * 0.5)
        assert scale_units(2, VARIANTS["l"]) == 2
        assert scale_units(3, VariantSpec("t", 0.34, 1.0, 1024)) == 2  # ceil(1.02)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            build_graph("q")
        with pytest.raises(ValueError, match="unknown variant"):  # a spec is not a name
            build_graph(VARIANTS["n"])


class TestBuild:
    def test_layer_plan(self):
        g = build_graph("n")
        assert len(g.layers) == 24
        assert g.layers[-1].kind == "DetectHead"
        assert g.layers[-1].froms == (16, 19, 22)

    def test_classes_and_reg_max_set_head_width(self):
        g = build_graph("n", num_classes=11, reg_max=8)
        assert g.num_classes == 11 and g.reg_max == 8
        assert g.blocks[-1].out_channels == 4 * 8 + 11

    def test_classes_and_reg_max_refused_below_their_floor(self):
        with pytest.raises(ValueError, match="^num_classes must be >= 1$"):
            build_graph("n", num_classes=0)
        with pytest.raises(ValueError, match="^reg_max must be >= 2$"):
            build_graph("n", reg_max=1)

    def test_depth_scaled_unit_counts(self):
        assert len(build_graph("n").blocks[2].units) == 1  # ceil(2 * 0.5)
        assert len(build_graph("l").blocks[2].units) == 2

    def test_backbone_width_cap(self):
        g = build_graph("n")
        assert g.out_channels[8] <= VARIANTS["n"].max_channels

    def test_deep_variants_force_c3k(self):
        from y11.blocks import C3K

        n_units = build_graph("n").blocks[2].units
        m_units = build_graph("m").blocks[2].units
        assert not any(isinstance(u, C3K) for u in n_units)
        assert all(isinstance(u, C3K) for u in m_units)

    # SHA-256 over the "name:shape" lines of state_entries(), in order. Weight
    # files are written and read in this layout, so it must not drift.
    STATE_LAYOUT_DIGESTS = {
        "n": "b48911b114e4d7030537b994551eca8ea09400a70fd8f68bdf6fb6c260126c56",
        "s": "caca146f539fb0c1cc55a868c0f6dcc4e06e2ce68ce81954e03a65ba285653fe",
        "m": "f729be495b039d8d807451c5c76d461ffafd26aec328284e9920e7ea3669bf74",
        "l": "5d70b7341ac9a2e1aeb5246f64ab483e2cc6f783d654704808dc034ffbe6c3b8",
        "x": "926f0d472e5a6388b2bab6164b3c29e39a45c2f05e7abe56db094ff7158009b4",
    }

    @pytest.mark.parametrize("variant", sorted(STATE_LAYOUT_DIGESTS))
    def test_state_layout_pinned(self, variant):
        entries = build_graph(variant).state_entries()
        layout = "".join(f"{name}:{tuple(arr.shape)}\n" for name, arr in entries)
        digest = hashlib.sha256(layout.encode()).hexdigest()
        assert digest == self.STATE_LAYOUT_DIGESTS[variant]

    # SHA-256 of write_weights(state_entries()) of a fresh graph: its values,
    # zero weights and biases and identity batch-norm, as well as its layout.
    FRESH_STATE_DIGESTS = {
        "n": "63a123c3922ab051b56ebc7452b28866c802b78dd29fc1fdd7930200607f8418",
        "s": "6f44021f894cabe93d273d5e5d2f861fd13f11c066679da568660a62892f815c",
    }

    @pytest.mark.parametrize("variant", sorted(FRESH_STATE_DIGESTS))
    def test_fresh_state_pinned(self, variant):
        data = write_weights(build_graph(variant).state_entries())
        assert hashlib.sha256(data).hexdigest() == self.FRESH_STATE_DIGESTS[variant]

    def test_fresh_entries_are_read_only_placeholders(self):
        for _, arr in build_graph("n").state_entries():
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 5.0

    @pytest.mark.parametrize("fill", ["init_random", "load_state"])
    def test_filled_entries_are_read_only(self, fill):
        # An entry edited in place would leave the cached fold stale: the
        # next forward would silently run the old weights.
        g = build_graph("n").init_random(1)
        if fill == "load_state":
            copies = [(name, arr.copy()) for name, arr in g.state_entries()]
            g = build_graph("n").load_state(copies)
        g.forward(Tensor(np.zeros((1, 3, 64, 64))))
        for name, arr in g.state_entries():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.0

    def test_filling_a_graph_leaves_fresh_graphs_alone(self):
        a, b = build_graph("n"), build_graph("n")
        a.init_random(0)
        b.load_state(build_graph("n").init_random(1).state_entries())
        ones = ("gamma", "var")
        for name, arr in build_graph("n").state_entries():
            want = 1.0 if name.rsplit(".", 1)[1] in ones else 0.0
            assert np.array_equal(arr, np.full(arr.shape, want, dtype=np.float32)), name

    @pytest.mark.parametrize("variant", ["n", "x"])
    def test_build_allocates_no_parameters(self, variant):
        # Fresh parameters view one shared constant, so building allocates no
        # array buffers: x's zero weights alone would be over 200 MB.
        tracemalloc.start()
        try:
            build_graph(variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestForward:
    def test_head_channels_and_grids_640(self):
        g = build_graph("n").init_random(0)
        rng = np.random.default_rng(1)
        outs = g.forward(random_tensor(rng, 1, 3, 640, 640))
        assert [o.shape for o in outs] == [
            (1, 144, 80, 80),
            (1, 144, 40, 40),
            (1, 144, 20, 20),
        ]

    @pytest.mark.parametrize("size,grids", [(320, (40, 20, 10)), (480, (60, 30, 15))])
    def test_smaller_inputs(self, size, grids):
        g = build_graph("n").init_random(0)
        rng = np.random.default_rng(2)
        outs = g.forward(random_tensor(rng, 1, 3, size, size))
        assert tuple(o.h for o in outs) == grids
        assert all(o.c == 4 * 16 + 80 for o in outs)

    def test_custom_classes(self):
        g = build_graph("n", num_classes=7).init_random(0)
        outs = g.forward(Tensor(np.zeros((1, 3, 64, 64))))
        assert all(o.c == 4 * 16 + 7 for o in outs)

    def test_indivisible_size_rejected(self):
        g = build_graph("n")
        with pytest.raises(ValueError, match="divisible by 32"):
            g.forward(Tensor(np.zeros((1, 3, 100, 100))))

    def test_input_channels_refused(self):
        with pytest.raises(ValueError, match="^expected 3 input channels, got 1$"):
            build_graph("n").forward(Tensor(np.zeros((1, 1, 64, 64))))

    def test_deterministic_bitwise(self):
        g = build_graph("n").init_random(3)
        rng = np.random.default_rng(4)
        x = random_tensor(rng, 1, 3, 64, 64)
        a = g.forward(x)
        b = g.forward(x)
        for t1, t2 in zip(a, b):
            assert np.array_equal(t1.data, t2.data)

    def test_forward_does_not_mutate_weights(self):
        g = build_graph("n").init_random(5)
        digest = lambda: hashlib.sha256(
            b"".join(arr.tobytes() for _, arr in g.state_entries())
        ).hexdigest()
        before = digest()
        g.forward(Tensor(np.zeros((1, 3, 64, 64))))
        assert digest() == before

    def test_outputs_finite(self):
        g = build_graph("n").init_random(6)
        rng = np.random.default_rng(7)
        outs = g.forward(random_tensor(rng, 1, 3, 96, 96))
        assert all(np.all(np.isfinite(o.data)) for o in outs)


class TestCountParams:
    def test_single_conv_block_formula(self):
        block = ConvBlock.create(3, 16, k=3)
        assert leaf_param_count(block) == 3 * 16 * 9 + 2 * 16 == 464

    def test_toy_graph_hand_count(self):
        # Independent closed-form accounting for a 3-block chain.
        stem = ConvBlock.create(3, 16, k=3, stride=2)
        csp = C3K2(16, 32, n=1, c3k=False, e=0.5)
        sppf = SPPF(32)

        stem_expect = 3 * 16 * 9 + 2 * 16
        # C3K2: cv1 1x1 16->32, one bottleneck on 16 (hidden 8, two 3x3 convs),
        # cv2 1x1 48->32; each conv block adds 2*c_out bn params.
        cv1 = 16 * 32 + 2 * 32
        b_cv1 = 16 * 8 * 9 + 2 * 8
        b_cv2 = 8 * 16 * 9 + 2 * 16
        cv2 = 48 * 32 + 2 * 32
        csp_expect = cv1 + b_cv1 + b_cv2 + cv2
        # SPPF: 1x1 32->16 then 1x1 64->32.
        sppf_expect = (32 * 16 + 2 * 16) + (64 * 32 + 2 * 32)

        assert leaf_param_count(stem) == stem_expect
        assert leaf_param_count(csp) == csp_expect
        assert leaf_param_count(sppf) == sppf_expect

    def test_variant_budgets(self):
        n = build_graph("n").count_params()
        s = build_graph("s").count_params()
        assert abs(n - 2.6e6) / 2.6e6 < 0.10
        assert abs(s - 9.4e6) / 9.4e6 < 0.10

    def test_scaling_monotonicity(self):
        counts = [build_graph(v).count_params() for v in "nsmlx"]
        assert counts[0] < counts[1] < counts[2] <= counts[3] < counts[4]


class TestCountFlops:
    def test_bare_conv_closed_form(self):
        # One 3x3 conv, 1 channel in/out, 4x4 output, no bias, no bn:
        # 2 * 16 * 9 = 288 FLOPs.
        block = ConvBlock(spec=ConvSpec(1, 1, 3), bn=None, act="none")
        assert block.flops(4, 4) == 288

    def test_variant_budgets(self):
        n = build_graph("n").count_flops(640)
        s = build_graph("s").count_flops(640)
        assert abs(n - 6.5) / 6.5 < 0.15
        assert abs(s - 21.5) / 21.5 < 0.15

    # Parameters and GFLOPs at 320 and 640 of each variant. Every count is an
    # integer below 2**53, so the float sums are exact and compared with ==.
    PINNED_COUNTS = {
        "n": (2624064, 1.6456976, 6.6303104),
        "s": (9458736, 5.4151984, 21.7558336),
        "m": (20114672, 17.0900656, 68.4553024),
        "l": (25372144, 21.8553104, 87.6113216),
        "x": (56966160, 48.9175728, 195.9554112),
    }

    @pytest.mark.parametrize("variant", sorted(PINNED_COUNTS))
    def test_counts_pinned(self, variant):
        g = build_graph(variant)
        params, gflops_320, gflops_640 = self.PINNED_COUNTS[variant]
        assert g.count_params() == params
        assert g.count_flops(320) == gflops_320
        assert g.count_flops(640) == gflops_640

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            build_graph("n").count_flops(100)

    def test_layer_summary_rejects_indivisible_size(self):
        # At 100 the 2x-upsampled 4x4 P5 map would be concatenated with the
        # 7x7 P4 map; the summary must refuse the size as forward does.
        with pytest.raises(ValueError, match="divisible"):
            build_graph("n").layer_summary(100)

    def test_layer_summary_totals_match(self):
        g = build_graph("n")
        rows = g.layer_summary(640)
        assert sum(r["params"] for r in rows) == g.count_params()
        head = rows[-1]
        assert head["kind"] == "DetectHead"
        assert head["output_shape"][1] == 144


class TestWalkReferences:
    """The shared layer walker against one independent loop per purpose."""

    @pytest.mark.parametrize("size", [320, 640])
    @pytest.mark.parametrize("variant", list("nsmlx"))
    def test_flops_and_shapes_match_reference(self, variant, size):
        g = build_graph(variant)
        # Exact: per-layer FLOPs must sum to count_flops with ==.
        assert g.count_flops(size) == count_flops_reference(g, size)
        shapes = [tuple(r["output_shape"]) for r in g.layer_summary(size)]
        assert shapes == [(1, *s) for s in walk_shapes_reference(g, size)]

    @pytest.mark.parametrize("variant,size", [("n", 64), ("n", 96), ("s", 64)])
    def test_forward_matches_reference_bitwise(self, variant, size):
        rng = np.random.default_rng(9)
        g = randomize_bn(build_graph(variant).init_random(8), rng)
        x = random_tensor(rng, 1, 3, size, size)
        want, shapes = forward_reference(g, x)
        got = g.forward(x)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)
        assert shapes == [tuple(r["output_shape"]) for r in g.layer_summary(size)]

    @pytest.mark.parametrize(
        "variant,size", [("n", 64), ("s", 64), ("m", 64), ("l", 64), ("x", 64), ("n", 320)]
    )
    def test_folded_heads_match_unfused_reference(self, variant, size, monkeypatch):
        rng = np.random.default_rng(10)
        g = randomize_bn(build_graph(variant).init_random(11), rng)
        x = random_tensor(rng, 1, 3, size, size)
        got = g.forward(x)
        monkeypatch.setattr(ConvBlock, "forward", conv_block_forward_unfused)
        monkeypatch.setattr(ConvBlock, "__call__", conv_block_forward_unfused)
        want = g.forward(x)
        for a, b in zip(got, want):
            assert np.all(np.abs(a.data - b.data) <= 1e-4 * (1 + np.abs(b.data)))


class TestInitRandom:
    @pytest.mark.parametrize("variant", ["n", "s"])
    def test_matches_per_leaf_reference_bytewise(self, variant):
        got = build_graph(variant).init_random(3).state_entries()
        want = init_random_reference(build_graph(variant), 3).state_entries()
        assert [(n, a.tobytes()) for n, a in got] == [(n, a.tobytes()) for n, a in want]

    def test_same_seed_bitwise(self):
        a = build_graph("n").init_random(42)
        b = build_graph("n").init_random(42)
        for (na, ea), (nb, eb) in zip(a.state_entries(), b.state_entries()):
            assert na == nb
            assert np.array_equal(ea, eb)

    def test_different_seeds_differ(self):
        a = build_graph("n").init_random(1)
        b = build_graph("n").init_random(2)
        assert any(
            not np.array_equal(ea, eb)
            for (_, ea), (_, eb) in zip(a.state_entries(), b.state_entries())
        )

    def test_gamma_ones_after_init(self):
        g = build_graph("n").init_random(0)
        gammas = [arr for name, arr in g.state_entries() if name.endswith(".gamma")]
        assert gammas and all(np.all(arr == 1.0) for arr in gammas)

    def test_weights_within_he_bound(self):
        g = build_graph("n").init_random(0)
        for path, leaf in g.named_leaf_blocks():
            spec = leaf.spec
            fan_in = (spec.in_channels // spec.groups) * spec.kernel**2
            bound = np.sqrt(6.0 / fan_in) * (1 + 1e-6)
            assert np.all(np.abs(spec.weight) <= bound), path

    def test_drawn_weights_are_loaded_uncopied(self):
        # The weights are drawn frozen, so load_state keeps them as they are:
        # a copy of each would double the peak (about 20 MiB for n).
        g = build_graph("n")
        weight_bytes = sum(arr.nbytes for name, arr in g.state_entries()
                           if name.endswith(".weight"))
        tracemalloc.start()
        try:
            g.init_random(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * weight_bytes

    def test_only_weights_are_drawn(self):
        # Biases and batch-norm entries are the zero-stride placeholders a
        # fresh graph holds, not arrays of their own.
        ones = ("gamma", "var")
        for name, arr in build_graph("n").init_random(0).state_entries():
            suffix = name.rsplit(".", 1)[1]
            if suffix == "weight":
                continue
            assert arr.strides == (0,) * arr.ndim, name
            assert np.all(arr == (1.0 if suffix in ones else 0.0)), name


class TestLoadState:
    def test_roundtrip_preserves_forward_bitwise(self):
        g = build_graph("n", num_classes=4).init_random(7)
        rng = np.random.default_rng(8)
        x = random_tensor(rng, 1, 3, 64, 64)
        before = g.forward(x)
        entries = [(name, arr.copy()) for name, arr in g.state_entries()]
        g2 = build_graph("n", num_classes=4).load_state(entries)
        after = g2.forward(x)
        for t1, t2 in zip(before, after):
            assert np.array_equal(t1.data, t2.data)

    def test_missing_entry_named(self):
        g = build_graph("n")
        entries = g.state_entries()[:-1]
        dropped = g.state_entries()[-1][0]
        with pytest.raises(ValueError, match=dropped.replace(".", r"\.")):
            build_graph("n").load_state(entries)

    def test_extra_entry_named(self):
        entries = build_graph("n").state_entries()
        entries.append(("layer99.bogus.weight", np.zeros(3, dtype=np.float32)))
        with pytest.raises(ValueError, match="layer99.bogus.weight"):
            build_graph("n").load_state(entries)

    def test_dim_mismatch_reports_both_shapes(self):
        entries = build_graph("n").state_entries()
        name0 = entries[0][0]
        entries[0] = (name0, np.zeros((1, 2, 3), dtype=np.float32))
        with pytest.raises(ValueError) as err:
            build_graph("n").load_state(entries)
        message = str(err.value)
        assert name0 in message and "(1, 2, 3)" in message

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_running_variance_named(self, bad):
        entries = build_graph("n").state_entries()
        i = next(i for i, (name, _) in enumerate(entries) if name == "layer0.var")
        var = entries[i][1].copy()
        var[3] = bad
        entries[i] = ("layer0.var", var)
        with pytest.raises(ValueError, match=r"layer0\.var.*variance"):
            build_graph("n").load_state(entries)
        leaf = build_graph("n").blocks[0]
        with pytest.raises(ValueError, match="variance"):
            leaf.set_entry("var", var)
        assert np.all(leaf.bn.var == 1.0)

    @pytest.mark.parametrize("name", ["layer5.var", "layer23.cls2.4.bias"])
    def test_rejected_state_changes_nothing(self, name):
        # A negative variance, or a bias of the wrong shape, comes after
        # entries that differ from the graph's own; none of them may be set.
        g = build_graph("n").init_random(1)
        before = [(n, arr.tobytes()) for n, arr in g.state_entries()]
        entries = build_graph("n").init_random(2).state_entries()
        i = next(i for i, (n, _) in enumerate(entries) if n == name)
        if name.endswith(".var"):
            entries[i] = (name, np.full_like(entries[i][1], -1.0))
        else:
            entries[i] = (name, np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match=name.replace(".", r"\.")):
            g.load_state(entries)
        assert [(n, arr.tobytes()) for n, arr in g.state_entries()] == before

    def test_duplicate_entry_rejected(self):
        entries = build_graph("n").state_entries()
        entries.append(entries[0])
        with pytest.raises(ValueError, match="duplicate"):
            build_graph("n").load_state(entries)

    @pytest.mark.parametrize("store", ["set_entry", "load_state"])
    def test_caller_edits_after_storing_change_nothing(self, store):
        g = build_graph("n").init_random(1)
        x = random_tensor(np.random.default_rng(2), 1, 3, 64, 64)
        before = g.forward(x)
        g = build_graph("n").init_random(1)
        weight = g.blocks[0].spec.weight.copy()
        if store == "set_entry":
            g.blocks[0].set_entry("weight", weight)
        else:
            g.load_state([(name, weight if name == "layer0.weight" else arr)
                          for name, arr in g.state_entries()])
        weight[...] = 0.0
        for t1, t2 in zip(before, g.forward(x)):
            assert np.array_equal(t1.data, t2.data)


class TestLeafNames:
    @pytest.mark.parametrize("variant", ["n", "s"])
    def test_each_leaf_is_named_by_its_entries_prefix(self, variant):
        g = build_graph(variant)
        names = [name for name, _ in g.state_entries()]
        leaves = g.named_leaf_blocks()
        for path, leaf in leaves:
            assert leaf.name == path
            assert [n for n in names if n.startswith(f"{path}.")] == [
                f"{path}.{suffix}" for suffix, _ in leaf.entries()]
        assert sum(len(list(leaf.entries())) for _, leaf in leaves) == len(names)

    def test_leaves_are_walked_once_per_build(self, monkeypatch):
        from y11 import graph as graph_module

        walks = []
        real = graph_module.iter_leaf_blocks

        def counting(block, prefix=""):
            walks.append(prefix)
            return real(block, prefix)

        monkeypatch.setattr(graph_module, "iter_leaf_blocks", counting)
        g = build_graph("n")
        assert walks == [f"layer{i}" for i, b in enumerate(g.blocks) if b is not None]
        walks.clear()
        g.init_random(0).load_state(g.state_entries())
        g.forward(random_tensor(np.random.default_rng(0), 1, 3, 64, 64))
        assert walks == []

    def test_graph_leaf_names_its_bad_variance(self):
        leaf = build_graph("n").blocks[0]
        with pytest.raises(ValueError) as err:
            leaf.set_entry("var", np.full(leaf.out_channels, -1.0, dtype=np.float32))
        assert str(err.value) == (
            "entry 'layer0.var': running variance must be finite and non-negative")


class TestNonFiniteWeights:
    @pytest.mark.parametrize("name, value", [("layer23.box0.2.bias", np.nan),
                                             ("layer0.weight", np.inf)])
    def test_forward_names_the_leaf(self, name, value):
        graph = build_graph("n").init_random(3)
        good = [(n, a.copy()) for n, a in graph.state_entries()]
        graph.load_state([(n, np.full_like(a, value) if n == name else a) for n, a in good])
        x = random_tensor(np.random.default_rng(4), 1, 3, 64, 64)
        leaf = name.rsplit(".", 1)[0]
        with pytest.raises(ValueError, match=rf"^{re.escape(leaf)}: weights fold to a non-finite"):
            graph.forward(x)
        # the refused fold is not cached: a good state runs again
        graph.load_state(good)
        assert all(np.isfinite(t.data).all() for t in graph.forward(x))

    def test_fold_check_runs_once_per_load(self, monkeypatch):
        graph = build_graph("n").init_random(3)
        x = random_tensor(np.random.default_rng(4), 1, 3, 64, 64)
        graph.forward(x)
        calls = []
        monkeypatch.setattr(ConvBlock, "_fold", lambda self: calls.append(self))
        graph.forward(x)
        assert calls == []


class TestDetectHead:
    def test_head_channel_arithmetic(self):
        head = DetectHead([64, 128, 256], num_classes=80, reg_max=16)
        assert head.out_channels == 144

    def test_three_scales_required(self):
        with pytest.raises(ValueError, match="^head expects three input scales, got 2$"):
            DetectHead([64, 128], num_classes=80, reg_max=16)

    def test_head_param_count_matches_hand_formula(self):
        # Variant-n head: box branch width 64, class branch width 80.
        head = DetectHead([64, 128, 256], num_classes=80, reg_max=16)
        total = leaf_param_count(head)
        expect = 0
        for c in (64, 128, 256):
            expect += c * 64 * 9 + 2 * 64          # box conv 1
            expect += 64 * 64 * 9 + 2 * 64         # box conv 2
            expect += 64 * 64 + 64                 # box head 1x1 + bias
            expect += 9 * c + 2 * c                # cls depthwise 3x3
            expect += c * 80 + 2 * 80              # cls pointwise
            expect += 9 * 80 + 2 * 80              # cls depthwise on 80
            expect += 80 * 80 + 2 * 80             # cls pointwise on 80
            expect += 80 * 80 + 80                 # cls head 1x1 + bias
        assert total == expect == 464896
