"""Backbone assembly: shapes, parameter counts, stream threading, checkpoints."""

import dataclasses
import hashlib
import platform
import resource

import numpy as np
import numpy.testing as npt
import pytest

from llanet import tensor
from llanet.autodiff import GradGraph, Param
from llanet.network import (CheckpointError, NetworkConfig, ParamStore, StageSpec,
                            config_digest, count_parameters, feature_shape, init_network,
                            load_checkpoint, module_plan, network_forward,
                            network_forward_graph, network_modules_graph, preset,
                            save_checkpoint)
from llanet.verify import network_gradcheck


def batch_for(cfg, n=2, seed=0):
    rng = np.random.default_rng(seed)
    c, h, w = cfg.input_shape
    return rng.standard_normal((n, c, h, w))


def conv_params(in_ch, out_ch, k):
    return in_ch * out_ch * k * k  # backbone convolutions carry no bias


def bn_params(ch):
    return 2 * ch  # gamma + beta (running stats are not trainable)


def gate_params(ch, k=3):
    return ch * (2 * ch) * k * k + ch


def expected_trainable(cfg: NetworkConfig) -> int:
    """Recount the trainable parameters from the layer plan with plain arithmetic."""
    total = conv_params(cfg.input_shape[0], cfg.stem_channels, cfg.stem_kernel)
    total += bn_params(cfg.stem_channels)
    for m in module_plan(cfg):
        total += conv_params(m.in_channels, m.out_channels, 3) + bn_params(m.out_channels)
        total += conv_params(m.out_channels, m.out_channels, 3) + bn_params(m.out_channels)
        if m.projected:
            total += conv_params(m.in_channels, m.out_channels, 1) + bn_params(m.out_channels)
            total += conv_params(m.in_channels, m.out_channels, 1)  # f_pre alignment
        if cfg.attention == "learned":
            total += gate_params(m.out_channels, cfg.attention_kernel)
    feat = module_plan(cfg)[-1].out_channels
    return total + feat * cfg.num_classes + cfg.num_classes


def test_logits_shape_and_finiteness():
    for name in ("micro", "tiny"):
        cfg = preset(name)
        store = init_network(cfg)
        logits = network_forward(batch_for(cfg, n=3), store, cfg)
        assert logits.shape == (3, 7)
        assert np.all(np.isfinite(logits))


def test_init_is_deterministic():
    cfg = preset("tiny", seed=11)
    a, b = init_network(cfg), init_network(cfg)
    assert a.names() == b.names()
    for name in a.names():
        npt.assert_array_equal(a[name].value, b[name].value)


# SHA-256 of the seed-0 store of each preset and attention mode: pins every
# entry's name, flags and shape, the order entries are created in, and the
# values drawn for them.
INIT_DIGESTS = {
    ("micro", "learned"): "6ab338be7a4f1fcb0ae27159d13ac8830318cefcaca68a614f49336847092988",
    ("micro", "frozen"): "b4fa33f93e19d2f2005525e62c3548dfe9961c1974389968d1504b6aed5b9319",
    ("micro", "off"): "7817c963d11442bfc9cdc95c3c3b27e9ae3190b613baf3b2617be4fb9b7de408",
    ("tiny", "learned"): "67e9b8fadd559538b8bd0c366b8ecc501c7a54d215a8fd819fcda5dae5edb507",
    ("tiny", "frozen"): "bd2fc7e9705f52b7b548b03404607c3417dec6e27c8178a1431fed6978f20e0e",
    ("tiny", "off"): "8b480039ab87d40437478315a72e7e6e1caf7f556d6bbcecf3805eb49f7a852e",
    ("resnet18", "learned"): "46be7b4364715f704b779caf6842ef9b9fe8516ec38f7cd4f35de87c7c88a304",
    ("resnet18", "frozen"): "c5672d45a965c678221570bbde52b9315ee0ca801544988d84b3e8895972d222",
    ("resnet18", "off"): "8a27bbcd733b480d3157b95c3d40e1927c030a82d6f1fac587891da2f478b488",
}


def store_digest(store) -> str:
    h = hashlib.sha256()
    for p in store:
        h.update(p.name.encode() + b"\0")
        h.update(bytes([p.trainable, p.decay_exempt, p.value.ndim]))
        h.update(np.asarray(p.value.shape, dtype="<u4").tobytes())
        h.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,mode", list(INIT_DIGESTS))
def test_init_matches_its_golden_digest(name, mode):
    assert store_digest(init_network(preset(name, attention=mode))) == INIT_DIGESTS[name, mode]


def test_seed_changes_weights():
    a = init_network(preset("tiny", seed=0))
    b = init_network(preset("tiny", seed=1))
    assert np.any(a["stem.conv.weight"].value != b["stem.conv.weight"].value)


def test_tiny_parameter_count_by_hand():
    cfg = preset("tiny")
    store = init_network(cfg)
    # stem: 3*8*9 + 16 = 232
    # s0b0 (8->8):  576+16+576+16 + gate 8*16*9+8=1160           -> 2344
    # s1b0 (8->16): 1152+32+2304+32 + 128+32 + 128 + gate 4624   -> 8432
    # head: 16*7+7 = 119
    assert count_parameters(store) == 232 + 2344 + 8432 + 119 == 11127
    assert count_parameters(store) == expected_trainable(cfg)


def test_full_size_preset_layout():
    cfg = preset("resnet18")
    assert feature_shape(cfg) == (512, 14, 14)
    assert count_parameters(init_network(cfg)) == expected_trainable(cfg)


def test_attention_off_removes_gate_parameters():
    on = count_parameters(init_network(preset("tiny", attention="learned")))
    off = count_parameters(init_network(preset("tiny", attention="off")))
    assert on - off == gate_params(8) + gate_params(16)


def test_frozen_gates_are_excluded_from_trainables():
    store = init_network(preset("tiny", attention="frozen"))
    assert "s0b0.attn.weight" in store
    assert not store["s0b0.attn.weight"].trainable
    trainable_names = {p.name for p in store.trainable()}
    assert not any(".attn." in n for n in trainable_names)


def test_previous_stream_threads_through_modules(module_spy):
    cfg = preset("tiny")
    store = init_network(cfg)
    g = GradGraph()
    network_forward_graph(g, batch_for(cfg), store, cfg, train=False)
    modules = module_spy.modules
    assert modules[0].f_in is module_spy.stem
    for prev, cur in zip(modules, modules[1:]):
        assert cur.f_in is prev.refined


def test_module_plan_is_built_once_per_config_and_immutable():
    plan = module_plan(preset("tiny"))
    assert module_plan(preset("tiny")) is plan  # an equal config hits the same plan
    assert isinstance(plan, tuple) and module_plan(preset("tiny", seed=1)) is not plan
    with pytest.raises(TypeError):
        plan[0].layers["gate"] = plan[1].layers["gate"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan[0].layers = {}


def test_alignment_only_when_shape_changes(module_spy):
    cfg = preset("tiny")
    plan = module_plan(cfg)
    assert [m.projected for m in plan] == [False, True]
    store = init_network(cfg)
    assert "s1b0.align.weight" in store and "s0b0.align.weight" not in store

    g = GradGraph()
    network_forward_graph(g, batch_for(cfg), store, cfg, train=False)
    m0, m1 = module_spy.modules
    # identity module: f_pre is literally the module's input node
    assert m0.f_pre is m0.f_in
    # projected module: f_pre is a new node with the block's output shape
    assert m1.f_pre is not m1.f_in
    assert m1.f_pre.value.shape == m1.f_cur.value.shape


def test_mask_shape_tracks_each_stage():
    cfg = preset("tiny")
    store = init_network(cfg)
    g = GradGraph()
    (refined0, mask0), (refined1, mask1) = network_modules_graph(g, batch_for(cfg), store, cfg,
                                                                 train=False)
    assert mask0.value.shape == (2, 8, 32, 32)
    # stage boundary halves the spatial dims and doubles the channels
    assert mask1.value.shape == (2, 16, 16, 16)
    for refined, mask in ((refined0, mask0), (refined1, mask1)):
        assert refined.value.shape == mask.value.shape
        assert np.all((mask.value > 0) & (mask.value < 1))


def test_eval_forward_is_pure():
    cfg = preset("tiny")
    store = init_network(cfg)
    x = batch_for(cfg)
    before = store["s0b0.bn1.running_mean"].value.copy()
    first = network_forward(x, store, cfg)
    npt.assert_array_equal(store["s0b0.bn1.running_mean"].value, before)
    npt.assert_array_equal(network_forward(x, store, cfg), first)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set through glibc mallopt")
def test_eval_forwards_take_their_memory_from_the_process_heap():
    # One ten-crop image of the tiny preset. With freed memory handed back to
    # the OS, each forward page-faults its outputs in again: 700 to 1,400
    # minor faults a forward under glibc's default policy. Kept in the heap,
    # ten warmed-up forwards take a handful.
    cfg = preset("tiny", seed=0)
    store = init_network(cfg)
    x = np.random.default_rng(0).standard_normal((10, 3, 28, 28))
    network_forward(x, store, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        network_forward(x, store, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 300, f"{faults} minor page faults over ten warmed-up forwards"
    assert tensor._keep_freed_heap()  # both mallopt calls take on glibc


def test_train_forward_updates_running_stats():
    cfg = preset("tiny")
    store = init_network(cfg)
    before = store["stem.bn.running_mean"].value.copy()
    network_forward_graph(GradGraph(), batch_for(cfg), store, cfg, train=True)
    assert np.any(store["stem.bn.running_mean"].value != before)


def test_attention_ablation_changes_logits():
    base = preset("tiny", attention="off")
    gated = preset("tiny", attention="learned")
    s_base, s_gated = init_network(base), init_network(gated)
    # backbone weights drawn identically up to the first gate; stem certainly matches
    npt.assert_array_equal(s_base["stem.conv.weight"].value, s_gated["stem.conv.weight"].value)
    x = batch_for(base)
    assert np.max(np.abs(network_forward(x, s_base, base) -
                         network_forward(x, s_gated, gated))) > 1e-8


def test_frozen_attention_halves_block_outputs(module_spy):
    cfg = preset("tiny", attention="frozen")
    store = init_network(cfg)
    g = GradGraph()
    network_forward_graph(g, batch_for(cfg), store, cfg, train=False)
    assert len(module_spy.modules) == 2
    for mod in module_spy.modules:
        npt.assert_array_equal(mod.mask.value, np.full_like(mod.mask.value, 0.5))
        npt.assert_allclose(mod.refined.value, 0.5 * mod.f_cur.value, atol=1e-15)


def test_off_mode_passes_block_output_through(module_spy):
    cfg = preset("tiny", attention="off")
    store = init_network(cfg)
    g = GradGraph()
    network_forward_graph(g, batch_for(cfg), store, cfg, train=False)
    assert len(module_spy.modules) == 2
    for mod in module_spy.modules:
        assert mod.mask is None
        assert mod.refined is mod.f_cur


def test_variable_input_resolution():
    # evaluation crops are smaller than the nominal training size
    cfg = preset("tiny")
    store = init_network(cfg)
    logits = network_forward(np.zeros((1, 3, 28, 28)), store, cfg)
    assert logits.shape == (1, 7)
    with pytest.raises(ValueError):
        network_forward(np.zeros((1, 4, 32, 32)), store, cfg)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = preset("tiny", seed=5)
    store = init_network(cfg)
    # move the running stats off their init values
    network_forward_graph(GradGraph(), batch_for(cfg), store, cfg, train=True)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, cfg)

    fresh = init_network(cfg)
    fresh["stem.conv.weight"].value[...] = 0.0
    load_checkpoint(path, fresh, cfg)
    for p in store:
        npt.assert_array_equal(fresh[p.name].value, p.value)
        assert fresh[p.name].trainable == p.trainable
        assert fresh[p.name].decay_exempt == p.decay_exempt


def test_checkpoint_load_keeps_running_stat_views_alive(tmp_path):
    cfg = preset("micro")
    store = init_network(cfg)
    network_forward_graph(GradGraph(), batch_for(cfg), store, cfg, train=True)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, cfg)

    fresh = init_network(cfg)
    view = fresh["stem.bn.running_mean"].value  # grabbed before the load
    load_checkpoint(path, fresh, cfg)
    npt.assert_array_equal(view, store["stem.bn.running_mean"].value)


def test_checkpoint_rejects_other_architectures(tmp_path):
    cfg = preset("tiny")
    store = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, cfg)
    other = preset("tiny", attention="off")
    with pytest.raises(CheckpointError, match="different network configuration"):
        load_checkpoint(path, init_network(other), other)


def test_checkpoint_checks_the_inventory_under_a_matching_digest(tmp_path):
    # each file carries cfg's digest but a store that differs from cfg's in its last entry
    cfg = preset("micro")
    params = list(init_network(cfg))
    last = params[-1]
    crafted = {
        "checkpoint has .* parameters, store has": params[:-1],
        "unknown parameter 'head.extra'": params[:-1] + [Param("head.extra", last.value)],
        f"parameter '{last.name}' has shape":
            params[:-1] + [Param(last.name, np.append(last.value, 0.0))],
    }
    for message, entries in crafted.items():
        store = ParamStore()
        for param in entries:
            store.add(param)
        save_checkpoint(tmp_path / "crafted.ckpt", store, cfg)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / "crafted.ckpt", init_network(cfg), cfg)


def test_checkpoint_rejects_truncation_and_garbage(tmp_path):
    cfg = preset("micro")
    store = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, cfg)
    data = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "cut.ckpt", init_network(cfg), cfg)
    (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint at all\n" + data)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "junk.ckpt", init_network(cfg), cfg)


def test_checkpoint_rejects_a_repeated_entry_and_trailing_bytes(tmp_path):
    cfg = preset("micro")
    store = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, cfg)
    data = path.read_bytes()
    params = list(store)

    def entry_bytes(p):  # name length, name, flags, ndim, dims, float64 data
        return 2 + len(p.name.encode()) + 2 + 4 * p.value.ndim + 8 * p.value.size

    header = len(data) - sum(entry_bytes(p) for p in params)
    first = data[header:header + entry_bytes(params[0])]
    # the last entry (head.bias) replaced by a second copy of the first: same count
    (tmp_path / "twice.ckpt").write_bytes(data[:len(data) - entry_bytes(params[-1])] + first)
    (tmp_path / "tail.ckpt").write_bytes(data + bytes(8))
    for name, message in (("twice.ckpt", "stored twice"), ("tail.ckpt", "trailing bytes")):
        fresh = init_network(preset("micro", seed=1))
        before = {p.name: p.value.copy() for p in fresh}
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / name, fresh, cfg)
        for p in fresh:  # a rejected file writes nothing into the store
            npt.assert_array_equal(p.value, before[p.name])


def test_checkpoint_checks_an_entry_shape_before_reading_its_data(tmp_path):
    cfg = preset("micro")
    store = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, cfg)
    data = path.read_bytes()
    first = next(iter(store))
    assert first.name == "stem.conv.weight" and first.value.ndim == 4
    header = len(data) - sum(2 + len(p.name.encode()) + 2 + 4 * p.value.ndim + 8 * p.value.size
                             for p in store)
    dims = header + 2 + len(first.name.encode()) + 2  # after name length, name, flags, ndim
    # a 4 GiB read, a size that wraps to 0, and dims whose byte count wraps negative
    for shape in ((1 << 20, 512, 1, 1), (1 << 31, 1 << 31, 4, 1), (0xFFFFFFFF,) * 4):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:dims] + np.asarray(shape, dtype="<u4").tobytes() + data[dims + 16:])
        fresh = init_network(preset("micro", seed=1))
        before = {p.name: p.value.copy() for p in fresh}
        with pytest.raises(CheckpointError, match=r"'stem.conv.weight' has shape .*, expected"):
            load_checkpoint(bad, fresh, cfg)
        for p in fresh:
            npt.assert_array_equal(p.value, before[p.name])


def test_checkpoint_names_an_entry_name_that_is_not_utf8(tmp_path):
    cfg = preset("micro")
    store = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, cfg)
    data = bytearray(path.read_bytes())
    header = len(data) - sum(2 + len(p.name.encode()) + 2 + 4 * p.value.ndim + 8 * p.value.size
                             for p in store)
    assert data[header + 2:header + 4] == b"st"  # the first byte of "stem.conv.weight"
    data[header + 2] = 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    fresh = init_network(preset("micro", seed=1))
    before = {p.name: p.value.copy() for p in fresh}
    with pytest.raises(CheckpointError, match=r"bad\.ckpt: the name of entry 0 is not UTF-8$"):
        load_checkpoint(bad, fresh, cfg)
    for p in fresh:
        npt.assert_array_equal(p.value, before[p.name])


def test_checkpoint_reruns_identical_bytes(tmp_path):
    cfg = preset("micro", seed=2)
    store = init_network(cfg)
    save_checkpoint(tmp_path / "a.ckpt", store, cfg)
    save_checkpoint(tmp_path / "b.ckpt", store, cfg)
    ha = hashlib.sha256((tmp_path / "a.ckpt").read_bytes()).hexdigest()
    hb = hashlib.sha256((tmp_path / "b.ckpt").read_bytes()).hexdigest()
    assert ha == hb


def test_interrupted_checkpoint_save_keeps_the_previous_file(tmp_path):
    cfg = preset("micro", seed=2)
    store = init_network(cfg)
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, store, cfg)
    saved = path.read_bytes()
    # a name that cannot be encoded fails the save after every other entry is written
    store.add(Param("\udcff", np.zeros(1)))
    with pytest.raises(UnicodeEncodeError):
        save_checkpoint(path, store, cfg)
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


def test_config_digest_tracks_every_field():
    base = preset("tiny")
    assert config_digest(base) == config_digest(preset("tiny"))
    for variant in (preset("tiny", seed=1), preset("tiny", attention="off"),
                    preset("tiny", num_classes=5), preset("micro")):
        assert config_digest(variant) != config_digest(base)


def test_config_validation():
    with pytest.raises(ValueError):
        preset("huge")
    with pytest.raises(ValueError):
        preset("tiny", attention="sometimes")
    with pytest.raises(ValueError):
        NetworkConfig(input_shape=(3, 8, 8), stem_channels=4,
                      stages=(StageSpec(1, 4, 1),), attention_kernel=2)
    with pytest.raises(ValueError):
        NetworkConfig(input_shape=(3, 8, 8), stem_channels=4, stages=())


def test_end_to_end_gradient_check():
    _, report = network_gradcheck(seed=0, eps=1e-5)
    assert report.max_error < 1e-4
    assert report.checked > 100


def preset_conv_picks(name, monkeypatch):
    """(spec, input side, layout) of every conv in one eval forward of a preset
    at its own input size; the convs themselves are skipped."""
    cfg = preset(name)
    picks = []

    def spy(x, weight, bias, spec):
        n, c, h, w = tensor._conv_input_shape(x)  # a gate's pair: its channels summed
        assert c == spec.in_channels
        oh, ow = tensor.conv_output_hw(spec, h, w)
        picks.append((spec, h, "taps" if tensor._on_taps(spec, oh, ow) else "im2col"))
        return np.zeros((n, spec.out_channels, oh, ow))

    monkeypatch.setattr(tensor, "conv2d", spy)
    network_forward(batch_for(cfg, n=1), init_network(cfg), cfg)
    return picks


def test_every_preset_conv_has_its_pinned_layout(monkeypatch):
    tiny = preset_conv_picks("tiny", monkeypatch)  # 32 px
    assert [pick for _, _, pick in tiny] == [
        "taps" if spec.stride == 1 and spec.kernel_h == 3 else "im2col" for spec, _, _ in tiny]
    # resnet18 at 112 px: stride-1 3x3 convs on taps in stages 0 and 1 (112
    # and 56 px); the 3-channel stem, stages 2 and 3 (28 and 14 px), stride-2
    # and 1x1 convs on im2col
    resnet = preset_conv_picks("resnet18", monkeypatch)
    assert [pick for _, _, pick in resnet] == [
        "taps" if spec.stride == 1 and spec.kernel_h == 3 and spec.in_channels > 3 and side >= 56
        else "im2col" for spec, side, _ in resnet]
    for picks in (tiny, resnet):
        assert {pick for _, _, pick in picks} == {"taps", "im2col"}
