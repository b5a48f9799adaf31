"""Shared fixtures: the synthetic image dataset and the imbalance fixture.

The imbalance fixture rebuilds the published rebalancing bookkeeping as an
explicit run partition: per-class run lengths are chosen so that the per-run
ceil(n/k) rule lands exactly on the published post-rebalancing counts.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from llanet import demo, network
from llanet.attention import attention_conv_spec
from llanet.autodiff import GradGraph
from llanet.data import DatasetManifest, SampleRecord
from llanet.network import Layer, ParamStore, _add_layer
from llanet.training import LoadedDataset, Normalization
from llanet.data import read_manifest

# class indices, named so the fixture arithmetic below stays readable
ANGER, DISGUST, FEAR, HAPPY, SAD, SURPRISE, NEUTRAL = range(7)

# per-class (label, list of run lengths) for the training split; single-run
# classes keep every frame (no k entry), multi-run classes are partitioned so
# the thinned totals match the published table exactly:
#   neutral 546039 = 545412 + 621*1 + 6  -> 45451 + 621 + 1 = 46073 kept at k=12
#   happy   171902 = 171476 + 426*1      -> 85738 + 426     = 86164 kept at k=2
IMBALANCE_RUNS = {
    ANGER: [25634],
    DISGUST: [11490],
    FEAR: [19279],
    HAPPY: [171476] + [1] * 426,
    SAD: [102934],
    SURPRISE: [43306],
    NEUTRAL: [545412] + [1] * 621 + [6],
}
IMBALANCE_K = {NEUTRAL: 12, HAPPY: 2}
IMBALANCE_QUOTAS = {ANGER: 24242, DISGUST: 5062, FEAR: 6192}
EXPECTED_AFTER = {ANGER: 49876, DISGUST: 16552, FEAR: 25471, HAPPY: 86164,
                  SAD: 102934, SURPRISE: 43306, NEUTRAL: 46073}
EXPECTED_TOTAL_AFTER = 370376


def make_gate(channels, kernel, rng, attention="learned", prefix="attn"):
    """One gate's ``(weight, bias, spec)``, made by the network's own layer init."""
    layer, store = Layer(prefix, "gate", attention_conv_spec(channels, kernel)), ParamStore()
    _add_layer(store, layer, rng, attention)
    weight, bias = store
    return weight, bias, layer.spec


def records_for_runs(label: int, run_lengths, tag: str):
    recs = []
    for ri, length in enumerate(run_lengths):
        seq = f"{tag}{label}r{ri}"
        recs.extend(
            SampleRecord(sequence_id=seq, frame_index=f, image_path="", label=label)
            for f in range(length))
    return recs


def build_imbalance_manifests():
    """(base, supplement) manifests realizing the published run partition."""
    base_records = []
    for label, runs in IMBALANCE_RUNS.items():
        base_records.extend(records_for_runs(label, runs, "b"))
    supp_records = []
    for label, quota in IMBALANCE_QUOTAS.items():
        supp_records.extend(
            SampleRecord(sequence_id=f"x{label}", frame_index=f, image_path="",
                         label=label, source="external_a")
            for f in range(quota))
    return DatasetManifest(base_records), DatasetManifest(supp_records)


@pytest.fixture(scope="session")
def demo_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    demo.write_demo_dataset(root, images_per_class=10, size=32, seed=7)
    return root


@pytest.fixture(scope="session")
def demo_dataset(demo_root):
    manifest = read_manifest(demo_root / "train.csv")
    return LoadedDataset.from_manifest(manifest, demo_root)


@pytest.fixture(scope="session")
def plain_norm():
    return Normalization(mean=(0.5, 0.5, 0.5), std=(0.5, 0.5, 0.5))


@pytest.fixture
def module_spy(monkeypatch):
    """Log the nodes of each combined module that the forwards run from now on.

    ``stem`` is the first ReLU output made, the stem's. Each entry of
    ``modules`` has ``f_in``, the module's input; ``f_cur``, the residual
    block's output (the module's last ReLU); ``f_pre``, the gate's other
    input (None when no gate runs); and the module's ``mask`` and output,
    ``refined``. The forward itself returns none of these.
    """
    log = SimpleNamespace(stem=None, modules=[], last_relu=None)
    relu, combined = GradGraph.relu, network._combined_module_graph
    gate = network.attention_forward_graph

    def spied_relu(graph, x):
        out = relu(graph, x)
        if log.stem is None:
            log.stem = out
        log.last_relu = out
        return out

    def spied_module(graph, f_in, *args):
        mod = SimpleNamespace(f_in=f_in, f_pre=None)
        log.modules.append(mod)
        mod.refined, mod.mask = out = combined(graph, f_in, *args)
        mod.f_cur = log.last_relu
        return out

    def spied_gate(graph, f_pre, *args):
        log.modules[-1].f_pre = f_pre
        return gate(graph, f_pre, *args)

    monkeypatch.setattr(GradGraph, "relu", spied_relu)
    monkeypatch.setattr(network, "_combined_module_graph", spied_module)
    monkeypatch.setattr(network, "attention_forward_graph", spied_gate)
    return log
