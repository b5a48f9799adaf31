"""Property tests: each input parser either succeeds or raises only its own error.

The inputs are arbitrary or lightly structured: image headers, manifest
text, JSON-like run configs, and truncated or byte-flipped checkpoints. The
runs are derandomized, so every run checks the same examples.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from llanet.config import ConfigError, DEFAULTS, load_run_config
from llanet.data import MANIFEST_FIELDS, ImageFormatError, ManifestError, parse_image, parse_manifest
from llanet.network import CheckpointError, init_network, load_checkpoint, preset, save_checkpoint


# a small alphabet with the characters that matter to CSV and JSON, plus a few
# awkward ones; st.text's default alphabet costs about 1.5 s to set up
ALPHABET = "ab01-9 ,\"\r\n\t#.=\x00\u00e9\u2028\ufeff"


def text(max_size):
    return st.text(ALPHABET, max_size=max_size)


def fuzz(examples):
    """Derandomized settings for ``examples`` cases, with no example database."""
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


def accepted_or(error, parse, *args):
    """Run ``parse``; any exception other than ``error`` fails the test."""
    try:
        parse(*args)
    except error:
        pass


# -- images ------------------------------------------------------------------------

header_tokens = st.lists(st.one_of(st.sampled_from([b"0", b"1", b"2", b"255", b"65535", b"-1",
                                                    b"a", b"#c", b"99999999"]),
                                   st.binary(max_size=3)), max_size=5)
separators = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"#x\n", b""])


@st.composite
def image_bytes(draw):
    magic = draw(st.sampled_from([b"P5", b"P6", b"P3", b""]))
    parts = [magic]
    for token in draw(header_tokens):
        parts += [draw(separators), token]
    parts.append(draw(separators))
    return b"".join(parts) + draw(st.binary(max_size=16))


@fuzz(250)
@given(data=st.one_of(image_bytes(), st.binary(max_size=32)))
def test_parse_image_raises_only_image_format_errors(data):
    accepted_or(ImageFormatError, parse_image, data)


# -- manifests ---------------------------------------------------------------------

fields = st.one_of(st.sampled_from(["s1", "0", "1", "-1", "6", "7", "x", "a.ppm", "primary",
                                    "external_a", "webcam", '"', '"q,\n"', "\r", " 2 ", ""]),
                   text(4))


@st.composite
def manifest_text(draw):
    header = ",".join(MANIFEST_FIELDS) if draw(st.booleans()) else draw(text(12))
    rows = draw(st.lists(st.lists(fields, min_size=3, max_size=6), max_size=4))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join([header] + [",".join(row) for row in rows])


@fuzz(150)
@given(raw=st.one_of(manifest_text(), text(40)))
def test_parse_manifest_raises_only_manifest_errors(raw):
    accepted_or(ManifestError, parse_manifest, raw)


# -- run configs -------------------------------------------------------------------

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 300), st.floats(),
                    st.sampled_from(["tiny", "micro", "resnet18", "learned", "off", "train.csv"]),
                    text(3))
json_values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(text(3), inner, max_size=3)),
    max_leaves=8)


def section(keys):
    return st.dictionaries(st.sampled_from(sorted(keys) + ["typo"]), json_values, max_size=4)


data_keys = set(DEFAULTS["data"]) | {"train_manifest", "val_manifest", "eval_crop"}
run_configs = st.fixed_dictionaries({}, optional={
    "seed": json_values,
    "network": st.one_of(section(DEFAULTS["network"]), json_values),
    "train": st.one_of(section(DEFAULTS["train"]), json_values),
    "data": st.one_of(section(data_keys), json_values),
    "extra": json_values,
})


@fuzz(100)
@given(doc=st.one_of(run_configs, st.dictionaries(text(3), json_values, max_size=3)))
def test_load_run_config_raises_only_config_errors(doc):
    accepted_or(ConfigError, load_run_config, doc, ".", {})


# -- checkpoints -------------------------------------------------------------------

MICRO = preset("micro")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A micro checkpoint's bytes, and a path to write damaged copies to."""
    path = tmp_path_factory.mktemp("ckpt") / "micro.ckpt"
    save_checkpoint(path, init_network(MICRO), MICRO)
    return path.read_bytes(), path.with_name("damaged.ckpt")


@st.composite
def damaged(draw, size):
    """A truncation length, or a list of (offset, xor mask) byte flips."""
    if draw(st.booleans()):
        return draw(st.integers(0, size - 1))
    return draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                         min_size=1, max_size=3))


@fuzz(150)
@given(data=st.data())
def test_load_checkpoint_raises_only_checkpoint_errors(checkpoint, data):
    intact, path = checkpoint
    damage = data.draw(damaged(len(intact)))
    if isinstance(damage, int):
        raw = intact[:damage]
    else:
        raw = bytearray(intact)
        for offset, mask in damage:
            raw[offset] ^= mask
    path.write_bytes(raw)
    accepted_or(CheckpointError, load_checkpoint, path, init_network(MICRO), MICRO)

