"""Manifests, sequence-aware rebalancing, and the image pipeline."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from llanet.data import (DatasetManifest, Image, ImageFormatError, LABEL_NAMES, ManifestError,
                         SampleRecord, augment_train, center_crop, crop, default_eval_crop,
                         format_image, format_manifest, hflip, merge_external, parse_image,
                         parse_manifest, read_manifest, rebalance, ten_crop, ten_crop_tensor,
                         to_tensor, undersample_sequences, write_manifest)

HEADER = "sequence_id,frame_index,image_path,label,source\n"


def rec(seq, frame, label, source="primary"):
    return SampleRecord(seq, frame, f"img/{seq}_{frame}.ppm", label, source)


def run_records(seq, label, length, start=0):
    return [rec(seq, start + i, label) for i in range(length)]


# -- manifest text -------------------------------------------------------------


def test_manifest_roundtrip():
    manifest = DatasetManifest(run_records("s1", 3, 4) + run_records("s2", 6, 2))
    again = parse_manifest(format_manifest(manifest))
    assert [r for r in again] == manifest.records


def test_manifest_file_roundtrip(tmp_path):
    manifest = DatasetManifest(run_records("s1", 0, 3))
    write_manifest(tmp_path / "m.csv", manifest)
    assert read_manifest(tmp_path / "m.csv").records == manifest.records


def test_manifest_header_required():
    with pytest.raises(ManifestError) as e:
        parse_manifest("a,b,c\n")
    assert e.value.line == 1
    with pytest.raises(ManifestError) as e:
        parse_manifest("")
    assert e.value.line == 1


def test_manifest_field_count_error_carries_line():
    text = HEADER + "s1,0,p.ppm,3,primary\ns1,1,p.ppm\n"
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert e.value.line == 3


def test_manifest_non_integer_fields():
    with pytest.raises(ManifestError) as e:
        parse_manifest(HEADER + "s1,zero,p.ppm,3,primary\n")
    assert e.value.line == 2


def test_manifest_label_out_of_range():
    with pytest.raises(ManifestError) as e:
        parse_manifest(HEADER + "s1,0,p.ppm,7,primary\n")
    assert e.value.line == 2


def test_manifest_unknown_source():
    with pytest.raises(ManifestError):
        parse_manifest(HEADER + "s1,0,p.ppm,3,webcam\n")


def test_manifest_duplicate_key_reports_both_lines():
    text = HEADER + "s1,0,a.ppm,3,primary\ns1,1,b.ppm,3,primary\ns1,0,c.ppm,3,primary\n"
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert e.value.line == 4 and "line 2" in str(e.value)


def test_manifest_errors_name_the_physical_line_after_a_multiline_field():
    # the quoted sequence id spans lines 2-3, so the bad label is on line 4
    text = HEADER + '"s1\nx",0,a.ppm,3,primary\ns1,1,b.ppm,9,primary\n'
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert e.value.line == 4 and "got 9" in str(e.value)
    with pytest.raises(ManifestError) as e:
        parse_manifest(text.replace("b.ppm,9", "b.ppm,3").replace("s1,1", '"s1\nx",0'))
    assert e.value.line == 4 and "first seen on line 2" in str(e.value)


@pytest.mark.parametrize("text, line", [
    (HEADER + "s1,0,a.ppm,3,primary\ns1,1,b\rc.ppm,3,primary\n", 3),
    (HEADER.rstrip("\n") + "\rs1,0,a.ppm,3,primary\r", 1),
    (HEADER + "s1,0," + "a" * 200_000 + ".ppm,3,primary\n", 2),
], ids=["cr_in_a_field", "cr_line_ends", "oversized_field"])
def test_manifest_csv_reader_errors_carry_line(text, line):
    # the CSV reader refuses a bare CR inside an unquoted field, or a field
    # over its size limit, with its own error class, which is no ValueError
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert e.value.line == line


def test_manifest_tolerates_blank_lines_and_spaces():
    text = HEADER + "\ns1, 0 ,a.ppm, 3 , primary\n\n"
    manifest = parse_manifest(text)
    assert len(manifest) == 1 and manifest.records[0].frame_index == 0


def test_class_counts():
    manifest = DatasetManifest(run_records("a", 0, 3) + run_records("b", 6, 2))
    counts = manifest.counts_by_name()
    assert counts["anger"] == 3 and counts["neutral"] == 2
    assert sum(counts.values()) == 5
    assert set(counts) == set(LABEL_NAMES)


# -- undersampling ---------------------------------------------------------------


def test_undersample_keeps_every_kth_frame():
    manifest = DatasetManifest(run_records("s", 6, 25))
    thinned = undersample_sequences(manifest, {6: 12})
    assert [r.frame_index for r in thinned] == [0, 12, 24]  # ceil(25/12) == 3


def test_undersample_even_split():
    manifest = DatasetManifest(run_records("s", 3, 10))
    thinned = undersample_sequences(manifest, {3: 2})
    assert len(thinned) == 5
    assert [r.frame_index for r in thinned] == [0, 2, 4, 6, 8]


def test_undersample_k1_is_identity():
    manifest = DatasetManifest(run_records("s", 0, 9))
    assert undersample_sequences(manifest, {0: 1}).records == manifest.records


def test_undersample_only_touches_listed_classes():
    manifest = DatasetManifest(run_records("a", 6, 24) + run_records("b", 3, 24))
    thinned = undersample_sequences(manifest, {6: 12})
    counts = thinned.class_counts()
    assert counts[6] == 2 and counts[3] == 24


def test_undersample_monotone_in_k():
    manifest = DatasetManifest(run_records("s", 6, 100))
    sizes = [len(undersample_sequences(manifest, {6: k})) for k in range(1, 12)]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == 100


def test_undersample_respects_run_boundaries():
    # same sequence, but a frame gap and a label change both break the run
    records = (run_records("s", 6, 5)                 # frames 0..4
               + run_records("s", 6, 5, start=10)     # gap -> new run
               + [rec("s", 20, 3), rec("s", 21, 3)])  # label change
    manifest = DatasetManifest(records)
    thinned = undersample_sequences(manifest, {6: 4})
    # each neutral run keeps offsets {0, 4}: frames 0,4 and 10,14
    assert [r.frame_index for r in thinned if r.label == 6] == [0, 4, 10, 14]
    assert sum(r.label == 3 for r in thinned) == 2


def test_undersample_rejects_bad_k():
    manifest = DatasetManifest(run_records("s", 6, 5))
    with pytest.raises(ValueError):
        undersample_sequences(manifest, {6: 0})
    with pytest.raises(ValueError):
        undersample_sequences(manifest, {9: 2})


@settings(deadline=None, max_examples=60)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       k=st.integers(1, 15))
def test_undersample_offsets_property(lengths, k):
    records = []
    for i, n in enumerate(lengths):
        records.extend(run_records(f"s{i}", 6, n))
    manifest = DatasetManifest(records)
    thinned = undersample_sequences(manifest, {6: k})
    by_seq = {}
    for r in thinned:
        by_seq.setdefault(r.sequence_id, []).append(r.frame_index)
    for i, n in enumerate(lengths):
        assert by_seq[f"s{i}"] == list(range(0, n, k))
    assert len(thinned) == sum(-(-n // k) for n in lengths)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_undersample_matches_reference_on_random_partitions(data):
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    records = []
    frame = 0
    for i in range(rng.integers(1, 6)):
        label = int(rng.integers(0, 7))
        length = int(rng.integers(1, 50))
        seq = f"s{rng.integers(0, 3)}"
        records.extend(rec(seq, frame + j, label) for j in range(length))
        frame += length + int(rng.integers(0, 2))  # sometimes contiguous, sometimes a gap
    k_by_class = {int(c): int(rng.integers(1, 9)) for c in rng.choice(7, size=3, replace=False)}
    manifest = DatasetManifest(records)
    got = undersample_sequences(manifest, k_by_class).records
    want = oracles.undersample_naive(manifest.records, k_by_class)
    assert got == want


# -- merging and the full rebalance ----------------------------------------------


def supplement_records(label, count, source="external_a"):
    return [SampleRecord(f"ext{label}", i, f"ext/{label}_{i}.ppm", label, source)
            for i in range(count)]


def test_merge_respects_quota_and_order():
    base = DatasetManifest(run_records("s", 0, 3))
    supp = DatasetManifest(supplement_records(0, 10))
    merged, added = merge_external(base, supp, {0: 4})
    assert added == {0: 4}
    assert len(merged) == 7
    assert [r.frame_index for r in merged.records[3:]] == [0, 1, 2, 3]
    assert all(r.source == "external_a" for r in merged.records[3:])


def test_merge_short_supply():
    base = DatasetManifest(run_records("s", 0, 1))
    supp = DatasetManifest(supplement_records(0, 2))
    merged, added = merge_external(base, supp, {0: 5})
    assert added == {0: 2} and len(merged) == 3


def test_merge_ignores_unrequested_classes():
    base = DatasetManifest(run_records("s", 0, 1))
    supp = DatasetManifest(supplement_records(0, 2) + supplement_records(1, 2))
    merged, added = merge_external(base, supp, {0: 2})
    assert added == {0: 2}
    assert merged.class_counts()[1] == 0


def test_merge_rejects_primary_supplement():
    base = DatasetManifest(run_records("s", 0, 1))
    supp = DatasetManifest([SampleRecord("p", 0, "p.ppm", 0, "primary")])
    with pytest.raises(ValueError):
        merge_external(base, supp, {0: 1})


def test_merge_leaves_base_untouched():
    base = DatasetManifest(run_records("s", 0, 2))
    before = list(base.records)
    merge_external(base, DatasetManifest(supplement_records(0, 3)), {0: 3})
    assert base.records == before


def test_merge_validates_quotas():
    base = DatasetManifest(run_records("s", 0, 1))
    supp = DatasetManifest(supplement_records(0, 1))
    with pytest.raises(ValueError):
        merge_external(base, supp, {0: -1})
    with pytest.raises(ValueError):
        merge_external(base, supp, {7: 1})


def test_rebalance_report_arithmetic():
    base = DatasetManifest(run_records("s", 6, 25) + run_records("t", 0, 4))
    supp = DatasetManifest(supplement_records(0, 3))
    merged, report = rebalance(base, {6: 12}, supp, {0: 5})
    assert report["neutral"] == {"before": 25, "removed": 22, "added": 0,
                                 "after": 3, "shortfall": 0}
    assert report["anger"] == {"before": 4, "removed": 0, "added": 3,
                               "after": 7, "shortfall": 2}
    assert len(merged) == 10
    assert set(report) == set(LABEL_NAMES)


def test_rebalance_without_supplement():
    base = DatasetManifest(run_records("s", 3, 10))
    merged, report = rebalance(base, {3: 2})
    assert len(merged) == 5
    assert report["happiness"]["removed"] == 5 and report["happiness"]["added"] == 0


# -- PGM / PPM -------------------------------------------------------------------


def gradient_image(c=3, h=6, w=5, seed=0):
    rng = np.random.default_rng(seed)
    return Image(rng.integers(0, 256, size=(c, h, w), dtype=np.uint8).astype(np.uint8))


def test_ppm_roundtrip_bit_exact():
    img = gradient_image()
    again = parse_image(format_image(img))
    npt.assert_array_equal(again.pixels, img.pixels)


def test_pgm_roundtrip_bit_exact():
    img = gradient_image(c=1)
    data = format_image(img)
    assert data.startswith(b"P5")
    npt.assert_array_equal(parse_image(data).pixels, img.pixels)


def test_pgm_pixel_bytes_map_directly():
    data = b"P5\n2 2\n255\n" + bytes([0, 255, 7, 128])
    img = parse_image(data)
    npt.assert_array_equal(img.pixels[0], [[0, 255], [7, 128]])


def test_ppm_interleaved_layout():
    # P6 stores rgb per pixel; we keep planes
    data = b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])
    img = parse_image(data)
    npt.assert_array_equal(img.pixels[:, 0, 0], [1, 2, 3])
    npt.assert_array_equal(img.pixels[:, 0, 1], [4, 5, 6])


def test_image_header_comments():
    data = b"P5 # format\n# a comment line\n2 1 # dims\n255\n" + bytes([9, 10])
    img = parse_image(data)
    npt.assert_array_equal(img.pixels[0], [[9, 10]])


def test_image_rejects_wrong_maxval():
    with pytest.raises(ImageFormatError):
        parse_image(b"P5\n1 1\n65535\n\x00\x00")


def test_image_rejects_bad_magic():
    with pytest.raises(ImageFormatError):
        parse_image(b"P3\n1 1\n255\n0")


def test_image_rejects_truncated_pixels():
    with pytest.raises(ImageFormatError):
        parse_image(b"P6\n2 2\n255\n" + bytes(5))


@pytest.mark.parametrize("data, message", [
    (b"P5\n1", "truncated header"),
    (b"P5 1 1 255", "header must end with a whitespace byte"),
    (b"P5 a 1 255\n", "non-numeric header fields"),
    (b"P5 0 1 255\n", "bad dimensions"),
])
def test_image_rejects_a_malformed_header(data, message):
    with pytest.raises(ImageFormatError, match=message):
        parse_image(data)


def test_image_rejects_bad_channel_count():
    with pytest.raises(ValueError):
        Image(np.zeros((2, 4, 4), dtype=np.uint8))


# -- tensors, crops, flips ---------------------------------------------------------


def test_to_tensor_range_and_shape():
    img = Image(np.stack([np.full((4, 4), v, dtype=np.uint8) for v in (0, 128, 255)]))
    x = to_tensor(img, mean=(0.5, 0.5, 0.5), std=(0.5, 0.5, 0.5))
    assert x.shape == (1, 3, 4, 4)
    npt.assert_allclose(x[0, 0], -1.0)
    npt.assert_allclose(x[0, 2], 1.0)
    npt.assert_allclose(x[0, 1], (128 / 255 - 0.5) / 0.5)


def test_to_tensor_validates_stats():
    img = gradient_image()
    with pytest.raises(ValueError):
        to_tensor(img, mean=(0.5,), std=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        to_tensor(img, mean=(0.5, 0.5, 0.5), std=(0.5, 0.0, 0.5))


def test_crop_extracts_window():
    img = gradient_image()
    sub = crop(img, 1, 2, 3, 2)
    npt.assert_array_equal(sub.pixels, img.pixels[:, 1:4, 2:4])
    with pytest.raises(ValueError):
        crop(img, 4, 0, 3, 3)


def test_center_crop_is_centred():
    img = gradient_image(h=8, w=8)
    sub = center_crop(img, 4)
    npt.assert_array_equal(sub.pixels, img.pixels[:, 2:6, 2:6])


def test_hflip_is_involutive():
    img = gradient_image()
    npt.assert_array_equal(hflip(hflip(img)).pixels, img.pixels)
    npt.assert_array_equal(hflip(img).pixels, img.pixels[:, :, ::-1])


def test_default_eval_crop_values():
    assert default_eval_crop(112) == 98
    assert default_eval_crop(32) == 28


def test_augment_identity_without_pad():
    img = gradient_image(h=8, w=8)

    class NoFlip:
        def integers(self, lo, hi):
            return 0

        def random(self):
            return 0.9  # above the flip threshold

    out = augment_train(img, out_size=8, pad=0, rng=NoFlip())
    npt.assert_array_equal(out.pixels, img.pixels)


def test_augment_deterministic_per_seed():
    img = gradient_image(h=8, w=8)
    a = augment_train(img, 8, 2, np.random.default_rng(3))
    b = augment_train(img, 8, 2, np.random.default_rng(3))
    npt.assert_array_equal(a.pixels, b.pixels)


class RecordingRng:
    """Wraps a real generator and logs the (top, left, flip) draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.ints = []
        self.flips = []

    def integers(self, lo, hi):
        v = self._rng.integers(lo, hi)
        self.ints.append(int(v))
        return v

    def random(self):
        v = self._rng.random()
        self.flips.append(v < 0.5)
        return v


def test_augment_offsets_cover_grid_uniformly():
    img = gradient_image(c=1, h=4, w=4, seed=1)
    # pad 2 -> 8x8 padded; 4x4 crops start anywhere in a 5x5 offset grid
    rng = RecordingRng(0)
    trials = 4000
    for _ in range(trials):
        out = augment_train(img, 4, 2, rng)
        assert out.pixels.shape == (1, 4, 4)
    draws = np.array(rng.ints).reshape(trials, 2)
    seen = np.zeros((5, 5), dtype=int)
    np.add.at(seen, (draws[:, 0], draws[:, 1]), 1)
    assert np.all(seen > 0), "some crop offsets never drawn"
    expected = trials / 25
    chi2 = float(((seen - expected) ** 2 / expected).sum())
    assert chi2 < 52  # chi^2_{24} at p ~ 0.999
    flip_rate = np.mean(rng.flips)
    assert 0.4 < flip_rate < 0.6


def test_augment_rejects_invalid_args():
    img = gradient_image(h=4, w=4)
    with pytest.raises(ValueError):
        augment_train(img, 4, -1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        augment_train(img, 9, 0, np.random.default_rng(0))


# -- ten-crop ----------------------------------------------------------------------


def test_ten_crop_count_and_dims():
    img = gradient_image(h=8, w=8)
    crops = ten_crop(img, 6)
    assert len(crops) == 10
    assert all(c.pixels.shape == (3, 6, 6) for c in crops)


def test_ten_crop_order_and_flip_pairing():
    img = gradient_image(h=8, w=10)
    c = 6
    crops = ten_crop(img, c)
    px = img.pixels
    npt.assert_array_equal(crops[0].pixels, px[:, :6, :6])        # top-left
    npt.assert_array_equal(crops[1].pixels, px[:, :6, 4:])        # top-right
    npt.assert_array_equal(crops[2].pixels, px[:, 2:, :6])        # bottom-left
    npt.assert_array_equal(crops[3].pixels, px[:, 2:, 4:])        # bottom-right
    npt.assert_array_equal(crops[4].pixels, px[:, 1:7, 2:8])      # center
    for i in range(5):
        npt.assert_array_equal(crops[5 + i].pixels, crops[i].pixels[:, :, ::-1])


def test_ten_crop_degenerate_full_size():
    img = gradient_image(h=6, w=6)
    crops = ten_crop(img, 6)
    for i in range(5):
        npt.assert_array_equal(crops[i].pixels, img.pixels)
    with pytest.raises(ValueError):
        ten_crop(img, 7)


@pytest.mark.parametrize("h, w, c", [(8, 10, 6), (9, 7, 5), (7, 7, 4), (6, 6, 6), (6, 9, 6)])
def test_ten_crop_tensor_is_the_crops_through_to_tensor_bit_for_bit(h, w, c):
    img = gradient_image(h=h, w=w, seed=c)
    mean, std = (0.4, 0.5, 0.6), (0.2, 0.25, 0.3)
    got = ten_crop_tensor(img, c, mean, std)
    want = np.concatenate([to_tensor(x, mean, std) for x in ten_crop(img, c)])
    assert got.shape == (10, 3, c, c) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_ten_crop_tensor_rejects_a_crop_larger_than_the_image():
    img = gradient_image(h=6, w=8)
    for make in (lambda: ten_crop(img, 7), lambda: ten_crop_tensor(img, 7, (0.5,) * 3, (0.5,) * 3)):
        with pytest.raises(ValueError, match=r"^crop 7 exceeds image 6x8$"):
            make()
