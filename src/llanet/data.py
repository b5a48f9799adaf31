"""Dataset manifests, class rebalancing, image I/O, and crop transforms.

A manifest is a CSV of frame records grouped into sequences (one video of
one person). Class imbalance is tackled the way the training pipeline
expects it: long runs of consecutive same-label frames are thinned to every
k-th frame, then under-represented classes are topped up from an external
supplement manifest under per-class quotas.

Images are binary PPM (P6, RGB) or PGM (P5, grayscale), 8-bit only - an
intentionally boring format that round-trips bit-exactly without extra
dependencies.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .tensor import DEFAULT_DTYPE

LABEL_NAMES = ("anger", "disgust", "fear", "happiness", "sadness", "surprise", "neutral")
NUM_CLASSES = len(LABEL_NAMES)
SOURCES = ("primary", "external_a", "external_b")
MANIFEST_FIELDS = ("sequence_id", "frame_index", "image_path", "label", "source")


class ManifestError(ValueError):
    """Malformed manifest; carries the 1-based offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class SampleRecord:
    sequence_id: str
    frame_index: int
    image_path: str
    label: int
    source: str = "primary"

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        if not 0 <= self.label < NUM_CLASSES:
            raise ValueError(f"label must be in [0, {NUM_CLASSES}), got {self.label}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.sequence_id, self.frame_index)


class DatasetManifest:
    """Ordered records with unique (sequence_id, frame_index) keys."""

    def __init__(self, records):
        self.records = list(records)
        seen = set()
        for r in self.records:
            if r.key in seen:
                raise ManifestError(f"duplicate record key {r.key}")
            seen.add(r.key)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def class_counts(self) -> np.ndarray:
        counts = np.zeros(NUM_CLASSES, dtype=np.int64)
        for r in self.records:
            counts[r.label] += 1
        return counts

    def counts_by_name(self) -> dict[str, int]:
        return {name: int(n) for name, n in zip(LABEL_NAMES, self.class_counts())}


def _csv_rows(text: str):
    """The rows of a manifest's CSV; one the reader refuses, such as a field
    holding a bare CR, raises ``ManifestError`` with its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as e:
        raise ManifestError(f"unreadable CSV: {e}", reader.line_num) from None


def parse_manifest(text: str) -> DatasetManifest:
    """Parse manifest CSV; errors carry 1-based line numbers."""
    rows = _csv_rows(text)
    try:
        header = next(rows)
    except StopIteration:
        raise ManifestError("empty file: missing header", line=1) from None
    if [h.strip() for h in header] != list(MANIFEST_FIELDS):
        raise ManifestError(f"header must be {','.join(MANIFEST_FIELDS)}", line=1)
    records = []
    seen: dict[tuple, int] = {}
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(MANIFEST_FIELDS):
            raise ManifestError(f"expected {len(MANIFEST_FIELDS)} fields, got {len(row)}", lineno)
        seq, frame_s, path, label_s, source = (f.strip() for f in row)
        try:
            frame = int(frame_s)
            label = int(label_s)
        except ValueError:
            raise ManifestError(f"frame_index and label must be integers, got "
                                f"{frame_s!r}/{label_s!r}", lineno) from None
        try:
            rec = SampleRecord(seq, frame, path, label, source)
        except ValueError as e:
            raise ManifestError(str(e), lineno) from None
        first = seen.setdefault(rec.key, lineno)
        if first != lineno:
            raise ManifestError(f"duplicate (sequence_id, frame_index) {rec.key}, "
                                f"first seen on line {first}", lineno)
        records.append(rec)
    return DatasetManifest(records)


def format_manifest(manifest: DatasetManifest) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_FIELDS)
    for r in manifest:
        writer.writerow([r.sequence_id, r.frame_index, r.image_path, r.label, r.source])
    return out.getvalue()


def read_manifest(path) -> DatasetManifest:
    return parse_manifest(Path(path).read_text(encoding="utf-8"))


def write_manifest(path, manifest: DatasetManifest) -> None:
    with atomic_open(path) as fh:
        fh.write(format_manifest(manifest))


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write through a temporary file beside ``path``, moved over ``path`` only
    once the write completes; after an error the temporary file is removed and
    an earlier ``path`` is left as it was. Text is UTF-8."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- rebalancing ---------------------------------------------------------------


def _iter_runs(manifest: DatasetManifest):
    """Yield (start, end) index spans of maximal consecutive-frame runs with
    constant (sequence_id, label)."""
    start = None
    prev = None
    for i, r in enumerate(manifest.records):
        if (prev is None or r.sequence_id != prev.sequence_id or r.label != prev.label
                or r.frame_index != prev.frame_index + 1):
            if start is not None:
                yield start, i
            start = i
        prev = r
    if start is not None:
        yield start, len(manifest.records)


def undersample_sequences(manifest: DatasetManifest, k_by_class: dict[int, int]) -> DatasetManifest:
    """Thin every same-label run to frames at run-relative offsets 0, k, 2k, ...

    Classes absent from ``k_by_class`` keep every frame (k = 1). A run of
    length n keeps exactly ceil(n / k) frames. Record order is preserved.
    """
    for label, k in k_by_class.items():
        if not 0 <= label < NUM_CLASSES:
            raise ValueError(f"unknown class label {label}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k} for class {LABEL_NAMES[label]}")
    kept = []
    for start, end in _iter_runs(manifest):
        k = k_by_class.get(manifest.records[start].label, 1)
        kept.extend(manifest.records[start + off] for off in range(0, end - start, k))
    return DatasetManifest(kept)


def merge_external(base: DatasetManifest, supplement: DatasetManifest,
                   quota_by_class: dict[int, int]) -> tuple[DatasetManifest, dict[int, int]]:
    """Append up to quota supplement records per class, in supplement order.

    The supplement must be externally sourced (``ManifestError`` otherwise).
    Returns the merged manifest and the per-class count actually added (short
    supply is allowed; callers report the shortfall).
    """
    for label, quota in quota_by_class.items():
        if not 0 <= label < NUM_CLASSES:
            raise ValueError(f"unknown class label {label}")
        if quota < 0:
            raise ValueError(f"quota must be >= 0, got {quota}")
    added = {label: 0 for label in quota_by_class}
    picked = []
    for r in supplement:
        if r.source == "primary":
            raise ManifestError(f"supplement record {r.key} is not externally sourced")
        if r.label in added and added[r.label] < quota_by_class[r.label]:
            picked.append(r)
            added[r.label] += 1
    return DatasetManifest(base.records + picked), added


def rebalance(manifest: DatasetManifest, k_by_class: dict[int, int],
              supplement: DatasetManifest | None = None,
              quota_by_class: dict[int, int] | None = None):
    """Undersample then top up; returns (new manifest, per-class report).

    Report shape: {class name: {before, removed, added, after, shortfall}}.
    """
    before = manifest.class_counts()
    thinned = undersample_sequences(manifest, k_by_class)
    removed = before - thinned.class_counts()
    added = {}
    if supplement is not None and quota_by_class:
        merged, added = merge_external(thinned, supplement, quota_by_class)
    else:
        merged = thinned
    after = merged.class_counts()
    report = {}
    for label, name in enumerate(LABEL_NAMES):
        got = added.get(label, 0)
        quota = (quota_by_class or {}).get(label, 0)
        report[name] = {
            "before": int(before[label]),
            "removed": int(removed[label]),
            "added": got,
            "after": int(after[label]),
            "shortfall": max(0, quota - got),
        }
    return merged, report


# -- images --------------------------------------------------------------------


class ImageFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Image:
    """8-bit image as a (channels, height, width) uint8 array; 1 or 3 channels."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if not (isinstance(p, np.ndarray) and p.dtype == np.uint8 and p.ndim == 3):
            raise ValueError("pixels must be a uint8 array of shape (c, h, w)")
        if p.shape[0] not in (1, 3):
            raise ValueError(f"expected 1 or 3 channels, got {p.shape[0]}")

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


def _read_header_tokens(data: bytes, count: int):
    """Read whitespace-separated header tokens, honouring '#' comments.
    Returns the tokens and the offset just past the single whitespace byte
    that terminates the header."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ImageFormatError("truncated header")
        ch = data[i:i + 1]
        if ch == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if i >= len(data) or not data[i:i + 1].isspace():
        raise ImageFormatError("header must end with a whitespace byte")
    return tokens, i + 1


def parse_image(data: bytes) -> Image:
    """Decode binary PGM (P5) or PPM (P6) with maxval 255."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported format {magic!r}; need binary P5 or P6")
    channels = 1 if magic == b"P5" else 3
    tokens, offset = _read_header_tokens(data[2:], 3)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ImageFormatError(f"non-numeric header fields {tokens}") from None
    if maxval != 255:
        raise ImageFormatError(f"only 8-bit images supported (maxval 255), got {maxval}")
    if w < 1 or h < 1:
        raise ImageFormatError(f"bad dimensions {w}x{h}")
    need = channels * h * w
    raw = data[2 + offset:2 + offset + need]
    if len(raw) != need:
        raise ImageFormatError(f"expected {need} pixel bytes, got {len(raw)}")
    arr = np.frombuffer(raw, dtype=np.uint8)
    if channels == 1:
        pixels = arr.reshape(1, h, w)
    else:
        pixels = arr.reshape(h, w, 3).transpose(2, 0, 1)
    return Image(np.ascontiguousarray(pixels))


def format_image(img: Image) -> bytes:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    if img.channels == 1:
        body = img.pixels[0].tobytes()
    else:
        body = np.ascontiguousarray(img.pixels.transpose(1, 2, 0)).tobytes()
    return header + body


def load_image(path) -> Image:
    return parse_image(Path(path).read_bytes())


def write_image(path, img: Image) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(format_image(img))


def to_tensor(img: Image, mean, std) -> np.ndarray:
    """Scale to [0,1] then normalise per channel; returns a (1, c, h, w) tensor."""
    mean = np.asarray(mean, dtype=DEFAULT_DTYPE)
    std = np.asarray(std, dtype=DEFAULT_DTYPE)
    if mean.shape != (img.channels,) or std.shape != (img.channels,):
        raise ValueError(f"mean/std must have {img.channels} entries each")
    if (std == 0).any():
        raise ValueError("std entries must be nonzero")
    x = img.pixels.astype(DEFAULT_DTYPE) / 255.0
    x = (x - mean[:, None, None]) / std[:, None, None]
    return x[None]


# -- crops and augmentation ------------------------------------------------------


def crop(img: Image, top: int, left: int, height: int, width: int) -> Image:
    if top < 0 or left < 0 or top + height > img.height or left + width > img.width:
        raise ValueError(f"crop [{top}:{top + height}, {left}:{left + width}] exceeds "
                         f"{img.height}x{img.width} image")
    return Image(np.ascontiguousarray(img.pixels[:, top:top + height, left:left + width]))


def center_crop(img: Image, size: int) -> Image:
    return crop(img, (img.height - size) // 2, (img.width - size) // 2, size, size)


def hflip(img: Image) -> Image:
    return Image(np.ascontiguousarray(img.pixels[:, :, ::-1]))


def default_eval_crop(side: int) -> int:
    """Default test-time crop: 7/8 of the side (98 for 112-pixel faces)."""
    return (7 * side) // 8


def augment_train(img: Image, out_size: int, pad: int, rng: np.random.Generator) -> Image:
    """Reflect-pad, take a uniformly random out_size crop, flip with p=0.5.

    Draw order is fixed (top, left, flip) so a given generator state always
    produces the same result.
    """
    if pad < 0:
        raise ValueError("pad must be >= 0")
    pixels = img.pixels
    if pad:
        pixels = np.pad(pixels, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
    ph, pw = pixels.shape[1], pixels.shape[2]
    if out_size > ph or out_size > pw:
        raise ValueError(f"crop {out_size} exceeds padded image {ph}x{pw}")
    top = int(rng.integers(0, ph - out_size + 1))
    left = int(rng.integers(0, pw - out_size + 1))
    out = Image(np.ascontiguousarray(pixels[:, top:top + out_size, left:left + out_size]))
    if rng.random() < 0.5:
        out = hflip(out)
    return out


def ten_crop_boxes(height: int, width: int, crop_size: int) -> list[tuple[int, int]]:
    """(top, left) of the four corner crops and the center crop, in that order."""
    if crop_size > min(height, width):
        raise ValueError(f"crop {crop_size} exceeds image {height}x{width}")
    h, w, c = height, width, crop_size
    return [(0, 0), (0, w - c), (h - c, 0), (h - c, w - c), ((h - c) // 2, (w - c) // 2)]


def ten_crop(img: Image, crop_size: int) -> list[Image]:
    """Four corners + center, then the horizontal flip of each, in that order."""
    c = crop_size
    crops = [crop(img, top, left, c, c) for top, left in ten_crop_boxes(img.height, img.width, c)]
    return crops + [hflip(x) for x in crops]


def ten_crop_tensor(img: Image, crop_size: int, mean, std) -> np.ndarray:
    """The (10, c, s, s) batch of ``ten_crop``'s crops, each through
    ``to_tensor``: the image is normalised once and the crops are cut from
    that, which gives the same bits, since normalising is per pixel."""
    x = to_tensor(img, mean, std)[0]
    c = crop_size
    crops = [x[:, top:top + c, left:left + c]
             for top, left in ten_crop_boxes(img.height, img.width, c)]
    return np.stack(crops + [part[:, :, ::-1] for part in crops])
