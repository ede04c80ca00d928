"""Multi-view datasets: container, binary file format, synthetic generators.

On-disk layout (little-endian):
    magic "MVDS", u32 version=1, u32 n_views, u32 n_samples, u8 has_labels,
    u32 dim per view, then per view row-major f32 data, then u32 labels.
Data is f32 on disk and f64 in memory.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError

MAGIC = b"MVDS"
VERSION = 1


@dataclass
class MultiViewBatch:
    """Aligned per-modality data matrices plus optional integer labels."""

    views: list[np.ndarray]
    labels: np.ndarray | None = None

    def __post_init__(self):
        if not self.views:
            raise ContractError("MultiViewBatch: at least one view required")
        n = self.views[0].shape[0]
        views = []
        for v in self.views:
            arr = np.asarray(v, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] != n:
                raise ContractError("MultiViewBatch: views must be (n, dim) with a shared n")
            views.append(arr)
        if n == 0:
            raise ContractError("MultiViewBatch: at least one row required")
        self.views = views
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (n,):
                raise ContractError("MultiViewBatch: labels must be a vector of length n")
            if lab.min() < 0:
                raise ContractError("MultiViewBatch: labels must be non-negative")
            self.labels = lab

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list[int]:
        return [v.shape[1] for v in self.views]

    def subset(self, idx: np.ndarray) -> "MultiViewBatch":
        return MultiViewBatch(
            views=[v[idx] for v in self.views],
            labels=None if self.labels is None else self.labels[idx],
        )


@dataclass
class SyntheticSpec:
    """Shared-label dataset: orthogonal class prototypes per view, a fixed
    per-view linear style map, and per-sample background noise."""

    n_classes: int
    n_samples: int
    dims: list[int]
    style_noise: float = 0.0
    background_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1 or self.n_samples < 1:
            raise ContractError("SyntheticSpec: n_classes and n_samples must be >= 1")
        if not self.dims:
            raise ContractError("SyntheticSpec: dims must list at least one view")
        if any(d < self.n_classes for d in self.dims):
            raise ContractError("SyntheticSpec: every view dim must be >= n_classes")
        if not (0 <= self.style_noise < np.inf and 0 <= self.background_noise < np.inf):
            raise ContractError("SyntheticSpec: noise levels must be finite and >= 0")


PROTOTYPE_SCALE = 3.0

# class prototypes and style maps come from a fixed generator, so datasets
# produced with different seeds share the same class structure (only the
# label order and background noise differ); train/test pairs can therefore
# be generated with different seeds
STRUCTURE_SEED = 1805


def generate_synthetic(spec: SyntheticSpec) -> MultiViewBatch:
    """Deterministic per seed. Labels cycle through classes before a seeded
    shuffle, so the label histogram is identical across seeds."""
    structure = np.random.default_rng(STRUCTURE_SEED)
    rng = np.random.default_rng(spec.seed)
    labels = np.arange(spec.n_samples) % spec.n_classes
    rng.shuffle(labels)
    views = []
    for dim in spec.dims:
        basis, _ = np.linalg.qr(structure.normal(size=(dim, dim)))
        prototypes = PROTOTYPE_SCALE * basis[: spec.n_classes]
        style = np.eye(dim) + spec.style_noise * structure.normal(size=(dim, dim))
        clean = prototypes[labels] @ style.T
        noise = spec.background_noise * rng.normal(size=(spec.n_samples, dim))
        views.append(clean + noise)
    return MultiViewBatch(views=views, labels=labels)


def write_dataset(path: str | Path, batch: MultiViewBatch) -> None:
    """Write `batch` in the layout above; a label that does not fit a u32 is
    refused before the file is opened."""
    if batch.labels is not None and batch.labels.max() > 4294967295:
        raise ContractError(f"write_dataset: label {batch.labels.max()} exceeds "
                            "the u32 maximum 4294967295")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIB", VERSION, batch.n_views, batch.n_samples,
                             1 if batch.labels is not None else 0))
        for dim in batch.dims:
            fh.write(struct.pack("<I", dim))
        for v in batch.views:
            fh.write(v.astype("<f4").tobytes(order="C"))
        if batch.labels is not None:
            fh.write(batch.labels.astype("<u4").tobytes())


def read_exact(fh, n: int, what: str, fmt: str = "dataset") -> bytes:
    """The next `n` bytes of the `fmt` file `fh`, checked against the file
    length before reading: `n` may come from a header, and a corrupt size
    must not become a huge allocation."""
    offset = fh.tell()
    remaining = os.fstat(fh.fileno()).st_size - offset
    if n > remaining:
        raise FormatError(
            f"truncated {fmt} reading {what} at byte {offset}: "
            f"expected {n} bytes, got {remaining}"
        )
    return fh.read(n)


def read_dataset(path: str | Path) -> MultiViewBatch:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0: expected {MAGIC!r}")
        version, n_views, n_samples, has_labels = struct.unpack(
            "<IIIB", read_exact(fh, 13, "header")
        )
        if version != VERSION:
            raise FormatError(f"unsupported dataset version {version} at byte 4")
        if n_views == 0:
            raise FormatError("dataset declares 0 views (byte 8)")
        if n_samples == 0:
            raise FormatError("dataset declares 0 samples (byte 12)")
        if has_labels not in (0, 1):
            raise FormatError(f"has_labels is {has_labels} at byte 16: expected 0 or 1")
        dims = []
        for i in range(n_views):
            (dim,) = struct.unpack("<I", read_exact(fh, 4, f"dim of view {i}"))
            if dim == 0:
                raise FormatError(f"view {i} declares dim 0 (byte {fh.tell() - 4})")
            dims.append(dim)
        views = []
        for i, dim in enumerate(dims):
            raw = read_exact(fh, 4 * n_samples * dim, f"data of view {i}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(n_samples, dim)
            views.append(arr.astype(np.float64))
        labels = None
        if has_labels:
            raw = read_exact(fh, 4 * n_samples, "labels")
            labels = np.frombuffer(raw, dtype="<u4").astype(np.int64)
        trailing = fh.read(1)
        if trailing:
            raise FormatError(f"unexpected trailing bytes at byte {fh.tell() - 1}")
    return MultiViewBatch(views=views, labels=labels)
