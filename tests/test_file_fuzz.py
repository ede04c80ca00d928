"""Seeded fuzzing of the two file readers: a truncated or bit-flipped
`.mvxc` checkpoint or `.mvds` dataset loads cleanly or raises FormatError,
never another exception."""

import struct

import numpy as np
import pytest

from mvx.config import build_config
from mvx.data import MultiViewBatch, read_dataset, write_dataset
from mvx.errors import FormatError
from mvx.training import fit, load_checkpoint


def _loads_or_format_error(load, path, raw: bytes, what: str) -> None:
    path.write_bytes(raw)
    try:
        load(path)
    except FormatError:
        pass
    except Exception as err:  # any other type is the failure under test
        pytest.fail(f"{what}: {type(err).__name__}: {err}")


def _checkpoint_header_bytes(raw: bytes) -> list[int]:
    """Offsets of every byte of a checkpoint that is not a float payload:
    magic, version, count, names and their lengths, ndims, dims, step counts,
    moment sizes, the rng state and its length, and the epoch."""
    (count,) = struct.unpack_from("<I", raw, 8)
    spans = [(0, 12)]
    offset = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        (ndim,) = struct.unpack_from("<I", raw, offset + 4 + name_len)
        header_end = offset + 8 + name_len + 4 * ndim
        shape = struct.unpack_from(f"<{ndim}I", raw, header_end - 4 * ndim)
        spans.append((offset, header_end))
        offset = header_end + 8 * int(np.prod(shape))
    for _ in range(count):
        (m_size,) = struct.unpack_from("<I", raw, offset + 8)
        spans.append((offset, offset + 12))
        offset += 12 + 8 * m_size
        (v_size,) = struct.unpack_from("<I", raw, offset)
        spans.append((offset, offset + 4))
        offset += 4 + 8 * v_size
    spans.append((offset, len(raw)))  # rng length, rng state, epoch
    return [i for start, end in spans for i in range(start, end)]


def test_corrupt_checkpoints_load_or_raise_format_error(tmp_path):
    cfg = build_config({"model.name": "mwae", "model.z_dim": 1, "model.seed": 2,
                        "encoder.default.hidden_layer_dim": [2],
                        "decoder.default.hidden_layer_dim": [2],
                        "trainer.max_epochs": 1, "trainer.batch_size": 4})
    views = [np.random.default_rng(0).normal(size=(8, d)) for d in (2, 1)]
    run = fit(cfg, MultiViewBatch(views=views), out_dir=tmp_path / "run")
    raw = (tmp_path / "run" / "checkpoint.mvxc").read_bytes()
    path = tmp_path / "corrupt.mvxc"
    load = lambda p: load_checkpoint(run, p)  # noqa: E731
    _loads_or_format_error(load, path, raw, "intact")
    for end in range(len(raw)):
        with pytest.raises(FormatError):
            path.write_bytes(raw[:end])
            load(path)
    _loads_or_format_error(load, path, raw + b"\0", "trailing byte")
    header = _checkpoint_header_bytes(raw)
    rng = np.random.default_rng(20)
    for i, bit in zip(rng.choice(header, 600), rng.integers(0, 8, 600)):
        flipped = bytearray(raw)
        flipped[i] ^= 1 << bit
        _loads_or_format_error(load, path, bytes(flipped), f"bit {bit} of byte {i}")


def test_corrupt_datasets_load_or_raise_format_error(tmp_path):
    rng = np.random.default_rng(21)
    batch = MultiViewBatch(views=[rng.normal(size=(5, d)) for d in (3, 2)],
                           labels=rng.integers(0, 3, 5))
    path = tmp_path / "d.mvds"
    write_dataset(path, batch)
    raw = path.read_bytes()
    for end in range(len(raw)):
        with pytest.raises(FormatError):
            path.write_bytes(raw[:end])
            read_dataset(path)
    header_end = 4 + 13 + 4 * batch.n_views
    for i in range(header_end):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            _loads_or_format_error(read_dataset, path, bytes(flipped), f"bit {bit} of byte {i}")
    for i, bit in zip(rng.integers(header_end, len(raw), 100), rng.integers(0, 8, 100)):
        flipped = bytearray(raw)
        flipped[i] ^= 1 << bit
        _loads_or_format_error(read_dataset, path, bytes(flipped), f"bit {bit} of byte {i}")
