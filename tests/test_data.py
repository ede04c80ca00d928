"""Dataset container, binary round trips, synthetic generator properties."""

import struct

import numpy as np
import pytest

from mvx.data import (
    MAGIC,
    VERSION,
    MultiViewBatch,
    SyntheticSpec,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from mvx.errors import ContractError, FormatError


def _f32_batch(seed=0, n=16, dims=(5, 3), labels=True):
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
             for d in dims]
    lab = rng.integers(0, 4, n) if labels else None
    return MultiViewBatch(views=views, labels=lab)


def test_round_trip_bitwise(tmp_path):
    batch = _f32_batch()
    path = tmp_path / "d.mvds"
    write_dataset(path, batch)
    back = read_dataset(path)
    assert back.n_views == batch.n_views
    for a, b in zip(batch.views, back.views):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(back.labels, batch.labels)


def test_round_trip_without_labels(tmp_path):
    batch = _f32_batch(labels=False)
    path = tmp_path / "d.mvds"
    write_dataset(path, batch)
    back = read_dataset(path)
    assert back.labels is None


def test_truncated_file_reports_offset(tmp_path):
    batch = _f32_batch()
    path = tmp_path / "d.mvds"
    write_dataset(path, batch)
    raw = path.read_bytes()
    (tmp_path / "t.mvds").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "t.mvds")
    assert "expected" in str(err.value) and "byte" in str(err.value)


def test_header_sizes_beyond_the_file_are_rejected(tmp_path):
    # one view of 3 dims and 2**32 - 1 samples: 48 GiB declared in 64 bytes
    header = MAGIC + struct.pack("<IIIB", VERSION, 1, 2**32 - 1, 0) + struct.pack("<I", 3)
    path = tmp_path / "huge.mvds"
    path.write_bytes(header.ljust(64, b"\0"))
    with pytest.raises(FormatError, match="at byte 21"):
        read_dataset(path)


def test_bad_magic_rejected(tmp_path):
    (tmp_path / "bad.mvds").write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "bad.mvds")
    assert "magic" in str(err.value)


def test_zero_views_rejected(tmp_path):
    import struct

    payload = b"MVDS" + struct.pack("<IIIB", 1, 0, 4, 0)
    (tmp_path / "z.mvds").write_bytes(payload)
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "z.mvds")
    assert "0 views" in str(err.value)


@pytest.mark.parametrize("dims", [(3, 0), (0, 3)])
def test_a_view_of_dim_0_is_rejected_with_its_byte(tmp_path, dims):
    # view i's dim sits at byte 17 + 4 * i
    payload = MAGIC + struct.pack("<IIIB", VERSION, 2, 4, 0) + struct.pack("<II", *dims)
    path = tmp_path / "d.mvds"
    path.write_bytes(payload + np.zeros(4 * sum(dims), dtype="<f4").tobytes())
    view = dims.index(0)
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert str(err.value) == f"view {view} declares dim 0 (byte {17 + 4 * view})"


def test_trailing_bytes_rejected(tmp_path):
    batch = _f32_batch()
    path = tmp_path / "d.mvds"
    write_dataset(path, batch)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError):
        read_dataset(path)


@pytest.mark.parametrize("flag", [2, 7, 255])
def test_a_has_labels_byte_other_than_0_or_1_is_rejected(tmp_path, flag):
    path = tmp_path / "d.mvds"
    write_dataset(path, _f32_batch())
    raw = bytearray(path.read_bytes())
    assert raw[16] == 1
    raw[16] = flag
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"has_labels is {flag} at byte 16"):
        read_dataset(path)


@pytest.mark.parametrize("label", [2**32, 2**32 + 5, 2**62])
def test_a_label_beyond_u32_is_refused_before_the_file_is_opened(tmp_path, label):
    batch = _f32_batch()
    batch.labels[3] = label
    path = tmp_path / "d.mvds"
    with pytest.raises(ContractError, match=f"label {label} exceeds the u32 maximum"):
        write_dataset(path, batch)
    assert not path.exists()


def test_the_largest_u32_label_round_trips(tmp_path):
    batch = _f32_batch()
    batch.labels[3] = 2**32 - 1
    path = tmp_path / "d.mvds"
    write_dataset(path, batch)
    assert np.array_equal(read_dataset(path).labels, batch.labels)


def test_synthetic_noiseless_classes_are_constant():
    spec = SyntheticSpec(n_classes=3, n_samples=30, dims=[6, 5],
                         style_noise=0.0, background_noise=0.0, seed=4)
    batch = generate_synthetic(spec)
    for view in batch.views:
        for c in range(3):
            rows = view[batch.labels == c]
            assert np.allclose(rows, rows[0])


def test_synthetic_orthogonal_prototypes_linearly_separable():
    # closed-form least-squares readout reaches 100% on clean data
    spec = SyntheticSpec(n_classes=4, n_samples=80, dims=[8],
                         style_noise=0.0, background_noise=0.0, seed=9)
    batch = generate_synthetic(spec)
    x = np.hstack([batch.views[0], np.ones((80, 1))])
    y = np.zeros((80, 4))
    y[np.arange(80), batch.labels] = 1.0
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    pred = np.argmax(x @ w, axis=1)
    assert np.mean(pred == batch.labels) == 1.0


def test_synthetic_seed_contract():
    spec_a = SyntheticSpec(n_classes=3, n_samples=40, dims=[5], seed=1,
                           background_noise=0.3)
    spec_b = SyntheticSpec(n_classes=3, n_samples=40, dims=[5], seed=2,
                           background_noise=0.3)
    a = generate_synthetic(spec_a)
    b = generate_synthetic(spec_b)
    assert not np.allclose(a.views[0], b.views[0])
    assert np.array_equal(np.bincount(a.labels), np.bincount(b.labels))
    # same class structure across seeds: per-class means agree up to noise
    for c in range(3):
        mean_a = a.views[0][a.labels == c].mean(axis=0)
        mean_b = b.views[0][b.labels == c].mean(axis=0)
        assert np.abs(mean_a - mean_b).max() < 0.5
    # pure function of its SyntheticSpec
    again = generate_synthetic(spec_a)
    assert a.views[0].tobytes() == again.views[0].tobytes()


def test_synthetic_shared_label_structure():
    # the label is recoverable from every view: cross-view prediction via the
    # shared label is exact by construction
    spec = SyntheticSpec(n_classes=4, n_samples=60, dims=[6, 7], seed=3,
                         background_noise=0.0)
    batch = generate_synthetic(spec)
    for view in batch.views:
        x = np.hstack([view, np.ones((60, 1))])
        y = np.zeros((60, 4))
        y[np.arange(60), batch.labels] = 1.0
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.mean(np.argmax(x @ w, axis=1) == batch.labels) == 1.0


def test_batch_validation():
    with pytest.raises(ContractError):
        MultiViewBatch(views=[])
    with pytest.raises(ContractError):
        MultiViewBatch(views=[np.zeros((3, 2)), np.zeros((4, 2))])
    with pytest.raises(ContractError):
        MultiViewBatch(views=[np.zeros((3, 2))], labels=np.array([0, 1]))


def test_a_batch_of_0_rows_is_refused_where_it_is_made(tmp_path):
    # `fit`, the log-likelihood and `write_dataset` all take a batch, so none
    # of them sees 0 rows
    for labels in (None, np.zeros(0, dtype=np.int64)):
        with pytest.raises(ContractError) as err:
            MultiViewBatch(views=[np.zeros((0, 2)), np.zeros((0, 3))], labels=labels)
        assert str(err.value) == "MultiViewBatch: at least one row required"
    # a file that declares 0 rows is refused at its header's byte
    path = tmp_path / "empty.mvds"
    path.write_bytes(MAGIC + struct.pack("<IIIB", VERSION, 1, 0, 0) + struct.pack("<I", 3))
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert str(err.value) == "dataset declares 0 samples (byte 12)"


def test_spec_validation():
    with pytest.raises(ContractError):
        SyntheticSpec(n_classes=5, n_samples=10, dims=[3])
    with pytest.raises(ContractError):
        SyntheticSpec(n_classes=2, n_samples=10, dims=[3], style_noise=-1.0)
    # what `mvx gen-data` refuses by flag name, the spec refuses too
    with pytest.raises(ContractError, match="at least one view"):
        SyntheticSpec(n_classes=2, n_samples=10, dims=[])
    for noise in (np.nan, np.inf):
        for key in ("style_noise", "background_noise"):
            with pytest.raises(ContractError, match="finite and >= 0"):
                SyntheticSpec(n_classes=2, n_samples=10, dims=[3], **{key: noise})
