"""Checkpoint file format: manifest + raw little-endian float32 blob."""

from pathlib import Path

import numpy as np
import pytest

from boneage.checkpoint import FORMAT_LINE, load_checkpoint, restore_params, save_checkpoint
from boneage.errors import CheckpointError
from boneage.tensor import Tensor


def _params(rng):
    return {
        "enc.w": Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32), requires_grad=True),
        "enc.b": Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True),
        "fc.w": Tensor(rng.standard_normal((10, 4)).astype(np.float32), requires_grad=True),
    }


def test_roundtrip_is_exact(tmp_path):
    params = _params(np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name, p in params.items():
        np.testing.assert_array_equal(loaded[name], p.data)


def test_file_layout(tmp_path):
    params = _params(np.random.default_rng(1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    header, blob = raw.split(b"\n\n", 1)
    lines = header.decode("ascii").splitlines()
    assert lines[0] == FORMAT_LINE
    assert lines[1].split() == ["enc.w", "3x2x3x3", "float32", "0"]
    # offsets advance by the byte size of each parameter
    assert lines[2].split() == ["enc.b", "3", "float32", str(3 * 2 * 3 * 3 * 4)]
    total = sum(int(np.prod(p.data.shape)) for p in params.values())
    assert len(blob) == 4 * total
    # blob is little-endian float32 in manifest order
    first = np.frombuffer(blob, dtype="<f4", count=3 * 2 * 3 * 3)
    np.testing.assert_array_equal(first.reshape(3, 2, 3, 3), params["enc.w"].data)


def test_missing_format_line_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"fmt=2\nx 1 float32 0\n\n" + b"\x00" * 4)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_blob_rejected(tmp_path):
    path = tmp_path / "trunc.ckpt"
    path.write_bytes(f"{FORMAT_LINE}\nx 4 float32 0\n\n".encode() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_nonexistent_file_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_restore_params_shape_and_name_checks(tmp_path):
    params = _params(np.random.default_rng(2))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)

    target = _params(np.random.default_rng(3))
    restore_params(target, loaded)
    np.testing.assert_array_equal(target["fc.w"].data, params["fc.w"].data)

    del loaded["fc.w"]
    with pytest.raises(CheckpointError, match="fc.w"):
        restore_params(_params(np.random.default_rng(4)), loaded)

    loaded2 = load_checkpoint(path)
    loaded2["fc.w"] = loaded2["fc.w"].reshape(4, 10)
    with pytest.raises(CheckpointError, match="shape"):
        restore_params(_params(np.random.default_rng(5)), loaded2)


def test_spaces_in_parameter_names_rejected(tmp_path):
    bad = {"a b": Tensor(np.zeros(1), requires_grad=True)}
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "x.ckpt", bad)


def test_negative_offset_rejected_with_line_number(tmp_path):
    path = tmp_path / "neg.ckpt"
    path.write_bytes(f"{FORMAT_LINE}\na 1 float32 0\nb 1 float32 -4\n\n".encode() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match=r"neg\.ckpt:3: negative offset"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", ["-1x4", "0x4", "4x0", "0"])
def test_extent_below_one_rejected_with_line_number(tmp_path, shape):
    # -1 would otherwise act as a reshape wildcard and load as (1, 4)
    path = tmp_path / "shape.ckpt"
    path.write_bytes(f"{FORMAT_LINE}\nw {shape} float32 0\n\n".encode() + b"\x00" * 16)
    with pytest.raises(CheckpointError, match=r"shape\.ckpt:2: .*extent below 1"):
        load_checkpoint(path)


def test_repeated_parameter_name_rejected_with_line_number(tmp_path):
    # the later line used to win silently
    path = tmp_path / "dup.ckpt"
    blob = np.array([1.0, 2.0], dtype="<f4").tobytes()
    path.write_bytes(f"{FORMAT_LINE}\nw 1 float32 0\nw 1 float32 4\n\n".encode() + blob)
    with pytest.raises(CheckpointError, match=r"dup\.ckpt:3: parameter 'w' listed twice"):
        load_checkpoint(path)


def test_overlapping_parameters_rejected_with_line_number(tmp_path):
    # 'v' used to load as a second view of w's data (or w[1]'s)
    path = tmp_path / "overlap.ckpt"
    blob = np.array([1.0, 2.0], dtype="<f4").tobytes()
    path.write_bytes(f"{FORMAT_LINE}\nw 2 float32 0\nv 1 float32 4\n\n".encode() + blob)
    with pytest.raises(CheckpointError, match=r"overlap\.ckpt:3: parameter 'v' starts at byte 4, not 8"):
        load_checkpoint(path)


def test_gap_before_a_parameter_rejected_with_line_number(tmp_path):
    # the skipped first 4 bytes used to go unread and 'w' loaded as 2.0
    path = tmp_path / "gap.ckpt"
    blob = np.array([7.0, 2.0], dtype="<f4").tobytes()
    path.write_bytes(f"{FORMAT_LINE}\nw 1 float32 4\n\n".encode() + blob)
    with pytest.raises(CheckpointError, match=r"gap\.ckpt:2: parameter 'w' starts at byte 4, not 0"):
        load_checkpoint(path)


def test_bytes_after_the_last_parameter_rejected(tmp_path):
    path = tmp_path / "long.ckpt"
    path.write_bytes(f"{FORMAT_LINE}\nw 2 float32 0\n\n".encode() + b"\x00" * 16)
    with pytest.raises(CheckpointError, match=r"long\.ckpt: 8 bytes after"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_parameter_rejected_naming_file_and_parameter(tmp_path, value):
    # a NaN bias used to load and print "nan" as a predicted age
    params = _params(np.random.default_rng(7))
    params["enc.b"].data[1] = value
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, params)
    with pytest.raises(CheckpointError, match=r"bad\.ckpt:3: parameter 'enc\.b' holds NaN or inf"):
        load_checkpoint(path)


def test_failed_save_leaves_the_previous_checkpoint_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _params(np.random.default_rng(5)))
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def half_then_fail(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, _params(np.random.default_rng(6)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
