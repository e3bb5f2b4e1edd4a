"""Model checkpoint serialization.

One file per checkpoint: a text manifest, then the raw parameter data.

    format=1
    <name> <d0xd1x...> float32 <byte-offset>
    ...
    <blank line>
    <little-endian float32 blob, parameters in manifest order>

Offsets are relative to the start of the blob, and each parameter's data
starts where the previous one's ends. Checkpoints hold
parameter values only; model geometry is rebuilt from config. Files
are replaced atomically (``write_atomic``), so a failed save leaves the
previous checkpoint as it was.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

FORMAT_LINE = "format=1"


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``: readers see the old file or the new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: Dict[str, Tensor]) -> None:
    """Write named parameters to ``path`` in manifest order (dict order)."""
    lines = [FORMAT_LINE]
    blobs = []
    offset = 0
    for name, p in params.items():
        arr = np.asarray(p.data, dtype="<f4")
        if " " in name:
            raise CheckpointError(f"parameter name {name!r} may not contain spaces")
        shape_token = "x".join(str(d) for d in arr.shape) if arr.ndim else "1"
        lines.append(f"{name} {shape_token} float32 {offset}")
        raw = arr.tobytes()
        blobs.append(raw)
        offset += len(raw)
    header = ("\n".join(lines) + "\n\n").encode("ascii")
    write_atomic(path, header + b"".join(blobs))


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    """Read a checkpoint back as name -> float32 array of finite values."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError(f"{path}: no manifest/blob separator found")
    manifest = raw[:sep].decode("ascii", errors="replace").splitlines()
    blob = memoryview(raw)[sep + 2 :]
    if not manifest or manifest[0].strip() != FORMAT_LINE:
        raise CheckpointError(f"{path}: missing '{FORMAT_LINE}' header line")
    out: Dict[str, np.ndarray] = {}
    blob_end = 0  # where the next parameter's data must start
    for lineno, line in enumerate(manifest[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise CheckpointError(f"{path}:{lineno}: malformed manifest line {line!r}")
        name, shape_token, dtype, offset_s = parts
        if dtype != "float32":
            raise CheckpointError(f"{path}:{lineno}: unsupported dtype {dtype!r}")
        try:
            shape = tuple(int(d) for d in shape_token.split("x"))
            offset = int(offset_s)
        except ValueError as exc:
            raise CheckpointError(f"{path}:{lineno}: bad shape or offset") from exc
        if offset < 0 or any(d < 1 for d in shape):
            raise CheckpointError(f"{path}:{lineno}: negative offset or extent below 1 in {line!r}")
        if name in out:
            raise CheckpointError(f"{path}:{lineno}: parameter {name!r} listed twice")
        if offset != blob_end:
            raise CheckpointError(f"{path}:{lineno}: parameter {name!r} starts at byte {offset}, not {blob_end}")
        count = int(np.prod(shape)) if shape else 1
        blob_end += 4 * count
        if blob_end > len(blob):
            raise CheckpointError(f"{path}:{lineno}: blob truncated for {name!r}")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}:{lineno}: parameter {name!r} holds NaN or inf")
        out[name] = arr.reshape(shape).astype(np.float32)
    if len(blob) > blob_end:
        raise CheckpointError(
            f"{path}: {len(blob) - blob_end} bytes after the last parameter's data"
        )
    return out


def restore_params(params: Dict[str, Tensor], loaded: Dict[str, np.ndarray], source: str = "checkpoint") -> None:
    """Put loaded arrays into an existing parameter dict, name- and
    shape-checked. The parameters take the arrays over without a copy,
    so pass arrays nothing else holds, as ``load_checkpoint`` returns."""
    missing = sorted(set(params) - set(loaded))
    extra = sorted(set(loaded) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"{source}: parameter names do not match model (missing={missing}, extra={extra})"
        )
    for name, p in params.items():
        arr = loaded[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"{source}: {name!r} has shape {arr.shape}, model expects {p.data.shape}"
            )
        p.data = arr.astype(np.float32, copy=False)
