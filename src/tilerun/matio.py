"""Matrix file formats.

Text: a header line ``rows cols`` followed by row-major whitespace
separated decimal values (line breaks are not significant).  Values are
written with 17 significant digits so float64 round-trips exactly.

Binary: a 16-byte header of two little-endian u64 (rows, cols) followed
by the row-major little-endian float64 payload.

``save_matrix`` / ``load_matrix`` pick the format from the file suffix:
``.bin`` means binary, anything else text.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .tiles import as_matrix

_HEADER = struct.Struct("<QQ")


def save_matrix_text(path, m) -> None:
    m = as_matrix(m)
    with open(path, "w") as f:
        f.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            f.write(" ".join(f"{v:.17g}" for v in row))
            f.write("\n")


def load_matrix_text(path) -> np.ndarray:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header")
        rows, cols = int(header[0]), int(header[1])
        values = f.read().split()
    if len(values) != rows * cols:
        raise ValueError(
            f"{path}: expected {rows * cols} values for {rows}x{cols}, got {len(values)}"
        )
    # numpy parses each token as float() does, bit for bit
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def save_matrix_binary(path, m) -> None:
    m = as_matrix(m)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(m.shape[0], m.shape[1]))
        f.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_matrix_binary(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    rows, cols = _HEADER.unpack_from(raw)
    payload = raw[_HEADER.size :]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: expected {expected} payload bytes for {rows}x{cols}, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def save_matrix(path, m) -> None:
    if Path(path).suffix == ".bin":
        save_matrix_binary(path, m)
    else:
        save_matrix_text(path, m)


def load_matrix(path) -> np.ndarray:
    if Path(path).suffix == ".bin":
        return load_matrix_binary(path)
    return load_matrix_text(path)
