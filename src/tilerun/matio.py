"""Matrix file formats.

Text: a header line ``rows cols`` followed by row-major whitespace
separated decimal values (line breaks are not significant).  Values are
written with 17 significant digits so float64 round-trips exactly.

Binary: a 16-byte header of two little-endian u64 (rows, cols) followed
by the row-major little-endian float64 payload.

``save_matrix`` / ``load_matrix`` pick the format from the file suffix:
``.bin`` means binary, anything else text.

A load holds the matrix once.  The text reader parses the values a block
of ``_BLOCK`` characters at a time into the preallocated result, and the
binary reader reads the payload straight into it, so beyond its result a
load needs one fixed block whatever the file's size or line layout.
Neither allocates from a header before checking it against the file's
size: a header that declares more values than the file can hold is the
same ``ValueError`` as any other wrong count.  A file with no size until
it is read, such as a pipe, is read into memory first.
"""

from __future__ import annotations

import contextlib
import io
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .tiles import as_matrix

_HEADER = struct.Struct("<QQ")
_BLOCK = 1 << 16  # characters of text parsed at a time


def save_matrix_text(path, m) -> None:
    m = as_matrix(m)
    with open(path, "w") as f:
        f.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            f.write(" ".join(f"{v:.17g}" for v in row))
            f.write("\n")


@contextlib.contextmanager
def _open_sized(path, mode):
    """Open ``path`` and yield the file and its size.  A file whose size
    is not known until it is read (a pipe, say) is read into memory."""
    with open(path, mode) as f:
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode):
            yield f, st.st_size
        else:
            data = f.read()
            yield (io.BytesIO if "b" in mode else io.StringIO)(data), len(data)


def _token_blocks(f):
    """The whitespace-separated tokens of the rest of ``f``, one list per
    block read.  A token cut by a block's end is carried into the next,
    piece by piece, so one spanning many blocks is joined only once."""
    carry = []  # the pieces of a token cut by block ends
    while block := f.read(_BLOCK):
        tokens = block.split()
        if tokens == [block]:  # no separator: the cut token goes on
            carry.append(block)
            continue
        if carry:
            if block[0].isspace():
                tokens.insert(0, "".join(carry))
            else:
                tokens[0] = "".join(carry) + tokens[0]
        carry = [] if block[-1].isspace() else [tokens.pop()]
        yield tokens
    if carry:
        yield ["".join(carry)]


def load_matrix_text(path) -> np.ndarray:
    with _open_sized(path, "r") as (f, size):
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header")
        rows, cols = int(header[0]), int(header[1])
        n = rows * cols
        # every value takes a character and a separator, so a file of S
        # characters (a regular file's bytes) holds at most (S + 1) // 2
        fits = rows >= 0 and cols >= 0 and n <= (size + 1) // 2
        values = np.empty(n) if fits else None
        count = 0
        for tokens in _token_blocks(f):
            end = count + len(tokens)
            if values is not None and end <= n:
                # numpy parses each token as float() does, bit for bit
                values[count:end] = np.array(tokens, dtype=np.float64)
            count = end
    if values is None or count != n:
        raise ValueError(f"{path}: expected {n} values for {rows}x{cols}, got {count}")
    return values.reshape(rows, cols)


def save_matrix_binary(path, m) -> None:
    m = as_matrix(m)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(m.shape[0], m.shape[1]))
        f.write(np.ascontiguousarray(m, dtype="<f8"))


def load_matrix_binary(path) -> np.ndarray:
    with _open_sized(path, "rb") as (f, size):
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        rows, cols = _HEADER.unpack(header)
        expected = rows * cols * 8
        got = size - _HEADER.size
        if got == expected:  # the header fits the file: read the payload into the result
            out = np.empty((rows, cols), dtype="<f8")
            got = f.readinto(out)  # short only if the file shrank since fstat
    if got != expected:
        raise ValueError(
            f"{path}: expected {expected} payload bytes for {rows}x{cols}, got {got}"
        )
    return out


def save_matrix(path, m) -> None:
    if Path(path).suffix == ".bin":
        save_matrix_binary(path, m)
    else:
        save_matrix_text(path, m)


def load_matrix(path) -> np.ndarray:
    if Path(path).suffix == ".bin":
        return load_matrix_binary(path)
    return load_matrix_text(path)
