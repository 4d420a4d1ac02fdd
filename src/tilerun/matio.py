"""Matrix file formats.

Text: a header line ``rows cols``, then row-major decimal values: an
optional sign, then ASCII digits with an optional point and exponent, or
``inf``, ``infinity`` or ``nan`` in any case, separated by what
``str.split()`` splits on (line breaks are not significant).  Values are
written with 17 significant digits so float64 round-trips exactly.

Binary: a 16-byte header of two little-endian u64 (rows, cols) followed
by the row-major little-endian float64 payload.

``save_matrix`` / ``load_matrix`` pick the format from the file suffix:
``.bin`` means binary, anything else text.

A load holds the matrix once.  numpy's C text reader parses a block of
``_BLOCK`` characters at a time into the preallocated result, and the
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


def _text_chunks(f):
    """The rest of ``f`` as strings of whole tokens, one per block read.  A
    token cut by block ends is carried on piece by piece, joined once."""
    carry = []  # the pieces of a token cut by block ends
    while block := f.read(_BLOCK):
        # split off the last token, unless whitespace ends the block
        *whole, cut = [block, ""] if block[-1].isspace() else block.rsplit(None, 1)
        if cut == block:  # no separator: the cut token goes on
            carry.append(block)
            continue
        chunk, carry = "".join(carry + whole), [cut] if cut else []
        if chunk and not chunk.isspace():
            yield chunk
    if carry:
        yield "".join(carry)


def _parse(text, path, first):
    """``text``'s values, which start at value ``first`` of ``path``."""
    try:
        return np.loadtxt([text.replace("\n", " ")], comments=None, ndmin=1)
    except ValueError:
        tokens = text.split()
        if len(tokens) > 1:  # parse token by token to name the first bad one
            for i, token in enumerate(tokens):
                _parse(token, path, first + i)
        raise ValueError(f"{path}: value {first} is not a decimal: {tokens[0]!r}") from None


def load_matrix_text(path) -> np.ndarray:
    with _open_sized(path, "r") as (f, size):
        try:
            rows, cols = map(int, f.readline().split())
        except ValueError:  # not two fields, or a field that is no integer
            raise ValueError(f"{path}: expected 'rows cols' header") from None
        n = rows * cols
        # every value takes a character and a separator, so a file of S
        # characters (a regular file's bytes) holds at most (S + 1) // 2
        fits = rows >= 0 and cols >= 0 and n <= (size + 1) // 2
        values = np.empty(n) if fits else None
        count = 0
        for chunk in _text_chunks(f):
            parsed = _parse(chunk, path, count)
            end = count + len(parsed)
            if values is not None and end <= n:
                values[count:end] = parsed
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
