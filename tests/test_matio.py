import os
import re
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilerun import cli, matio
from tilerun.matio import (
    load_matrix,
    load_matrix_binary,
    load_matrix_text,
    save_matrix,
    save_matrix_binary,
    save_matrix_text,
)


def test_text_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 5))
    p = tmp_path / "m.txt"
    save_matrix_text(p, m)
    assert np.array_equal(load_matrix_text(p), m)


def test_text_header_and_layout(tmp_path):
    p = tmp_path / "m.txt"
    save_matrix_text(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = p.read_text().splitlines()
    assert lines[0] == "2 2"
    assert lines[1].split() == ["1", "2"]


def test_text_accepts_free_form_whitespace(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 3\n1 2\n3\n4 5 6\n")
    assert np.array_equal(load_matrix_text(p), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_text_rejects_wrong_count(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n1 2 3\n")
    with pytest.raises(ValueError):
        load_matrix_text(p)


def test_text_rejects_more_values_than_declared(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n1 2 3 4 5\n")
    with pytest.raises(ValueError, match="expected 4 values for 2x2, got 5$"):
        load_matrix_text(p)


@pytest.mark.parametrize("content", ["-1 2\n1 2\n", "-1 -1\n5\n", "-2 -3\n1 2 3 4 5 6\n"])
def test_text_rejects_negative_dimensions(tmp_path, content):
    p = tmp_path / "m.txt"
    p.write_text(content)
    with pytest.raises(ValueError):
        load_matrix_text(p)


# 10**10 values declared in a 20-byte file, one file per format
HUGE_HEADERS = {
    "m.txt": b"100000 100000\n1 2 3\n",
    "m.bin": (100_000).to_bytes(8, "little") * 2 + bytes(4),
}


@pytest.mark.parametrize("name", sorted(HUGE_HEADERS))
def test_a_header_the_file_cannot_hold_allocates_nothing(tmp_path, name):
    p = tmp_path / name
    p.write_bytes(HUGE_HEADERS[name])
    assert p.stat().st_size == 20
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="for 100000x100000, got"):
            load_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("name", sorted(HUGE_HEADERS))
def test_gemm_on_a_header_the_file_cannot_hold_exits_2(tmp_path, capsys, name):
    pa = tmp_path / name
    pa.write_bytes(HUGE_HEADERS[name])
    pb = tmp_path / "b.txt"
    save_matrix_text(pb, np.eye(2))
    assert cli.main(["gemm", "--a", str(pa), "--b", str(pb)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "100000x100000" in err[0], err


@pytest.mark.parametrize("one_line", [False, True], ids=["row-per-line", "one-line"])
def test_text_load_memory_is_one_block_beyond_the_result(tmp_path, one_line):
    # A token list of the whole file peaks at about 6.4 MB here; the
    # result is 0.5 MB.
    m = np.random.default_rng(3).uniform(-1.0, 1.0, (256, 256))
    p = tmp_path / "m.txt"
    rows = [" ".join(f"{v:.17g}" for v in row) for row in m]
    p.write_text("256 256\n" + ("  " if one_line else "\n").join(rows) + "\n")
    tracemalloc.start()
    try:
        out = load_matrix_text(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.tobytes() == m.tobytes()
    assert peak < m.nbytes + 2_000_000, peak


def test_tokens_cut_by_block_ends_parse_as_float(tmp_path):
    block = matio._BLOCK
    exact = "0." + "0" * (block - 3) + "1"  # ends where the first block ends
    spanning = "1." + "0" * (3 * block) + "25"  # fills whole blocks
    tokens = [exact, "2.5", spanning, "-3", spanning]
    p = tmp_path / "m.txt"
    p.write_text(f"1 {len(tokens)}\n" + " ".join(tokens))
    expected = np.array([float(t) for t in tokens], dtype=np.float64)
    assert load_matrix_text(p).tobytes() == expected.tobytes()


TOKEN_FORMATS = ["{:.17g}", "{:.3g}", "{:.6e}", "{:.0f}", "{!r}", "{:+.17e}"]


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
    formats=st.lists(st.sampled_from(TOKEN_FORMATS), min_size=1, max_size=5),
    seps=st.lists(st.sampled_from([" ", "\n", "\t", "  ", " \r\n", "\n\n   "]),
                  min_size=1, max_size=5),
    lead=st.integers(0, 97),
    tail=st.sampled_from(["", "\n"]),
)
def test_text_parse_across_blocks_matches_float_bitwise(tmp_path_factory, values, formats,
                                                        seps, lead, tail):
    # The drawn tokens repeat until the file spans several blocks; varying
    # token lengths and a leading run of blanks move where the blocks end.
    pattern = [formats[i % len(formats)].format(v) for i, v in enumerate(values)]
    width = sum(map(len, pattern)) + len(pattern)
    tokens = pattern * (3 * matio._BLOCK // width + 1)
    body = " " * lead + "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens))
    p = tmp_path_factory.mktemp("m") / "m.txt"
    with open(p, "w", newline="") as f:  # keep "\r\n" as written
        f.write(f"1 {len(tokens)}\n" + body.rstrip() + tail)
    expected = np.array([float(t) for t in tokens], dtype=np.float64)
    assert load_matrix_text(p).tobytes() == expected.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_text_parse_matches_float_bitwise(tmp_path_factory, values):
    tokens = [f"{v:.17g}" for v in values]
    p = tmp_path_factory.mktemp("m") / "m.txt"
    p.write_text(f"1 {len(tokens)}\n" + " ".join(tokens) + "\n")
    expected = np.array([float(t) for t in tokens], dtype=np.float64)
    assert load_matrix_text(p).tobytes() == expected.tobytes()


# float() reads these (a digit-group underscore, Arabic-Indic 12), the
# text grammar does not
NON_DECIMALS = {"1_0": 10.0, "\u0661\u0662": 12.0}


@pytest.mark.parametrize("token", sorted(NON_DECIMALS))
def test_text_rejects_tokens_only_float_accepts(tmp_path, token):
    assert float(token) == NON_DECIMALS[token]
    p = tmp_path / "m.txt"
    p.write_text(f"1 3\n1 {token} 3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: value 1 is not a decimal: "
                                         f"{re.escape(repr(token))}$"):
        load_matrix_text(p)


def test_text_separators_are_those_of_str_split(tmp_path):
    spaces = [chr(c) for c in range(0x3001) if chr(c).isspace()]
    assert len(spaces) == 29
    p = tmp_path / "m.txt"
    with open(p, "w", newline="") as f:
        f.write(f"1 {len(spaces) + 1}\n0")
        f.write("".join(f"{c}{i + 1}{c}{c}" for i, c in enumerate(spaces)))
    assert np.array_equal(load_matrix_text(p), [np.arange(len(spaces) + 1.0)])


SPECIAL_TOKENS = ["inf", "-inf", "nan", "-nan", "-0", "4.9406564584124654e-324",
                  "2.2250738585072011e-308", "1.7976931348623159e308"]


@pytest.mark.parametrize("cut", [False, True], ids=["inside-a-block", "cut-by-a-block-end"])
def test_special_tokens_load_as_float_reads_them(tmp_path, cut):
    p = tmp_path / "m.txt"
    for token in SPECIAL_TOKENS:
        # a lead of blanks puts the token's first character last in block one
        lead = " " * (matio._BLOCK - 1) if cut else ""
        p.write_text(f"1 2\n{lead}{token} 1")
        expected = np.array([float(token), 1.0])
        assert load_matrix_text(p).tobytes() == expected.tobytes(), token
    assert np.signbit(float("-nan")) and float("1.7976931348623159e308") == np.inf


def test_blocks_of_blanks_parse_nothing(tmp_path):
    # block one is "1" and blanks, blocks two and three only blanks, block
    # four a blank and the start of a token that ends in block five
    block = matio._BLOCK
    long = "0." + "2" * block
    p = tmp_path / "m.txt"
    p.write_text("1 2\n1" + " " * (3 * block) + long + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on text with no values
        out = load_matrix_text(p)
    assert out.tobytes() == np.array([1.0, float(long)]).tobytes()


FULL_BLOCK = matio._BLOCK // 2  # the values "1 " that fill the first block


@pytest.mark.parametrize("content, message", [
    ("1 6\n1 2 3 abc 5 6\n", "value 3 is not a decimal: 'abc'"),
    (f"1 {FULL_BLOCK + 2}\n" + "1 " * FULL_BLOCK + "abc 2\n",
     f"value {FULL_BLOCK} is not a decimal: 'abc'"),
    (f"1 {FULL_BLOCK + 1}\n" + "1 " * (FULL_BLOCK - 1) + "1_0 2\n",
     f"value {FULL_BLOCK - 1} is not a decimal: '1_0'"),
    ("2.0 2\n1 2 3 4\n", "expected 'rows cols' header"),
], ids=["first-block", "after-a-block-end", "cut-by-a-block-end", "non-integer-header"])
def test_gemm_on_a_bad_text_file_names_it(tmp_path, capsys, content, message):
    pa = tmp_path / "bad.txt"
    pa.write_text(content)
    pb = tmp_path / "b.txt"
    save_matrix_text(pb, np.eye(2))
    assert cli.main(["gemm", "--a", str(pa), "--b", str(pb)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"error: {pa}: {message}"]


def test_binary_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((9, 4))
    p = tmp_path / "m.bin"
    save_matrix_binary(p, m)
    out = load_matrix_binary(p)
    assert out.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), m.view(np.uint64))  # bit level


@pytest.mark.parametrize("header", ["", "3\n1 2 3\n", "1 3 1\n1 2 3\n"],
                         ids=["empty", "one-field", "three-fields"])
def test_text_rejects_a_header_without_two_fields(tmp_path, header):
    p = tmp_path / "m.txt"
    p.write_text(header)
    with pytest.raises(ValueError, match="expected 'rows cols' header$"):
        load_matrix_text(p)


@pytest.mark.parametrize("size", [0, 8, 15])
def test_binary_rejects_a_truncated_header(tmp_path, size):
    p = tmp_path / "m.bin"
    p.write_bytes(bytes(size))
    with pytest.raises(ValueError, match="truncated header$"):
        load_matrix_binary(p)


def test_binary_header_is_16_bytes_le(tmp_path):
    p = tmp_path / "m.bin"
    save_matrix_binary(p, np.zeros((3, 2)))
    raw = p.read_bytes()
    assert len(raw) == 16 + 3 * 2 * 8
    assert int.from_bytes(raw[:8], "little") == 3
    assert int.from_bytes(raw[8:16], "little") == 2


def test_binary_rejects_truncation(tmp_path):
    p = tmp_path / "m.bin"
    save_matrix_binary(p, np.zeros((2, 2)))
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(ValueError):
        load_matrix_binary(p)


def test_binary_rejects_extra_payload_bytes(tmp_path):
    p = tmp_path / "m.bin"
    save_matrix_binary(p, np.zeros((2, 2)))
    p.write_bytes(p.read_bytes() + bytes(3))
    with pytest.raises(ValueError, match="expected 32 payload bytes for 2x2, got 35$"):
        load_matrix_binary(p)


def test_binary_rejects_a_file_that_shrinks_while_read(tmp_path, monkeypatch):
    p = tmp_path / "m.bin"
    save_matrix_binary(p, np.ones((1, 2)))
    p.write_bytes(p.read_bytes()[:-8])

    def fstat(fd, fstat=os.fstat):  # the size seen before the payload was cut
        st = fstat(fd)
        return SimpleNamespace(st_mode=st.st_mode, st_size=st.st_size + 8)

    monkeypatch.setattr(os, "fstat", fstat)
    with pytest.raises(ValueError, match="expected 16 payload bytes for 1x2, got 8$"):
        load_matrix_binary(p)


def test_binary_writer_writes_the_array_bytes(tmp_path):
    m = np.arange(12.0).reshape(3, 4)
    for layout in (m, np.asfortranarray(m), m.astype(">f8"), m.astype(np.float32)):
        p = tmp_path / "m.bin"
        save_matrix_binary(p, layout)
        assert p.read_bytes() == (3).to_bytes(8, "little") + (4).to_bytes(8, "little") + \
            m.astype("<f8").tobytes()


@pytest.mark.parametrize("name", ["m.txt", "m.bin"])
def test_a_pipe_loads_like_a_file(tmp_path, name):
    m = np.random.default_rng(4).standard_normal((3, 40_000))  # text spans many blocks
    src = tmp_path / name
    save_matrix(src, m)
    fifo = tmp_path / ("fifo" + src.suffix)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(src.read_bytes()), daemon=True)
    writer.start()
    try:
        out = load_matrix(fifo)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert out.tobytes() == m.tobytes()


def test_suffix_dispatch(tmp_path):
    m = np.array([[1.5, -2.5]])
    pb = tmp_path / "m.bin"
    pt = tmp_path / "m.txt"
    save_matrix(pb, m)
    save_matrix(pt, m)
    assert pb.read_bytes()[:8] == (1).to_bytes(8, "little")
    assert pt.read_text().startswith("1 2\n")
    assert np.array_equal(load_matrix(pb), m)
    assert np.array_equal(load_matrix(pt), m)
