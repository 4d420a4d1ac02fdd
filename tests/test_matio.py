import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_text_parse_matches_float_bitwise(tmp_path_factory, values):
    tokens = [f"{v:.17g}" for v in values]
    p = tmp_path_factory.mktemp("m") / "m.txt"
    p.write_text(f"1 {len(tokens)}\n" + " ".join(tokens) + "\n")
    expected = np.array([float(t) for t in tokens], dtype=np.float64)
    assert load_matrix_text(p).tobytes() == expected.tobytes()


def test_binary_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((9, 4))
    p = tmp_path / "m.bin"
    save_matrix_binary(p, m)
    out = load_matrix_binary(p)
    assert out.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), m.view(np.uint64))  # bit level


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
