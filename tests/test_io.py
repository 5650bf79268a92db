import json
import math
import struct
import warnings

import numpy as np
import pytest

from circembed import io as circembed_io
from circembed.errors import ParseError
from circembed.geometry import angular_distance, coherence
from circembed.io import (
    ResultDocument,
    _canonical_codes,
    _jsonable,
    _parse_codes,
    generate_pointset,
    load_codes,
    load_pointset,
    load_pointset_csv,
    load_result,
    save_codes,
    save_pairs,
    save_pointset,
    save_pointset_csv,
    save_result,
)
from circembed.rng import Stream


def write_pset(path, rows):
    rows = np.asarray(rows, dtype="<f8")
    N, n = rows.shape
    path.write_bytes(b"PSET1" + struct.pack("<QQ", n, N) + rows.tobytes())


# ---------------------------------------------------------------- binary

def test_pset_file_size(tmp_path):
    ps = generate_pointset("flat_signs", 16, 4, 0)
    p = tmp_path / "a.pset"
    save_pointset(ps, p)
    assert p.stat().st_size == 21 + 8 * 4 * 16 == 533


def test_pset_round_trip_bit_exact(tmp_path):
    ps = generate_pointset("uniform_sphere", 8, 3, 7)
    p = tmp_path / "a.pset"
    save_pointset(ps, p)
    back = load_pointset(p)
    np.testing.assert_array_equal(back.points, ps.points)


def test_pset_bad_magic(tmp_path):
    p = tmp_path / "bad.pset"
    p.write_bytes(b"XSET1" + bytes(528))
    with pytest.raises(ParseError) as ei:
        load_pointset(p)
    assert ei.value.offset == 0


def test_pset_truncated_header(tmp_path):
    p = tmp_path / "short.pset"
    p.write_bytes(b"PSET1\x01\x02")
    with pytest.raises(ParseError) as ei:
        load_pointset(p)
    assert ei.value.offset == 7


def test_pset_length_mismatch(tmp_path):
    p = tmp_path / "len.pset"
    p.write_bytes(b"PSET1" + struct.pack("<QQ", 4, 2) + bytes(8 * 7))
    with pytest.raises(ParseError) as ei:
        load_pointset(p)
    assert ei.value.offset == 21 + 8 * 7  # file ends before the declared payload


def test_pset_bad_header_counts(tmp_path):
    p = tmp_path / "hdr.pset"
    p.write_bytes(b"PSET1" + struct.pack("<QQ", 1, 2) + bytes(16))  # n = 1
    with pytest.raises(ParseError) as ei:
        load_pointset(p)
    assert ei.value.offset == 5


def test_pset_non_finite_offset(tmp_path):
    rows = np.eye(4)[:2].copy()
    rows[1, 2] = np.nan  # flat index 6
    p = tmp_path / "nan.pset"
    write_pset(p, rows)
    with pytest.raises(ParseError) as ei:
        load_pointset(p)
    assert ei.value.offset == 21 + 8 * 6


def test_pset_zero_row_offset(tmp_path):
    rows = np.vstack([np.eye(3)[0], np.zeros(3)])
    p = tmp_path / "zero.pset"
    write_pset(p, rows)
    with pytest.raises(ParseError) as ei:
        load_pointset(p)
    assert ei.value.offset == 21 + 8 * 3  # start of row 1


def test_unit_policy_tiers(tmp_path):
    base = np.eye(3)[:1]
    # within 1e-9: bytes pass through untouched
    near = base * (1.0 + 5e-10)
    p = tmp_path / "near.pset"
    write_pset(p, near)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_pointset(p)
    np.testing.assert_array_equal(got.points, near)
    # between 1e-9 and 1e-6: silent renormalization
    mid = base * (1.0 + 1e-7)
    p2 = tmp_path / "mid.pset"
    write_pset(p2, mid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_pointset(p2)
    np.testing.assert_allclose(got.points, base, atol=1e-15)
    # beyond 1e-6: renormalized with a warning
    far = base * 2.0
    p3 = tmp_path / "far.pset"
    write_pset(p3, far)
    with pytest.warns(UserWarning, match="renormalizing"):
        got = load_pointset(p3)
    np.testing.assert_allclose(got.points, base, atol=1e-15)


def test_rows_left_off_unit_by_renormalizing_are_refused(tmp_path):
    # the norm of a row near either end of the float64 range is inexact,
    # so dividing by it does not make the row unit
    p = tmp_path / "extreme.pset"
    for rows, bad in (([[1.0, 0.0], [1e200, 1e200]], 1), ([[1e-160, 3e-160], [0.0, 1.0]], 0)):
        write_pset(p, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match=f"^row {bad} has norm .*; rows must be unit within 1e-9$") as ei:
                load_pointset(p)
        assert not isinstance(ei.value, ParseError)


@pytest.mark.parametrize("kind", ["uniform_sphere", "flat_signs", "spiky", "clustered_pairs"])
def test_loaded_pointset_is_bitwise_the_saved_one(tmp_path, kind):
    ps = generate_pointset(kind, 64, 50, 11)
    for save, load, name in ((save_pointset, load_pointset, "a.pset"), (save_pointset_csv, load_pointset_csv, "a.csv")):
        save(ps, tmp_path / name)
        back = load(tmp_path / name).points
        assert back.dtype == np.float64 and back.shape == ps.points.shape
        assert back.tobytes() == ps.points.tobytes()


# ---------------------------------------------------------------- csv

def test_csv_round_trip_exact(tmp_path):
    ps = generate_pointset("uniform_sphere", 6, 5, 3)
    p = tmp_path / "pts.csv"
    save_pointset_csv(ps, p)
    assert p.read_text().startswith("dim=6\n")
    back = load_pointset_csv(p)
    # 17 significant digits round-trip float64 exactly
    np.testing.assert_array_equal(back.points, ps.points)


def test_csv_missing_header(tmp_path):
    p = tmp_path / "rows.csv"
    p.write_text("1.0,0.0\n")
    with pytest.raises(ParseError) as ei:
        load_pointset_csv(p)
    assert ei.value.offset == 0


def test_csv_field_count_offset(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("dim=2\n1.0,0.0\n0.0,1.0,9.0\n")
    with pytest.raises(ParseError) as ei:
        load_pointset_csv(p)
    assert ei.value.offset == len("dim=2\n1.0,0.0\n")


def test_csv_unparseable_float(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("dim=2\nfoo,0.0\n")
    with pytest.raises(ParseError):
        load_pointset_csv(p)


def _bad_line_offset(lines, bad):
    """Byte offset of line ``bad`` in the UTF-8 encoding of ``lines``."""
    return len("".join(lines[:bad]).encode())


@pytest.mark.parametrize("nl", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("0.0,nan", "non-finite value at row 1, column 1"),
        ("-inf,0.0", "non-finite value at row 1, column 0"),
        ("0.0,0.0", "row 1 is all zeros"),
        ("foo,0.0", "unparseable float"),
        ("0.0,1.0,2.0", "expected 2 fields, got 3"),
    ],
)
def test_csv_errors_name_the_byte_offset_of_their_line(tmp_path, nl, row, message):
    lines = ["dim=2" + nl, nl, "1.0,0.0" + nl, "  " + nl, row + nl, "0.0,1.0" + nl]
    p = tmp_path / "pts.csv"
    p.write_bytes("".join(lines).encode())
    with pytest.raises(ParseError, match=message) as ei:
        load_pointset_csv(p)
    assert ei.value.offset == _bad_line_offset(lines, 4)


def test_csv_offsets_count_bytes_not_characters(tmp_path):
    # float() strips the no-break space, which takes two bytes in UTF-8
    lines = ["dim=2\n", "\u00a01.0,0.0\n", "foo,0.0\n"]
    p = tmp_path / "pts.csv"
    p.write_bytes("".join(lines).encode())
    with pytest.raises(ParseError) as ei:
        load_pointset_csv(p)
    assert ei.value.offset == _bad_line_offset(lines, 2) == 16


def test_csv_not_utf8_is_parse_error(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_bytes(b"dim=2\n1.0,\xff0.0\n")
    with pytest.raises(ParseError, match="UTF-8") as ei:
        load_pointset_csv(p)
    assert ei.value.offset == 10


# ---------------------------------------------------------------- codes

def test_codes_round_trip(tmp_path):
    codes = Stream(0, "codes").rademacher(24).reshape(4, 6).astype(np.int8)
    p = tmp_path / "codes.csv"
    save_codes(codes, p)
    first = p.read_text().splitlines()[0]
    assert set(first.split(",")) <= {"+1", "-1"}
    np.testing.assert_array_equal(load_codes(p), codes)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (40, 64)])
def test_codes_bytes_match_per_entry_formula(tmp_path, shape):
    values = Stream(1, "codes:bytes").normals(shape[0] * shape[1]).reshape(shape)
    values[values < -0.5] = 0.0  # zero entries are written as -1
    for codes in (values, np.sign(values).astype(np.int8)):
        p = tmp_path / "codes.csv"
        save_codes(codes, p)
        expected = "".join(",".join("+1" if v > 0 else "-1" for v in row) + "\n" for row in codes)
        assert p.read_bytes() == expected.encode()


@pytest.mark.parametrize("codes", [np.ones(4), np.ones((2, 0)), np.ones((2, 2, 2))])
def test_codes_rejects_non_matrix(tmp_path, codes):
    with pytest.raises(ValueError, match="N x k"):
        save_codes(codes, tmp_path / "codes.csv")


def _line_parse(path):
    """What the line parser makes of a file: the codes, or the error and its offset."""
    try:
        return _parse_codes(path.read_bytes())
    except ParseError as e:
        return str(e), e.offset


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (40, 64), (1000, 256)])
def test_codes_canonical_parse_matches_line_parser(tmp_path, shape):
    codes = Stream(2, "codes:canonical").rademacher(shape[0] * shape[1]).reshape(shape)
    p = tmp_path / "codes.csv"
    save_codes(codes, p)
    fast = _canonical_codes(p.read_bytes())
    assert fast is not None and fast.dtype == np.int8
    np.testing.assert_array_equal(fast, _line_parse(p))
    np.testing.assert_array_equal(load_codes(p), codes)


@pytest.mark.parametrize(
    "text",
    [
        "1,-1\n-1,1\n",  # hand-written 1
        "+1,-1\n\n-1,+1\n",  # blank line
        "+1,-1\r\n-1,+1\r\n",  # CRLF
        "+1,-1\n-1,+1",  # no final newline
        "+1,-1\n-1,+1\n\n",
        "+1,0\n",
        "+1,+2\n",
        "+1,-1\n+1;-1\n",
        "+1,-1\n+1\n-1\n",
        "+1,-1\n+1,-1,+1\n",
        "*1,-1\n",
        "",
        "\n\n",
    ],
)
def test_codes_other_layouts_take_the_line_parser(tmp_path, text):
    p = tmp_path / "codes.csv"
    p.write_bytes(text.encode())
    assert _canonical_codes(p.read_bytes()) is None
    expected = _line_parse(p)
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as ei:
            load_codes(p)
        assert (str(ei.value), ei.value.offset) == expected
    else:
        np.testing.assert_array_equal(load_codes(p), expected)


def test_codes_rejects_bad_token(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("+1,0\n")
    with pytest.raises(ParseError):
        load_codes(p)


def test_codes_rejects_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("+1,-1\n+1,-1,+1\n")
    with pytest.raises(ParseError) as ei:
        load_codes(p)
    assert ei.value.offset == len("+1,-1\n")


@pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"])
def test_codes_errors_name_the_byte_offset_of_their_line(tmp_path, nl):
    lines = ["+1,-1" + nl, "+1,-1" + nl, nl, "+1,0" + nl]
    p = tmp_path / "codes.csv"
    p.write_bytes("".join(lines).encode())
    with pytest.raises(ParseError, match="got '0'") as ei:
        load_codes(p)
    assert ei.value.offset == _bad_line_offset(lines, 3)


def test_codes_cr_only_lines_parse(tmp_path):
    p = tmp_path / "codes.csv"
    p.write_bytes(b"+1,-1\r-1,1\r\r+1,+1\r")
    np.testing.assert_array_equal(load_codes(p), [[1, -1], [-1, 1], [1, 1]])


def test_codes_not_utf8_is_parse_error(tmp_path):
    p = tmp_path / "codes.csv"
    p.write_bytes(b"+1,-1\n+1,\xff1\n")
    with pytest.raises(ParseError, match="UTF-8") as ei:
        load_codes(p)
    assert ei.value.offset == 9


# ---------------------------------------------------------------- results

def test_result_document_round_trip(tmp_path):
    doc = ResultDocument(
        kind="eval",
        params={"n": 8, "seed": 3, "delta": 0.15},
        stats={"max_distortion": 0.01},
        arrays={"worst_per_point": [0.1, 0.2]},
    )
    p = tmp_path / "doc.json"
    save_result(doc, p)
    text = p.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["schema_version"] == "2"
    # keys are sorted for byte-stable output
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    back = load_result(p)
    assert back == doc


_BIG = 2**53 + 1  # not exactly representable as a float


# payload shapes a report may hold: tuples of rows, huge ints, bool, NaN,
# inf, ragged and empty tables, nested dicts and numpy values
@pytest.mark.parametrize(
    "arrays",
    [
        {"per_pair": ((0, 1, -0.0, 5e-324, 1e-300), (_BIG, 2**70, 0.1, 1e16, -2.5e-8))},
        {"per_pair": ()},  # N = 1
        {"per_pair": ((0, 1, True, 0.5), (0, 2, False, 0.25))},
        {"per_pair": ((0, 1, 0.5), (0, 2, math.nan))},
        {"per_pair": ((0, 1, math.inf), (0, 2, -math.inf))},
        {"per_pair": ((0, 1, 0.5), (0, 2))},  # ragged
        {"per_pair": [(0, 1, 0.5), (0, 2, 0.25)], "lists": ([0, 1], [2, 3])},
        {"per_pair": ((), ()), "scalars": ((np.int64(1), np.float64(0.5)),)},
        {"v": np.arange(3.0), "m": np.eye(2), "i": np.int32(7), "f": np.float32(0.25)},
        {"per_pair": ((0, 1, 0.125),), "other": ((3, 4), (5, 6)), "z": {"nested": ((7, 8.5),)}},
    ],
)
def test_result_writer_matches_json_dumps(tmp_path, arrays):
    doc = ResultDocument(
        kind="eval", params={"n": 8, "k": np.int64(4)}, stats={"m": 0.5, "rows": ((1, 2.0),)}, arrays=arrays
    )
    payload = {
        "schema_version": "2",
        "kind": doc.kind,
        "params": doc.params,
        "stats": doc.stats,
        "arrays": doc.arrays,
    }
    expected = json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"
    assert doc.to_json() == expected
    p = tmp_path / "doc.json"
    save_result(doc, p)
    assert p.read_bytes() == expected.encode()


def test_result_writer_refuses_before_writing(tmp_path):
    p = tmp_path / "doc.json"
    bad = ResultDocument(kind="x", params={"f": object()}, stats={}, arrays={"per_pair": ((0, 1, 0.5),)})
    with pytest.raises(TypeError):
        save_result(bad, p)
    assert not p.exists()


def test_pair_table_rows_are_repr_values_across_chunks(tmp_path, monkeypatch):
    i = np.array([0, 0, 1, 2, 3])
    j = i + 1
    ham = np.array([0.0, 0.5, 1.0, 0.125, 1 / 3])
    ang = np.array([5e-324, 0.1, 1.0, 1e-300, 0.3333333333333333])
    pairs = (i, j, ham, ang, np.abs(ham - ang))
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    save_pairs(pairs, whole)
    monkeypatch.setattr(circembed_io, "_PAIRS_PER_CHUNK", 2)
    save_pairs(pairs, chunked)
    assert chunked.read_bytes() == whole.read_bytes()
    header, *rows = whole.read_text().splitlines()
    assert header == "i,j,hamming,angular,diff"
    assert rows == [",".join([str(a), str(b)] + [repr(float(v)) for v in vals])
                    for a, b, *vals in zip(i.tolist(), j.tolist(), *(c.tolist() for c in pairs[2:]))]
    save_pairs(tuple(c[:0] for c in pairs), whole)  # N = 1: a header and no rows
    assert whole.read_text() == "i,j,hamming,angular,diff\n"


def test_result_document_rejects_wrong_version():
    text = json.dumps({"schema_version": "3", "kind": "x", "params": {}, "stats": {}})
    with pytest.raises(ParseError):
        ResultDocument.from_json(text)


def test_result_document_reads_schema_version_1(tmp_path):
    # an eval report as versions before "2" wrote it, with its per-pair table
    p = tmp_path / "old.json"
    p.write_text(json.dumps({"schema_version": "1", "kind": "eval", "params": {"N": 2},
                             "stats": {"max_distortion": 0.25},
                             "arrays": {"per_pair": [[0, 1, 0.5, 0.25, 0.25]]}}, sort_keys=True, indent=2))
    doc = load_result(p)
    assert (doc.schema_version, doc.kind, doc.stats) == ("1", "eval", {"max_distortion": 0.25})
    assert doc.arrays["per_pair"] == [[0, 1, 0.5, 0.25, 0.25]]


def test_result_document_rejects_missing_key():
    text = json.dumps({"schema_version": "1", "kind": "x", "params": {}})
    with pytest.raises(ParseError, match="stats"):
        ResultDocument.from_json(text)


def test_result_document_rejects_invalid_json():
    with pytest.raises(ParseError):
        ResultDocument.from_json("{nope")


def test_load_result_not_utf8_is_parse_error(tmp_path):
    p = tmp_path / "doc.json"
    p.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(ParseError, match="UTF-8") as ei:
        load_result(p)
    assert ei.value.offset == 10


def test_result_document_json_error_offset_counts_bytes():
    text = '{"kind": "\u00e9", nope}'
    with pytest.raises(ParseError) as ei:
        ResultDocument.from_json(text)
    assert ei.value.offset == text.encode().index(b"nope")


def test_result_document_coerces_numpy_scalars():
    doc = ResultDocument(
        kind="x",
        params={"k": np.int64(4)},
        stats={"m": np.float64(0.5), "v": np.arange(3.0)},
    )
    payload = json.loads(doc.to_json())
    assert payload["params"]["k"] == 4
    assert payload["stats"]["v"] == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------- generators

def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate_pointset("torus", 8, 4, 0)


def test_generate_rejects_unused_params():
    with pytest.raises(ValueError, match="unused"):
        generate_pointset("uniform_sphere", 8, 4, 0, params={"theta": 0.2})


def test_generate_is_deterministic():
    a = generate_pointset("uniform_sphere", 16, 4, 5)
    b = generate_pointset("uniform_sphere", 16, 4, 5)
    np.testing.assert_array_equal(a.points, b.points)
    c = generate_pointset("uniform_sphere", 16, 4, 6)
    assert not np.array_equal(a.points, c.points)


def test_flat_signs_coherence_exact():
    ps = generate_pointset("flat_signs", 16, 8, 1)
    assert set(np.abs(ps.points).ravel().tolist()) == {0.25}
    assert coherence(ps).rho_direct == 0.25


def test_clustered_pairs_angles():
    ps = generate_pointset("clustered_pairs", 32, 10, 2, params={"theta": 0.2})
    for i in range(0, 10, 2):
        ang = angular_distance(ps.points[i], ps.points[i + 1])
        assert math.isclose(ang, 0.2, abs_tol=1e-9)


def test_clustered_pairs_validation():
    with pytest.raises(ValueError, match="even"):
        generate_pointset("clustered_pairs", 8, 5, 0)
    with pytest.raises(ValueError, match="theta"):
        generate_pointset("clustered_pairs", 8, 4, 0, params={"theta": 1.5})


def test_spiky_is_nearly_axis_aligned():
    ps = generate_pointset("spiky", 8, 12, 4)
    assert coherence(ps).rho_direct > 0.95
    # spikes walk the axes cyclically
    assert int(np.argmax(np.abs(ps.points[9]))) == 9 % 8


def test_uniform_sphere_coherence_bound():
    # generic random points are flat: inf norm stays under 6 sqrt(ln n / n)
    n = 1024
    cap = 6.0 * math.sqrt(math.log(n) / n)
    for seed in range(100):
        ps = generate_pointset("uniform_sphere", n, 100, seed)
        assert float(np.abs(ps.points).max()) <= cap


def test_all_kinds_yield_unit_rows():
    for kind, params in [
        ("uniform_sphere", None),
        ("flat_signs", None),
        ("spiky", {"noise": 0.05}),
        ("clustered_pairs", {"theta": 0.3}),
    ]:
        ps = generate_pointset(kind, 16, 6, 9, params=params)
        np.testing.assert_allclose(np.linalg.norm(ps.points, axis=1), 1.0, atol=1e-9)
