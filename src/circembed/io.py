"""Point-set and report persistence plus synthetic point-set generators.

Binary point sets (PSET1): 5-byte magic ``PSET1``, then n and N as
little-endian unsigned 64-bit integers, then N*n IEEE-754 doubles,
row-major, little-endian. File length is exactly 21 + 8*N*n bytes.

CSV point sets: a ``dim=<n>`` header line, then one comma-separated row per
point with 17 significant digits per value, which round-trips float64.

Reports are ``json.dumps(sort_keys=True, indent=2)`` documents with
``schema_version`` "2" (readers also take "1"): top-level keys are
schema_version, kind, params, stats, arrays. ``params`` echoes everything
needed to reproduce the run.

Pair tables (``eval --pairs``): a ``i,j,hamming,angular,diff`` header, then
one row per pair with each float written by ``repr``, so ``float()`` reads
back the exact float64.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import embedders
from .errors import ParseError
from .geometry import _UNIT_ATOL, PointSet, _require_unit
from .rng import Rng

__all__ = [
    "ResultDocument",
    "load_pointset",
    "save_pointset",
    "load_pointset_csv",
    "save_pointset_csv",
    "load_codes",
    "save_codes",
    "load_result",
    "save_result",
    "save_pairs",
    "generate_pointset",
]

_MAGIC = b"PSET1"
_HEADER_LEN = 21
_WARN_TOL = 1e-6  # rows off by more than this additionally warn
_CODE_TOKENS = frozenset(("+1", "-1", "1"))
_SCHEMA_VERSIONS = ("1", "2")  # readable; the last is written
_PAIRS_PER_CHUNK = 65536  # bounds the Python floats alive while a pair table is written


def _text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: {e.reason}", e.start) from None


def _records(data: bytes):
    """(byte offset, comma-separated fields) of each nonblank line of a UTF-8 text.

    Lines end wherever ``str.splitlines`` ends them, so LF, CRLF and CR-only
    files all parse.
    """
    pos = 0
    for line in _text(data).splitlines(keepends=True):
        if line.strip():
            yield pos, line.splitlines()[0].split(",")
        pos += len(line.encode("utf-8"))


def _apply_unit_policy(raw: np.ndarray, norms: np.ndarray, origin: str) -> np.ndarray:
    """Normalize rows to unit norm, leaving already-unit rows untouched.

    Rows within 1e-9 (the PointSet tolerance) of unit norm pass through
    bit-exactly. Deviations up to 1e-6 are silently renormalized; anything
    worse renormalizes too but warns: the data was probably not spherical.
    """
    off = np.abs(norms - 1.0)
    worst = float(off.max())
    if worst > _WARN_TOL:
        n_bad = int((off > _WARN_TOL).sum())
        warnings.warn(
            f"{origin}: {n_bad} rows deviate from unit norm by up to {worst:.3g}; renormalizing",
            stacklevel=4,
        )
    fix = np.flatnonzero(off > _UNIT_ATOL)
    if fix.size:
        raw = raw.copy()
        raw[fix] /= norms[fix, None]
        # rows near the ends of the float64 range can miss unit norm even so
        _require_unit(np.linalg.norm(raw[fix], axis=1), fix)
    return raw


def _checked_points(raw: np.ndarray, origin: str, offset_of) -> PointSet:
    """The rows of a loaded file as a PointSet, refusing non-finite entries and zero rows.

    ``offset_of(row, column)`` is the byte offset an error at that entry
    reports. These checks and the unit policy establish the PointSet
    invariants, so the set is built without checking its rows again.
    """
    bad = ~np.isfinite(raw)
    if bad.any():
        row, col = divmod(int(np.argmax(bad.ravel())), raw.shape[1])
        raise ParseError(f"non-finite value at row {row}, column {col}", offset_of(row, col))
    norms = np.linalg.norm(raw, axis=1)
    if (norms == 0.0).any():
        row = int(np.argmax(norms == 0.0))
        raise ParseError(f"row {row} is all zeros", offset_of(row, 0))
    return PointSet._checked(_apply_unit_policy(raw, norms, origin))


def load_pointset(path) -> PointSet:
    data = Path(path).read_bytes()
    if len(data) < len(_MAGIC) or data[:5] != _MAGIC:
        raise ParseError(f"bad magic {bytes(data[:5])!r}, expected {_MAGIC!r}", 0)
    if len(data) < _HEADER_LEN:
        raise ParseError("header truncated", len(data))
    n, N = struct.unpack("<QQ", data[5:_HEADER_LEN])
    if N < 1 or n < 2:
        raise ParseError(f"header declares N={N}, n={n}; need N >= 1 and n >= 2", 5)
    expected = _HEADER_LEN + 8 * N * n
    if len(data) != expected:
        raise ParseError(
            f"length mismatch: file has {len(data)} bytes, header implies {expected}",
            min(len(data), expected),
        )
    raw = np.frombuffer(data, dtype="<f8", offset=_HEADER_LEN).reshape(N, n).astype(np.float64)
    return _checked_points(raw, str(path), lambda row, col: _HEADER_LEN + 8 * (row * n + col))


def save_pointset(ps: PointSet, path) -> None:
    payload = np.ascontiguousarray(ps.points, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<QQ", ps.n, ps.N))
        f.write(payload)


def save_pointset_csv(ps: PointSet, path) -> None:
    lines = [f"dim={ps.n}"]
    for row in ps.points:
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_pointset_csv(path) -> PointSet:
    data = Path(path).read_bytes()
    records = _records(data)
    head_off, head = next(records, (0, [""]))
    head = ",".join(head)
    if not head.startswith("dim="):
        raise ParseError("missing dim=<n> header", 0)
    try:
        n = int(head[4:])
    except ValueError:
        raise ParseError(f"bad dimension field {head[4:]!r}", head_off + 4) from None
    if n < 2:
        raise ParseError(f"dimension must be at least 2, got {n}", head_off + 4)
    offsets, rows = [], []
    for pos, fields in records:
        if len(fields) != n:
            raise ParseError(f"expected {n} fields, got {len(fields)}", pos)
        try:
            rows.append(list(map(float, fields)))
        except ValueError:
            raise ParseError("unparseable float", pos) from None
        offsets.append(pos)
    if not rows:
        raise ParseError("no point rows after header", len(data))
    return _checked_points(np.array(rows, dtype=np.float64), str(path), lambda row, col: offsets[row])


def save_codes(codes: np.ndarray, path) -> None:
    """One code per line, entries +1/-1 comma-separated."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] == 0:
        raise ValueError("codes must be an N x k matrix with k >= 1")
    # three bytes per entry: sign, "1", then "," or the row's closing newline
    text = np.empty(codes.shape + (3,), dtype=np.uint8)
    text[..., 0] = np.where(codes > 0, ord("+"), ord("-"))
    text[..., 1] = ord("1")
    text[..., 2] = ord(",")
    text[:, -1, 2] = ord("\n")
    with open(path, "wb") as f:
        f.write(text.tobytes())


def _canonical_codes(data: bytes):
    """The codes of a file laid out exactly as save_codes writes it, else None.

    That layout is three bytes per entry (sign, ``1``, then ``,`` or the
    row's newline) in rows of equal length, so one array view checks it.
    """
    width = data.find(b"\n") + 1
    if width < 3 or width % 3 or len(data) % width:
        return None
    text = np.frombuffer(data, dtype=np.uint8).reshape(-1, width // 3, 3)
    seps = np.full(width // 3, ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    signs = text[..., 0]
    plus = signs == ord("+")
    if not ((text[..., 1] == ord("1")).all() and (text[..., 2] == seps).all() and (plus | (signs == ord("-"))).all()):
        return None
    return np.where(plus, 1, -1).astype(np.int8)


def _parse_codes(data: bytes) -> np.ndarray:
    """The codes of any accepted layout; a ParseError names the first bad line."""
    rows = []
    for pos, fields in _records(data):
        if rows and len(fields) != len(rows[0]):
            raise ParseError(f"expected {len(rows[0])} fields, got {len(fields)}", pos)
        if not _CODE_TOKENS.issuperset(fields):
            bad = next(p for p in fields if p not in _CODE_TOKENS)
            raise ParseError(f"expected +1 or -1, got {bad!r}", pos)
        rows.append([-1 if p == "-1" else 1 for p in fields])
    if not rows:
        raise ParseError("no code rows", 0)
    return np.array(rows, dtype=np.int8)


def load_codes(path) -> np.ndarray:
    """Codes as an (N, k) int8 matrix of +1/-1.

    Files in save_codes' layout are parsed as one array; any other file
    (hand-written ``1`` entries, blank lines, CRLF or CR, malformed input) goes
    through the line parser, which reports the byte offset of the first bad line.
    """
    data = Path(path).read_bytes()
    codes = _canonical_codes(data)
    return _parse_codes(data) if codes is None else codes


def _jsonable(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


@dataclass
class ResultDocument:
    """One experiment result: parameter echo plus statistics.

    ``params`` must fully determine the run so that re-running with the
    echoed parameters reproduces the document bit for bit.
    """

    kind: str
    params: dict
    stats: dict
    arrays: dict = field(default_factory=dict)
    schema_version: str = _SCHEMA_VERSIONS[-1]

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "params": self.params,
            "stats": self.stats,
            "arrays": self.arrays,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", len(text[: e.pos].encode())) from None
        version = payload.get("schema_version")
        if version not in _SCHEMA_VERSIONS:
            raise ParseError(f"unsupported schema_version {version!r}", 0)
        for key in ("kind", "params", "stats"):
            if key not in payload:
                raise ParseError(f"missing required key {key!r}", 0)
        return cls(
            kind=payload["kind"],
            params=payload["params"],
            stats=payload["stats"],
            arrays=payload.get("arrays", {}),
            schema_version=version,
        )


def save_result(doc: ResultDocument, path) -> None:
    """Write ``doc.to_json()`` to path; a report json refuses leaves no file."""
    Path(path).write_text(doc.to_json())


def save_pairs(pairs, path) -> None:
    """Write the pair columns (i, j, hamming, angular, diff) as a CSV pair table."""
    with open(path, "w") as f:
        f.write("i,j,hamming,angular,diff\n")
        for a in range(0, len(pairs[0]), _PAIRS_PER_CHUNK):
            rows = zip(*(column[a : a + _PAIRS_PER_CHUNK].tolist() for column in pairs))
            f.writelines(map("%d,%d,%r,%r,%r\n".__mod__, rows))


def load_result(path) -> ResultDocument:
    return ResultDocument.from_json(_text(Path(path).read_bytes()))


def generate_pointset(kind: str, n: int, N: int, seed: int, params=None) -> PointSet:
    """Synthetic unit-vector families covering the coherence spectrum.

    uniform_sphere
        Normalized Gaussian rows, the generic low-coherence case.
    flat_signs
        Random sign patterns scaled by 1/sqrt(n); infinity norm is exactly
        1/sqrt(n), the smallest a unit vector allows.
    spiky
        Standard basis vectors plus small Gaussian noise (params["noise"],
        default 0.01), renormalized; coherence near 1.
    clustered_pairs
        N/2 random base points, each followed by a partner rotated away by
        a fixed angle params["theta"] (normalized units, default 0.1).

    A set of more than ``embedders._MAX_ENTRIES`` float64 entries is refused
    before anything is drawn.
    """
    if n < 2 or N < 1:
        raise ValueError(f"need n >= 2 and N >= 1, got n={n}, N={N}")
    if N * n > embedders._MAX_ENTRIES:
        raise ValueError(f"a point set with n={n}, N={N} has {N * n} entries, over the cap of {embedders._MAX_ENTRIES}")
    params = dict(params or {})
    rng = Rng(seed)
    if kind == "uniform_sphere":
        raw = rng.stream("pointset:uniform_sphere").normals(N * n).reshape(N, n)
        rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    elif kind == "flat_signs":
        signs = rng.stream("pointset:flat_signs").rademacher(N * n).reshape(N, n)
        rows = signs / math.sqrt(n)
    elif kind == "spiky":
        noise = float(params.pop("noise", 0.01))
        raw = noise * rng.stream("pointset:spiky").normals(N * n).reshape(N, n)
        raw[np.arange(N), np.arange(N) % n] += 1.0
        rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    elif kind == "clustered_pairs":
        theta = float(params.pop("theta", 0.1))
        if N % 2:
            raise ValueError("clustered_pairs needs an even N")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        s = rng.stream("pointset:clustered_pairs")
        half = N // 2
        base = s.normals(half * n).reshape(half, n)
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        aux = s.normals(half * n).reshape(half, n)
        aux -= np.sum(aux * base, axis=1, keepdims=True) * base
        aux /= np.linalg.norm(aux, axis=1, keepdims=True)
        ang = theta * math.pi
        partners = math.cos(ang) * base + math.sin(ang) * aux
        rows = np.empty((N, n))
        rows[0::2] = base
        rows[1::2] = partners
    else:
        raise ValueError(f"unknown point-set kind {kind!r}")
    if params:
        raise ValueError(f"unused params for kind {kind!r}: {sorted(params)}")
    return PointSet(rows)
