"""Graph import/export: graph6 and a canonical JSON edge-list form.

graph6 is the standard header-free bit-packed encoding (column-major
upper triangle, 6 bits per printable character, offset 63).  The JSON
form is {"v": N, "edges": [[i, j], ...]} with i < j and edges sorted
lexicographically, so identical graphs serialize byte-identically.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import bits
from .graphs import Graph


class GraphParseError(ValueError):
    pass


def _upper_triangle_bits(g: Graph) -> np.ndarray:
    """Bits x(i,j) for 0 <= i < j < v ordered by (j, i), as uint8 0/1."""
    cols = []
    for j in range(1, g.v):
        col = bits.unpack_rows(g.rows[j], g.v)[:j]
        cols.append(col)
    if not cols:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(cols).astype(np.uint8)


def to_graph6(g: Graph) -> str:
    n = g.v
    if n > 68719476735:
        raise ValueError("graph too large for graph6")
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    tri = _upper_triangle_bits(g)
    pad = (-len(tri)) % 6
    if pad:
        tri = np.concatenate([tri, np.zeros(pad, dtype=np.uint8)])
    groups = tri.reshape(-1, 6)
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    vals = groups @ weights + 63
    return head + "".join(map(chr, vals))


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(x < 0 or x > 63 for x in data):
        raise GraphParseError("invalid graph6 character")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for x in data[2:8]:
            n = (n << 6) | x
        body = data[8:]
    else:
        raise GraphParseError("truncated graph6 header")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}")
    raw = np.array(body, dtype=np.uint8)
    tri = np.zeros(len(body) * 6, dtype=np.uint8)
    for b in range(6):
        tri[b::6] = (raw >> (5 - b)) & 1
    tri = tri[:nbits].astype(bool)
    mat = np.zeros((n, n), dtype=bool)
    pos = 0
    for j in range(1, n):
        col = tri[pos:pos + j]
        mat[:j, j] = col
        mat[j, :j] = col
        pos += j
    return Graph.from_bool(mat)


def to_json_obj(g: Graph) -> dict:
    return {"v": g.v, "edges": [[i, j] for i, j in g.edges()]}


def from_json_obj(obj) -> Graph:
    try:
        v = int(obj["v"])
        edges = obj["edges"]
    except (KeyError, TypeError) as e:
        raise GraphParseError(f"bad graph JSON: {e}") from e
    if v < 0:
        raise GraphParseError("negative vertex count")
    try:
        return Graph.from_edges(v, [(int(i), int(j)) for i, j in edges])
    except ValueError as e:
        raise GraphParseError(str(e)) from e


def atomic_write(path: str, write, mode: str = "w") -> None:
    """Call write(f) on a temp file in the target's directory, then rename
    it to path, so readers never see partial output."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write(path, lambda f: f.write(text))


def detect_format(path: str, fmt: str | None = None) -> str:
    if fmt:
        if fmt not in ("json", "graph6"):
            raise ValueError(f"unknown graph format {fmt!r}")
        return fmt
    if path.endswith(".g6") or path.endswith(".graph6"):
        return "graph6"
    return "json"


def write_graph(path: str, g: Graph, fmt: str | None = None) -> str:
    fmt = detect_format(path, fmt)
    if fmt == "graph6":
        atomic_write_text(path, to_graph6(g) + "\n")
    else:
        atomic_write_text(path, json.dumps(to_json_obj(g)) + "\n")
    return fmt


def read_graph(path: str, fmt: str | None = None) -> Graph:
    fmt = detect_format(path, fmt)
    with open(path) as f:
        text = f.read()
    if fmt == "graph6":
        g = from_graph6(text)
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise GraphParseError(f"bad JSON: {e}") from e
        g = from_json_obj(obj)
    g.validate()
    return g
