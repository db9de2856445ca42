"""Graph import/export: graph6 and a canonical JSON edge-list form.

Both formats go through one exchange form, the (m, 2) int64 edge array
of Graph.edges() / Graph.from_edges, and no list or tuple per edge is
built outside json.loads.

graph6 is the standard header-free bit-packed encoding (column-major
upper triangle, 6 bits per printable character, offset 63).  The JSON
form is {"v": N, "edges": [[i, j], ...]} with i < j and edges sorted
lexicographically, written byte-identically to json.dumps of that
object, so identical graphs serialize byte-identically.  Any JSON text
of that object reads back (indented or with reordered keys), but the
reader is strict: v and every endpoint must be JSON integers, not
booleans, floats or strings, and edges a list of pairs.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import tempfile

import numpy as np

from .graphs import Graph


class GraphParseError(ValueError):
    pass


def _column_starts(n: int) -> np.ndarray:
    """Index j(j-1)/2 of bit (0, j) in the graph6 triangle, for j = 0..n-1."""
    j = np.arange(n, dtype=np.int64)
    return j * (j - 1) // 2


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
    e = g.edges()
    tri = np.zeros((n * (n - 1) // 2 + 5) // 6 * 6, dtype=np.uint8)
    tri[_column_starts(n)[e[:, 1]] + e[:, 0]] = 1
    chars = tri.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return head + chars.tobytes().decode("ascii")


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    try:
        data = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - np.uint8(63)
    except UnicodeEncodeError as e:
        raise GraphParseError("invalid graph6 character") from e
    if (data > 63).any():
        raise GraphParseError("invalid graph6 character")
    head = [int(x) for x in data[:8]]
    if head[0] < 63:
        n = head[0]
        body = data[1:]
    elif len(head) >= 4 and head[1] < 63:
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        body = data[4:]
    elif len(head) == 8:
        n = 0
        for x in head[2:8]:
            n = (n << 6) | x
        body = data[8:]
    else:
        raise GraphParseError("truncated graph6 header")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}")
    # the 6 low bits of each character, high bit first, without the padding
    tri = np.unpackbits(body[:, None], axis=1)[:, 2:].reshape(-1)[:nbits]
    pos = np.flatnonzero(tri)
    starts = _column_starts(n)
    j = np.searchsorted(starts, pos, side="right") - 1
    return Graph.from_edges(n, np.stack([pos - starts[j], j], axis=1))


def _json_text(g: Graph) -> str:
    """json.dumps({"v": v, "edges": [[i, j], ...]}) of g's sorted edge
    array, assembled from a table of vertex names with no list per edge."""
    e = g.edges()
    names = [str(k) for k in range(g.v)]
    pairs = "], [".join([names[i] + ", " + names[j]
                         for i, j in zip(e[:, 0].tolist(), e[:, 1].tolist())])
    body = "[" + pairs + "]" if len(e) else ""
    return f'{{"v": {g.v}, "edges": [{body}]}}'


def _load_json(text: str):
    """json.loads with the cyclic collector paused.  The parse allocates
    only acyclic lists and dicts, one per edge, and the collections they
    would trigger cost about as much as the parse itself."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise GraphParseError(f"bad JSON: {e}") from e
    finally:
        if enabled:
            gc.enable()


def from_json_obj(obj) -> Graph:
    try:
        v = obj["v"]
        edges = obj["edges"]
    except (KeyError, TypeError) as e:
        raise GraphParseError(f"bad graph JSON: {e}") from e
    if type(v) is not int:
        raise GraphParseError(f"vertex count must be an integer, not {type(v).__name__}")
    if v < 0:
        raise GraphParseError("negative vertex count")
    if not (type(edges) is list and {list}.issuperset(map(type, edges))
            and {2}.issuperset(map(len, edges))):
        raise GraphParseError("edges must be a list of [i, j] pairs")
    # fromiter would take true/false as 1/0, so the types are checked first
    endpoints = itertools.chain.from_iterable
    if not {int}.issuperset(map(type, endpoints(edges))):
        raise GraphParseError("edge endpoints must be integers within int64")
    try:
        e = np.fromiter(endpoints(edges), np.int64, count=2 * len(edges)).reshape(-1, 2)
    except OverflowError as err:
        raise GraphParseError("edge endpoints must be integers within int64") from err
    try:
        return Graph.from_edges(v, e)
    except ValueError as err:
        raise GraphParseError(str(err)) from err


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
        atomic_write_text(path, _json_text(g) + "\n")
    return fmt


def read_graph(path: str, fmt: str | None = None) -> Graph:
    fmt = detect_format(path, fmt)
    with open(path) as f:
        text = f.read()
    if fmt == "graph6":
        g = from_graph6(text)
    else:
        g = from_json_obj(_load_json(text))
    g.validate()
    return g
