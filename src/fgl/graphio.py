"""Graph import/export: graph6 and a canonical JSON edge-list form.

No list, tuple or str is built per edge: graph6 goes through the (m, 2)
int64 edge array of Graph.edges() / Graph.from_edges, and JSON through
numpy passes over bytes, one block of at most JSON_CHUNK bytes at a time.

graph6 is the standard header-free bit-packed encoding (column-major
upper triangle, 6 bits per printable character, offset 63).  The JSON
form is {"v": N, "edges": [[i, j], ...]} with i < j and edges sorted
lexicographically, written byte-identically to json.dumps of that
object, so identical graphs serialize byte-identically.

The JSON reader takes exactly this grammar, ws being any run of space,
tab, CR and LF:

    graph  = ws "{" ws (v ws "," ws edges | edges ws "," ws v) ws "}" ws
    v      = '"v"' ws ":" ws int
    edges  = '"edges"' ws ":" ws "[" ws [pair *(ws "," ws pair) ws] "]"
    pair   = "[" ws int ws "," ws int ws "]"
    int    = ["-"] ("0" | "1".."9" *digit)

Every graph JSON that json.loads reads to a valid graph is in it, except
that the object must have exactly the keys "v" and "edges", once each
and written without escapes: an extra key, a repeated key or an escaped
key name is a parse error.  An endpoint with more digits than v - 1 is
rejected before it is converted.  The edge list is parsed in chunks that
end at a "]", each the last one within JSON_CHUNK bytes (or the first
beyond), so every parse temporary is O(JSON_CHUNK); besides them a read
holds the file's bytes, a few copies of the bit rows and the column
blocks of bits.transpose, at most bits.ROW_BLOCK_BITS entries each.
"""

from __future__ import annotations

import os
import re
import tempfile

import numpy as np

from . import bits
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


def from_graph6(text: str | bytes) -> Graph:
    if isinstance(text, str):
        try:
            text = text.strip().encode("ascii")
        except UnicodeEncodeError as e:
            raise GraphParseError("invalid graph6 character") from e
    s = text.strip().removeprefix(b">>graph6<<")
    if not s:
        raise GraphParseError("empty graph6 string")
    data = np.frombuffer(s, dtype=np.uint8) - np.uint8(63)
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


JSON_CHUNK = 1 << 18  # bytes of JSON edge text built or parsed per block

_JSON_SPACE = rb"[ \t\r\n]*"
_JSON_INT = rb"(-?(?:0|[1-9][0-9]*))"
_HEAD = re.compile(_JSON_SPACE + rb'\{' + _JSON_SPACE + rb'"(v|edges)"' + _JSON_SPACE
                   + rb':' + _JSON_SPACE)
_V_THEN_EDGES = re.compile(_JSON_INT + _JSON_SPACE + rb',' + _JSON_SPACE + rb'"edges"'
                           + _JSON_SPACE + rb':' + _JSON_SPACE + rb'\[')
_TAIL_AFTER_EDGES = {
    b"v": re.compile(rb'\]' + _JSON_SPACE + rb'\}' + _JSON_SPACE),
    b"edges": re.compile(rb'\]' + _JSON_SPACE + rb',' + _JSON_SPACE + rb'"v"' + _JSON_SPACE
                         + rb':' + _JSON_SPACE + _JSON_INT + _JSON_SPACE + rb'\}'
                         + _JSON_SPACE),
}

# byte classes of the edge list: numbers are the bytes up to _MINUS,
# punctuation the bytes from _COMMA on
_OTHER, _DIGIT, _MINUS, _SPACE, _COMMA, _OPEN, _CLOSE = range(7)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[list(b" \t\r\n")] = _SPACE
_CLASS[list(b"-,[]")] = [_MINUS, _COMMA, _OPEN, _CLOSE]
_PAIR = np.frombuffer(b",[,]", dtype=np.uint8)  # the punctuation of ', [i, j]'


def _digit_table(v: int) -> np.ndarray:
    """The decimal names of 0..v-1 as one w-byte void item each, w the
    width of v - 1, right-aligned and padded on the left with zero bytes."""
    k = np.arange(v, dtype=np.int64)
    w = len(str(max(v - 1, 0)))
    names = np.zeros((v, w), dtype=np.uint8)
    for c in range(w):
        shown = (k >= 10 ** c) | (c == 0)
        names[shown, w - 1 - c] = 48 + (k[shown] // 10 ** c) % 10
    return names.view(np.dtype((np.void, w)))[:, 0]


def _write_json(f, g: Graph) -> None:
    """Write json.dumps({"v": v, "edges": [[i, j], ...]}) of g's sorted
    edges to the binary file f, one block of at most JSON_CHUNK bytes at a
    time.  Each edge is a fixed-width row ', [i, j]' of the digit table's
    names, and the pad bytes are dropped."""
    names = _digit_table(g.v)
    w = names.itemsize
    row = np.frombuffer(b", [" + bytes(w) + b", " + bytes(w) + b"]", dtype=np.uint8)
    f.write(b'{"v": %d, "edges": [' % g.v)
    skip = 2  # the first edge has no ', ' before it
    for e in g.edge_blocks(max(1, JSON_CHUNK // len(row))):
        if len(e):
            rows = np.empty((len(e), len(row)), dtype=np.uint8)
            rows[:] = row
            rows[:, 3:3 + w].view(names.dtype)[:, 0] = names[e[:, 0]]
            rows[:, 5 + w:5 + 2 * w].view(names.dtype)[:, 0] = names[e[:, 1]]
            f.write(rows[rows != 0][skip:])
            skip = 0
    f.write(b"]}\n")


def from_json(text: str | bytes) -> Graph:
    """Graph of a JSON text {"v": N, "edges": [[i, j], ...]}, the grammar
    of the module docstring, parsed JSON_CHUNK bytes at a time."""
    data = text.encode("ascii", "replace") if isinstance(text, str) else text
    head = _HEAD.match(data)
    if head is None:
        raise GraphParseError('graph JSON must be an object {"v": N, "edges": [...]}')
    first = head.group(1)
    pos = head.end()
    if first == b"v":
        body = _V_THEN_EDGES.match(data, pos)
        if body is None:
            raise GraphParseError('expected an integer "v" and then "edges": [...]')
        v, lo = int(body.group(1)), body.end()
        hi = data.rfind(b"]", lo)
    else:
        if data[pos:pos + 1] != b"[":
            raise GraphParseError('"edges" must be a list')
        lo = pos + 1
        hi = data.rfind(b"]", lo, data.find(b'"', lo) + 1)
    tail = _TAIL_AFTER_EDGES[first].fullmatch(data, hi) if hi >= lo else None
    if tail is None:
        raise GraphParseError('graph JSON must be an object {"v": N, "edges": [...]}')
    if first == b"edges":
        v = int(tail.group(1))
    if v < 0:
        raise GraphParseError("negative vertex count")
    rows = bits.zero_rows(v, v)
    try:
        for i, j in _json_pairs(data, lo, hi, v):
            bits.or_pairs(rows, i, j)
    except ValueError as err:
        raise GraphParseError(str(err)) from err
    return Graph(v, rows | bits.transpose(rows, v))


def _json_pairs(data: bytes, lo: int, hi: int, v: int):
    """Yield the (i, j) endpoint arrays of the edge list data[lo:hi] (the
    text between its brackets), one chunk at a time.  A chunk ends after
    the last ']' within JSON_CHUNK bytes, or the first one beyond, so no
    pair is split."""
    buf = np.frombuffer(data, dtype=np.uint8)
    digits = len(str(v - 1)) if v else 0
    lead = True
    while lo < hi:
        end = hi
        if hi - lo > JSON_CHUNK:
            end = (data.rfind(b"]", lo, lo + JSON_CHUNK) + 1
                   or data.find(b"]", lo + JSON_CHUNK, hi) + 1 or hi)
        val = _chunk_endpoints(buf[lo:end], lead, v, digits)
        lead = lead and not val.size
        lo = end
        yield val[0::2], val[1::2]


def _chunk_endpoints(chunk: np.ndarray, lead: bool, v: int, digits: int) -> np.ndarray:
    """The endpoints i0, j0, i1, j1, ... of the pairs in one chunk.

    The chunk's punctuation must be ',[,]' per pair, with the ',' before
    the list's first pair implied (lead), and its numbers, the maximal
    runs of digits and '-', must lie one in each slot of a pair; every
    other byte is whitespace.
    """
    cls = np.take(_CLASS, chunk)
    if not cls.all():
        raise GraphParseError("unexpected character in the edge list")
    num = cls <= _MINUS
    if num[0] or num[-1]:
        raise GraphParseError("edges must be a list of [i, j] pairs")
    ends = np.flatnonzero(num[1:] != num[:-1])
    punct = np.flatnonzero(cls >= _COMMA)
    minus = np.count_nonzero(cls == _MINUS)
    del cls, num
    marks = chunk[punct]
    if lead and punct.size:
        punct = np.concatenate([[-1], punct])
        marks = np.concatenate([_PAIR[:1], marks])
    k = len(punct) // 4
    if len(punct) != 4 * k or len(ends) != 4 * k or not (marks.reshape(k, 4) == _PAIR).all():
        raise GraphParseError("edges must be a list of [i, j] pairs")
    p = punct.reshape(k, 4)
    s, e = ends[0::2] + 1, ends[1::2]
    if not ((p[:, 1] < s[0::2]) & (e[0::2] < p[:, 2])
            & (p[:, 2] < s[1::2]) & (e[1::2] < p[:, 3])).all():
        raise GraphParseError("edges must be a list of [i, j] pairs")
    del punct, p
    neg = chunk[s] == ord("-")
    width = e - s + 1 - neg
    if minus != np.count_nonzero(neg) or (width < 1).any():
        raise GraphParseError("misplaced '-' in an edge endpoint")
    if width.max(initial=0) > digits:
        raise GraphParseError(f"edge endpoint has more digits than v - 1 = {v - 1}")
    if ((chunk[s + neg] == ord("0")) & (width > 1)).any():
        raise GraphParseError("leading zero in an edge endpoint")
    val = np.zeros(len(e), dtype=np.int64)
    for c in range(int(width.max(initial=0))):
        val += (chunk[e - c] - np.uint8(48)) * (width > c) * np.int64(10 ** c)
    if (val >= v).any() or (neg & (val != 0)).any():
        raise GraphParseError("vertex id out of range")
    return val


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
        atomic_write(path, lambda f: _write_json(f, g), "wb")
    return fmt


def read_graph(path: str, fmt: str | None = None) -> Graph:
    fmt = detect_format(path, fmt)
    with open(path, "rb") as f:
        data = f.read()
    g = from_graph6(data) if fmt == "graph6" else from_json(data)
    g.validate()
    return g
