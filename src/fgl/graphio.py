"""Graph import/export: graph6 and a canonical JSON edge-list form.

No list, tuple or str is built per edge: graph6 is read and written
straight from the bit rows, and JSON through numpy passes over bytes, one
block of at most JSON_CHUNK bytes at a time.

graph6 is the standard header-free bit-packed encoding (column-major
upper triangle, 6 bits per printable character, offset 63).  By symmetry
its bit stream is the first x bits of each row x in turn, so both ways
unpack one range of rows at a time (_graph6_blocks, at most
bits.ROW_BLOCK_BITS // 4 entries), and a range starts on a character.  The
reader checks the header, every character and the body length before it
allocates the rows, then sets each range's bits and their mirror images,
the range's transpose.  The JSON
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
beyond), so every parse temporary is O(JSON_CHUNK): a chunk's bytes are
classed by one bytes.translate, and its endpoints summed from one array
of digit values.  Besides them a read holds the file's bytes, the bit
rows, which bits.transpose mirrors in place, and its column blocks, at
most bits.ROW_BLOCK_BITS entries each.  Neither reader can set a loop, a
bit past column v - 1 or one bit of a pair without the other, so a graph
read needs no further check.
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


_SIX = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)  # bit weights of a graph6 character


def _graph6_blocks(n: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of at most bits.ROW_BLOCK_BITS // 4 entries (or
    12 rows), each but the last a multiple of 12 rows long: a range's bits,
    their mask and their stream are held at once.  Rows lo..hi-1 hold
    stream bits lo(lo-1)/2 to hi(hi-1)/2, a multiple of 6 when 12 divides
    lo, so each range but the last is whole characters."""
    step = max(12, bits.ROW_BLOCK_BITS // 4 // max(n, 1) // 12 * 12)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _strict_lower(lo: int, hi: int) -> np.ndarray:
    """Mask of the entries (x, y), y < x, of the rows lo..hi-1 and columns
    0..hi-1: their graph6 bits, in stream order when read row by row."""
    return np.tri(hi - lo, hi, lo - 1, dtype=bool)


def _graph6_chunks(g: Graph):
    """Yield the graph6 text of g as bytes: the header, then the characters
    of one _graph6_blocks range of rows at a time."""
    n = g.v
    if n > 68719476735:
        raise ValueError("graph too large for graph6")
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    yield head.encode("ascii")
    for lo, hi in _graph6_blocks(n):
        yield _graph6_block_chars(g.rows, lo, hi)


def _graph6_block_chars(rows: np.ndarray, lo: int, hi: int) -> bytes:
    """The graph6 characters of the first x bits of each row x in lo..hi-1,
    the last one padded with zero bits."""
    block = np.unpackbits(rows[lo:hi, :bits.word_count(hi)].view(np.uint8), axis=-1,
                          count=hi, bitorder="little")
    stream = block[_strict_lower(lo, hi)]
    if len(stream) % 6:
        stream = np.concatenate([stream, np.zeros(-len(stream) % 6, dtype=np.uint8)])
    chars = stream.reshape(-1, 6) @ _SIX
    chars += np.uint8(63)
    return chars.tobytes()


def to_graph6(g: Graph) -> str:
    return b"".join(_graph6_chunks(g)).decode("ascii")


def _write_graph6(f, g: Graph) -> None:
    """Write to_graph6(g) and a newline to the binary file f, a row range at a time."""
    f.writelines(_graph6_chunks(g))
    f.write(b"\n")


def from_graph6(text: str | bytes) -> Graph:
    """Graph of a graph6 text, with or without the >>graph6<< header and
    surrounding whitespace; bytes are read in place."""
    if isinstance(text, str):
        try:
            text = text.strip().encode("ascii")
        except UnicodeEncodeError as e:
            raise GraphParseError("invalid graph6 character") from e
    s = np.frombuffer(memoryview(text)[len(text) - len(text.lstrip()):len(text.rstrip())],
                      dtype=np.uint8)
    if s[:10].tobytes() == b">>graph6<<":
        s = s[10:]
    if not s.size:
        raise GraphParseError("empty graph6 string")
    if (s - np.uint8(63)).max() > 63:
        raise GraphParseError("invalid graph6 character")
    head = [int(x) - 63 for x in s[:8]]
    if head[0] < 63:
        n = head[0]
        body = s[1:]
    elif len(head) >= 4 and head[1] < 63:
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        body = s[4:]
    elif len(head) == 8:
        n = 0
        for x in head[2:8]:
            n = (n << 6) | x
        body = s[8:]
    else:
        raise GraphParseError("truncated graph6 header")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}")
    rows = bits.zero_rows(n, n)
    for lo, hi in _graph6_blocks(n):
        _graph6_fill(rows, body, lo, hi)
    return Graph(n, rows)


def _graph6_fill(rows: np.ndarray, body: np.ndarray, lo: int, hi: int) -> None:
    """Set in rows the bits (x, y) and (y, x), y < x, of the rows x in
    lo..hi-1 that the graph6 characters body encode: stream bits
    [start, end), read from the characters that hold them.  The mirror
    images are the block's transpose, packed from bit lo % 64 of word lo // 64."""
    start, end = lo * (lo - 1) // 2, hi * (hi - 1) // 2
    chars = body[start // 6:(end + 5) // 6] - np.uint8(63)
    stream = np.unpackbits((chars << 2)[:, None], axis=1, count=6).reshape(-1)
    block = np.zeros((hi - lo, hi), dtype=bool)
    block[_strict_lower(lo, hi)] = stream[:end - start]
    del chars, stream
    rows[lo:hi, :bits.word_count(hi)] |= bits.pack_bool(block, hi)
    mirror = np.zeros((hi, lo % 64 + hi - lo), dtype=bool)
    mirror[:, lo % 64:] = block.T
    rows[:hi, lo // 64:bits.word_count(hi)] |= bits.pack_bool(mirror)


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

# byte classes of the edge list, a bytes.translate table: numbers are the
# bytes up to _MINUS, punctuation the bytes from _COMMA on
_OTHER, _DIGIT, _MINUS, _SPACE, _COMMA, _OPEN, _CLOSE = range(7)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[list(b" \t\r\n")] = _SPACE
_CLASS[list(b"-,[]")] = [_MINUS, _COMMA, _OPEN, _CLOSE]
_CLASS = _CLASS.tobytes()
_PAIR = int.from_bytes(b",[,]", "little")  # the punctuation of ', [i, j]' as one word


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
    return Graph(v, bits.transpose(rows, v, out=rows))


def _json_pairs(data: bytes, lo: int, hi: int, v: int):
    """Yield the (i, j) endpoint arrays of the edge list data[lo:hi] (the
    text between its brackets), one chunk at a time.  A chunk ends after
    the last ']' within JSON_CHUNK bytes, or the first one beyond, so no
    pair is split."""
    digits = len(str(v - 1)) if v else 0
    lead = True
    while lo < hi:
        end = hi
        if hi - lo > JSON_CHUNK:
            end = (data.rfind(b"]", lo, lo + JSON_CHUNK) + 1
                   or data.find(b"]", lo + JSON_CHUNK, hi) + 1 or hi)
        val = _chunk_endpoints(data[lo:end], lead, v, digits)
        lead = lead and not val.size
        lo = end
        yield val[0::2], val[1::2]


def _chunk_endpoints(text: bytes, lead: bool, v: int, digits: int) -> np.ndarray:
    """The endpoints i0, j0, i1, j1, ... of the pairs in one chunk.

    The chunk's punctuation must be ',[,]' per pair, with the ',' before
    the list's first pair implied (lead), and its numbers, the maximal
    runs of digits and '-', must lie one in each slot of a pair; every
    other byte is whitespace.  Values are summed a decimal place at a time
    from the last digit, in int32 while v - 1 has fewer than 10 digits.
    """
    chunk = np.frombuffer(text, dtype=np.uint8)
    cls = np.frombuffer(text.translate(_CLASS), dtype=np.uint8)
    if not cls.all():
        raise GraphParseError("unexpected character in the edge list")
    num = cls <= _MINUS
    if num[0] or num[-1]:
        raise GraphParseError("edges must be a list of [i, j] pairs")
    ends = np.flatnonzero(num[1:] != num[:-1])
    punct = np.flatnonzero(cls >= _COMMA)
    minus = np.count_nonzero(cls == _MINUS)
    del cls, num
    lead = int(lead and punct.size > 0)
    k = (len(punct) + lead) // 4
    if len(punct) + lead != 4 * k or len(ends) != 4 * k:
        raise GraphParseError("edges must be a list of [i, j] pairs")
    marks = np.empty(4 * k, dtype=np.uint8)
    marks[:lead] = ord(",")
    np.take(chunk, punct, out=marks[lead:])
    if not (marks.view("<u4") == _PAIR).all():
        raise GraphParseError("edges must be a list of [i, j] pairs")
    p1, p2, p3 = (punct[c - lead::4] for c in (1, 2, 3))
    s, e = ends[0::2] + 1, ends[1::2]
    if not ((p1 < s[0::2]) & (e[0::2] < p2) & (p2 < s[1::2]) & (e[1::2] < p3)).all():
        raise GraphParseError("edges must be a list of [i, j] pairs")
    del punct, marks, p1, p2, p3
    neg = chunk[s] == ord("-")
    width = e - s + 1 - neg
    if minus != np.count_nonzero(neg) or (width < 1).any():
        raise GraphParseError("misplaced '-' in an edge endpoint")
    if width.max(initial=0) > digits:
        raise GraphParseError(f"edge endpoint has more digits than v - 1 = {v - 1}")
    if ((chunk[s + neg] == ord("0")) & (width > 1)).any():
        raise GraphParseError("leading zero in an edge endpoint")
    dig = chunk - np.uint8(48)
    val = dig[e].astype(np.int64 if digits >= 10 else np.int32)
    at = e - 1
    for c in range(1, int(width.max(initial=0))):
        place = dig[at]
        place *= width > c
        val += place * val.dtype.type(10 ** c)
        at -= 1
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
        atomic_write(path, lambda f: _write_graph6(f, g), "wb")
    else:
        atomic_write(path, lambda f: _write_json(f, g), "wb")
    return fmt


def read_graph(path: str, fmt: str | None = None) -> Graph:
    fmt = detect_format(path, fmt)
    with open(path, "rb") as f:
        return (from_graph6 if fmt == "graph6" else from_json)(f.read())
