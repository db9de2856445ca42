import json
import os
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl import bits, graphio
from fgl.graphio import (JSON_CHUNK, GraphParseError, _graph6_blocks, from_graph6, from_json,
                         read_graph, write_graph)
from fgl.graphs import Graph
from oracles import (edge_list, edges, from_edges, json_dumps_graph, read_json_graph, to_graph6,
                     validate)

# graph JSON objects that the reader must reject, given as json.dumps text:
# non-integer or boolean vertex counts and endpoints, non-lists, ragged or
# wrongly shaped lists, endpoints outside int64
BAD_GRAPH_JSON = {
    "null-endpoint": {"v": 3, "edges": [[0, None]]},
    "edges-not-list": {"v": 3, "edges": 5},
    "float-endpoint": {"v": 3, "edges": [[0, 1.5]]},
    "bool-endpoint": {"v": 3, "edges": [[True, 2]]},
    "bool-pair": {"v": 3, "edges": [[True, False]]},
    "string-endpoints": {"v": 3, "edges": [["0", "2"]]},
    "float-v": {"v": 3.7, "edges": []},
    "bool-v": {"v": True, "edges": []},
    "string-v": {"v": "3", "edges": []},
    "ragged": {"v": 3, "edges": [[0, 1], [2]]},
    "triple": {"v": 3, "edges": [[0, 1, 2]]},
    "nested": {"v": 3, "edges": [[[0], [1]]]},
    "empty-pair": {"v": 3, "edges": [[]]},
    "above-int64": {"v": 3, "edges": [[0, 2 ** 63]]},
    "above-uint64": {"v": 3, "edges": [[0, 2 ** 64]]},
    "below-int64": {"v": 3, "edges": [[-2 ** 63 - 1, 1]]},
}

# the reader's message for each of them, whatever its chunk size
BAD_GRAPH_JSON_MESSAGES = {
    "null-endpoint": "unexpected character in the edge list",
    "edges-not-list": 'expected an integer "v" and then "edges": [...]',
    "float-endpoint": "unexpected character in the edge list",
    "bool-endpoint": "unexpected character in the edge list",
    "bool-pair": "unexpected character in the edge list",
    "string-endpoints": "unexpected character in the edge list",
    "float-v": 'expected an integer "v" and then "edges": [...]',
    "bool-v": 'expected an integer "v" and then "edges": [...]',
    "string-v": 'expected an integer "v" and then "edges": [...]',
    "ragged": "edges must be a list of [i, j] pairs",
    "triple": "edges must be a list of [i, j] pairs",
    "nested": "edges must be a list of [i, j] pairs",
    "empty-pair": "edges must be a list of [i, j] pairs",
    "above-int64": "edge endpoint has more digits than v - 1 = 2",
    "above-uint64": "edge endpoint has more digits than v - 1 = 2",
    "below-int64": "edge endpoint has more digits than v - 1 = 2",
}

# JSON texts that json.loads rejects or reads to an invalid graph, and that
# the reader must reject too
BAD_GRAPH_TEXT = {
    "leading-zero": '{"v": 3, "edges": [[01, 2]]}',
    "leading-zero-v": '{"v": 03, "edges": []}',
    "lone-minus": '{"v": 3, "edges": [[-, 2]]}',
    "minus-inside": '{"v": 3, "edges": [[1-2, 0]]}',
    "exponent": '{"v": 3, "edges": [[0, 1e2]]}',
    "decimal": '{"v": 3, "edges": [[0, 1.0]]}',
    "true": '{"v": 3, "edges": [[true, 2]]}',
    "more-digits-than-v": '{"v": 3, "edges": [[0, 1000000000000000000000000000000]]}',
    "negative-endpoint": '{"v": 3, "edges": [[-1, 2]]}',
    "negative-v": '{"v": -1, "edges": []}',
    "trailing-comma": '{"v": 3, "edges": [[0, 1],]}',
    "missing-comma": '{"v": 3, "edges": [[0, 1] [1, 2]]}',
    "space-in-number": '{"v": 30, "edges": [[1 2, 0]]}',
    "space-after-minus": '{"v": 3, "edges": [[- 0, 1]]}',
    "vertical-tab": '{"v": 3,\x0b"edges": []}',
    "trailing-text": '{"v": 3, "edges": []} x',
    "loop": '{"v": 3, "edges": [[1, 1]]}',
    "missing-v": '{"edges": []}',
}

# valid JSON of a graph object that json.loads reads but the reader
# rejects: it takes exactly the keys "v" and "edges", spelled without escapes
NARROWED_GRAPH_TEXT = {
    "extra-key": '{"v": 3, "edges": [[0, 1]], "name": "k2"}',
    "duplicate-key": '{"v": 3, "v": 3, "edges": [[0, 1]]}',
    "escaped-key": '{"\\u0076": 3, "edges": [[0, 1]]}',
}

# unusual but valid graph JSON that the reader must read as json.loads does
ODD_GRAPH_TEXT = {
    "spaced-empty-list": '{"v": 3, "edges": [ ]}',
    "no-vertices": '{"v": 0, "edges": []}',
    "minus-zero": '{"v": 3, "edges": [[-0, 2]]}',
    "minus-zero-v": '{"v": -0, "edges": []}',
    "reversed-pair": '{"v": 3, "edges": [[2, 0], [0, 2]]}',
    "all-whitespace": ' \t{\r\n"edges"\t:[ [ 2 ,0 ] ,\n[1,0]\r]\n, "v" :3 }\n\n',
}


def random_graph(seed, v=None, p=0.3):
    rng = np.random.default_rng(seed)
    if v is None:
        v = int(rng.integers(1, 40))
    mat = np.triu(rng.random((v, v)) < p, 1)
    return Graph.from_bool(mat | mat.T)


def test_known_graph6_values():
    # the worked example from McKay's format description
    g = from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    assert to_graph6(g) == "DQc"
    assert from_graph6("DQc") == g
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert to_graph6(k4) == "C~"


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_graph6_matches_networkx(seed):
    g = random_graph(seed)
    ours = to_graph6(g)
    ng = nx.from_graph6_bytes(ours.encode())
    assert set(ng.nodes) == set(range(g.v))
    assert {tuple(sorted(e)) for e in ng.edges} == set(map(tuple, edges(g).tolist()))
    theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
    assert theirs == ours


@pytest.mark.parametrize("v", [0, 1, 2, 62, 63, 64, 65, 100, 300])
def test_graph6_across_blocks_matches_networkx(tmp_path, monkeypatch, v):
    # 12-row blocks: the text written and read one block at a time is networkx's
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", 1 << 10)
    assert v < 62 or len(_graph6_blocks(v)) > 1
    g = random_graph(v, v=v, p=0.5)
    ng = nx.Graph()
    ng.add_nodes_from(range(v))
    ng.add_edges_from(edge_list(g))
    theirs = nx.to_graph6_bytes(ng, header=False).strip()
    assert to_graph6(g).encode() == theirs
    assert from_graph6(theirs) == g
    path = tmp_path / "g.g6"
    write_graph(str(path), g)
    assert path.read_bytes() == theirs + b"\n"


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_graph6_roundtrip(seed):
    g = random_graph(seed)
    assert from_graph6(to_graph6(g)) == g


def test_graph6_large_header():
    g = random_graph(5, v=100)
    s = to_graph6(g)
    assert s.startswith("~")
    assert from_graph6(s) == g


def test_graph6_header_prefix_accepted():
    g = from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    assert from_graph6(">>graph6<<DQc") == g


def test_graph6_parse_errors():
    with pytest.raises(GraphParseError):
        from_graph6("")
    with pytest.raises(GraphParseError):
        from_graph6("D")  # truncated body
    with pytest.raises(GraphParseError):
        from_graph6("D\x01\x01")


def test_json_roundtrip_and_canonical_order(tmp_path):
    g = random_graph(11)
    path = str(tmp_path / "g.json")
    write_graph(path, g)
    text = open(path).read()
    obj = json.loads(text)
    assert obj["edges"] == sorted(obj["edges"])
    assert all(i < j for i, j in obj["edges"])
    assert from_json(text) == g


@given(st.integers(0, 10 ** 6), st.integers(0, 40), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
@settings(max_examples=60, deadline=None)
def test_json_writer_matches_json_dumps(tmp_path_factory, seed, v, p):
    g = random_graph(seed, v=v, p=p)
    e = edges(g)
    assert e.dtype == np.int64 and e.shape == (g.edge_count(), 2)
    assert e.tolist() == [list(pair) for pair in edge_list(g)]
    path = str(tmp_path_factory.mktemp("json") / "g.json")
    write_graph(path, g)
    assert open(path).read() == json_dumps_graph(g) + "\n"
    assert read_graph(path) == g


@pytest.mark.parametrize("resave", [lambda obj: json.dumps(obj, indent=2),
                                    lambda obj: json.dumps(dict(reversed(obj.items())))],
                         ids=["indented", "keys-reversed"])
def test_resaved_json_reads_back(tmp_path, resave):
    g = random_graph(5, v=23)
    path = tmp_path / "g.json"
    write_graph(str(path), g)
    path.write_text(resave(json.loads(path.read_text())))
    assert read_graph(str(path)) == g


@pytest.mark.parametrize("obj", BAD_GRAPH_JSON.values(), ids=BAD_GRAPH_JSON.keys())
def test_json_rejects_non_integer_input(obj):
    with pytest.raises(GraphParseError):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("chunk", [JSON_CHUNK, 64])
@pytest.mark.parametrize("name", BAD_GRAPH_JSON)
def test_json_errors_keep_their_messages(monkeypatch, name, chunk):
    monkeypatch.setattr(graphio, "JSON_CHUNK", chunk)
    with pytest.raises(GraphParseError) as e:
        from_json(json.dumps(BAD_GRAPH_JSON[name]))
    assert str(e.value) == BAD_GRAPH_JSON_MESSAGES[name]


def _spaced_json(rng, g):
    """g's graph JSON with a run of whitespace at random between any two
    tokens, each pair in either order and in random order, some 0
    endpoints written -0, and the keys in either order."""
    def ws():
        return "".join(rng.choice(list(" \t\r\n"), int(rng.integers(0, 4))))

    def num(x):
        return "-0" if x == 0 and rng.random() < 0.5 else str(x)
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in edges(g).tolist()]
    rng.shuffle(pairs)
    body = ",".join(f"{ws()}[{ws()}{num(i)}{ws()},{ws()}{num(j)}{ws()}]{ws()}" for i, j in pairs)
    keys = [f'"v"{ws()}:{ws()}{g.v}', f'"edges"{ws()}:{ws()}[{ws()}{body}]']
    if rng.random() < 0.5:
        keys.reverse()
    return f"{ws()}{{{ws()}{keys[0]}{ws()},{ws()}{keys[1]}{ws()}}}{ws()}"


@given(st.integers(0, 10 ** 6), st.integers(0, 40), st.sampled_from([0.1, 0.3, 0.8]))
@settings(max_examples=60, deadline=None)
def test_json_chunk_boundaries_match_json_loads(seed, v, p):
    # 64-byte chunks: most pairs straddle a chunk's start, and every chunk
    # but the first begins with the comma that the first one implies
    g = random_graph(seed, v=v, p=p)
    text = _spaced_json(np.random.default_rng(seed), g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "JSON_CHUNK", 64)
        got = from_json(text)
    assert got == read_json_graph(text) == g
    validate(got)


def test_json_rejects_bad_input():
    for obj in ({"edges": []}, {"v": 2, "edges": [[0, 0]]}, {"v": 2, "edges": [[0, 5]]}):
        with pytest.raises(GraphParseError):
            from_json(json.dumps(obj))
    for text in BAD_GRAPH_TEXT.values():
        with pytest.raises(GraphParseError):
            read_json_graph(text)
        with pytest.raises(GraphParseError):
            from_json(text)
        with pytest.raises(GraphParseError):
            from_json(text.encode())


@pytest.mark.parametrize("text", NARROWED_GRAPH_TEXT.values(), ids=NARROWED_GRAPH_TEXT.keys())
def test_json_reader_is_narrower_than_json_loads(text):
    assert read_json_graph(text) == from_edges(3, [(0, 1)])
    with pytest.raises(GraphParseError):
        from_json(text)


@pytest.mark.parametrize("text", ODD_GRAPH_TEXT.values(), ids=ODD_GRAPH_TEXT.keys())
def test_json_reads_odd_valid_text(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_bytes(text.encode())
    assert read_graph(str(path)) == from_json(text) == read_json_graph(text)


def outcome(read, text):
    """The graph read from text, or None where the reader rejects it."""
    try:
        return read(text)
    except (GraphParseError, ValueError):
        return None


@given(st.integers(0, 10 ** 6), st.integers(0, 30), st.sampled_from([0.0, 0.3, 1.0]),
       st.sampled_from([None, 0, 2, "\t"]), st.sampled_from([None, (",", ":")]),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_json_reader_matches_json_loads_on_any_formatting(seed, v, p, indent, separators,
                                                         keys_reversed):
    g = random_graph(seed, v=v, p=p)
    obj = json.loads(json_dumps_graph(g))
    if keys_reversed:
        obj = dict(reversed(obj.items()))
    text = json.dumps(obj, indent=indent, separators=separators)
    got = from_json(text)
    assert got == read_json_graph(text) == g
    validate(got)


# bytes of JSON syntax, of numbers and of the key names, plus whitespace
# that JSON does not allow and one non-ASCII character
EDIT_CHARS = '0123456789-+.eE,[]{}":vedgs \t\r\n\x0b\x0c\\ntrufalé'


@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.booleans(),
       st.sampled_from(["insert", "delete", "substitute"]), st.sampled_from(EDIT_CHARS),
       st.integers(0, 10 ** 4))
@settings(max_examples=600, deadline=None)
def test_json_reader_matches_json_loads_on_one_byte_edits(seed, v, keys_reversed, edit, ch,
                                                         where):
    obj = json.loads(json_dumps_graph(random_graph(seed, v=v, p=0.5)))
    text = json.dumps(dict(reversed(obj.items())) if keys_reversed else obj)
    at = where % (len(text) + (edit == "insert"))
    rest = text[at + (edit != "insert"):]
    text = text[:at] + ("" if edit == "delete" else ch) + rest
    got = outcome(from_json, text)
    assert got == outcome(read_json_graph, text)
    if got is not None:
        validate(got)


def io_peaks(path, g):
    """Peak traced bytes of write_graph(path, g) and of reading it back,
    and the graph read."""
    tracemalloc.start()
    try:
        write_graph(path, g)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        h = read_graph(path)
        read_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return write_peak, read_peak, h


def test_json_io_memory_is_bounded(tmp_path):
    # the JSON spans at least three chunks; the bound allows the file, a few
    # copies of the bit rows, and no more than a constant number of chunks
    g = random_graph(7, v=600, p=0.5)
    path = str(tmp_path / "g.json")
    write_peak, read_peak, h = io_peaks(path, g)
    size = os.path.getsize(path)
    assert size >= 3 * JSON_CHUNK
    assert h == g
    bound = size + 4 * g.rows.nbytes + 16 * JSON_CHUNK
    assert write_peak < bound
    assert read_peak < bound


def test_graph6_io_memory_is_at_most_json(tmp_path):
    # a sparse graph, whose graph6 file is larger than its JSON: writing and
    # reading it as graph6 holds no more than as JSON
    rng = np.random.default_rng(8)
    e = rng.integers(0, 4096, (40000, 2))
    g = from_edges(4096, e[e[:, 0] != e[:, 1]])
    g6, js = str(tmp_path / "g.g6"), str(tmp_path / "g.json")
    *g6_peaks, g6_read = io_peaks(g6, g)
    *json_peaks, json_read = io_peaks(js, g)
    assert g6_read == json_read == g
    assert os.path.getsize(g6) > os.path.getsize(js)
    assert g6_peaks[0] <= json_peaks[0] and g6_peaks[1] <= json_peaks[1]


def test_file_roundtrip_both_formats(tmp_path):
    g = random_graph(3, v=23)
    for name in ("g.json", "g.g6"):
        path = str(tmp_path / name)
        write_graph(path, g)
        assert read_graph(path) == g


def test_write_is_deterministic(tmp_path):
    g = random_graph(9, v=17)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_graph(p1, g)
    write_graph(p2, g)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    obj = json.loads(open(p1).read())
    assert obj["v"] == 17


# integers stay small, or beyond any array numpy can shape, where they
# could be a vertex count: the reader allocates v * ceil(v / 64) words
json_scalars = (st.none() | st.booleans() | st.floats() | st.text(max_size=5)
                | st.integers(-3, 40) | st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner,
                                                                  max_size=4),
    max_leaves=20)
edge_lists = st.lists(st.lists(st.integers(-3, 40) | json_scalars, min_size=1, max_size=3),
                      max_size=6)
graph_like = st.fixed_dictionaries({"v": json_values, "edges": json_values | edge_lists})


@given(st.one_of(json_values, graph_like))
@settings(max_examples=300, deadline=None)
def test_read_graph_fuzz_json(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(json.dumps(obj))
    try:
        g = read_graph(str(path))
    except (GraphParseError, ValueError):
        return
    validate(g)


@given(st.text(max_size=30) | st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126),
                                      max_size=30))
@settings(max_examples=300, deadline=None)
def test_read_graph_fuzz_graph6(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "g.g6"
    path.write_text(text)
    try:
        g = read_graph(str(path))
    except (GraphParseError, ValueError):
        return
    validate(g)
