import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.graphio import (GraphParseError, from_graph6, from_json_obj,
                         read_graph, to_graph6, write_graph)
from fgl.graphs import Graph
from oracles import edge_list, json_dumps_graph

# parsed graph JSON that the reader must reject: non-integer or boolean
# vertex counts and endpoints, non-lists, ragged or wrongly shaped lists,
# endpoints outside int64
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


def random_graph(seed, v=None, p=0.3):
    rng = np.random.default_rng(seed)
    if v is None:
        v = int(rng.integers(1, 40))
    mat = np.triu(rng.random((v, v)) < p, 1)
    return Graph.from_bool(mat | mat.T)


def test_known_graph6_values():
    # the worked example from McKay's format description
    g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    assert to_graph6(g) == "DQc"
    assert from_graph6("DQc") == g
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert to_graph6(k4) == "C~"


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_graph6_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    g = random_graph(seed)
    ours = to_graph6(g)
    ng = nx.from_graph6_bytes(ours.encode())
    assert set(ng.nodes) == set(range(g.v))
    assert {tuple(sorted(e)) for e in ng.edges} == set(map(tuple, g.edges().tolist()))
    theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
    assert theirs == ours


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
    g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
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
    obj = json.loads(open(path).read())
    assert obj["edges"] == sorted(obj["edges"])
    assert all(i < j for i, j in obj["edges"])
    assert from_json_obj(obj) == g


@given(st.integers(0, 10 ** 6), st.integers(0, 40), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
@settings(max_examples=60, deadline=None)
def test_json_writer_matches_json_dumps(tmp_path_factory, seed, v, p):
    g = random_graph(seed, v=v, p=p)
    e = g.edges()
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
        from_json_obj(obj)


def test_json_rejects_bad_input():
    with pytest.raises(GraphParseError):
        from_json_obj({"edges": []})
    with pytest.raises(GraphParseError):
        from_json_obj({"v": 2, "edges": [[0, 0]]})
    with pytest.raises(GraphParseError):
        from_json_obj({"v": 2, "edges": [[0, 5]]})


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
        read_graph(str(path))
    except (GraphParseError, ValueError):
        pass


@given(st.text(max_size=30) | st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126),
                                      max_size=30))
@settings(max_examples=300, deadline=None)
def test_read_graph_fuzz_graph6(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "g.g6"
    path.write_text(text)
    try:
        read_graph(str(path))
    except (GraphParseError, ValueError):
        pass
