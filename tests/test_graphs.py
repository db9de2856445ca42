import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl import bits, fusion, graphs, groups
from fgl.formulas import IntersectionArray
from fgl.graphs import (Disconnected, Graph, MoreThanTwoValues, NotAntipodal,
                        NotDistanceRegular, NotRegular, PartitionNotUniform,
                        antipodal_classes, common_neighbor_spectrum,
                        ddg_check, deza_check, intersection_array,
                        recognize_clique_union, recognize_complete_multipartite)
from oracles import (InvalidDistanceSet, NotEdgeRegular,
                     antipodal_classes_two_pass, antipodal_cover3_certificate, clique_union_per_vertex,
                     common_neighbor_spectrum_per_row, connected_components, ddg_check_per_row,
                     deza_check_per_row, diameter, distance_power, distances_from, edges,
                     from_edges,
                     edge_regular_lambda, intersection_array_per_source)


def complete_graph(v):
    return from_edges(v, [(i, j) for i in range(v) for j in range(i + 1, v)])


def cycle(v):
    return from_edges(v, [(i, (i + 1) % v) for i in range(v)])


def petersen():
    verts = list(itertools.combinations(range(5), 2))
    idx = {s: i for i, s in enumerate(verts)}
    edges = [(idx[a], idx[b]) for a, b in itertools.combinations(verts, 2)
             if not (set(a) & set(b))]
    return from_edges(10, edges)


def petersen_line_graph():
    """15-vertex graph on the edges of the Petersen graph, adjacency = shared endpoint."""
    p = petersen()
    es = edges(p).tolist()
    return from_edges(len(es), [(i, j) for i, j in itertools.combinations(range(len(es)), 2)
                                if set(es[i]) & set(es[j])])


def octahedron():
    # complete multipartite with parts {0,3}, {1,4}, {2,5}
    return from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                          if j - i != 3])


def prism():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return from_edges(6, edges)


def spectrum_oracle(g):
    """Brute-force common-neighbor census with python sets."""
    nbrs = [set(map(int, g.neighbors(i))) for i in range(g.v)]
    out = {}
    for i in range(g.v):
        for j in range(i + 1, g.v):
            c = len(nbrs[i] & nbrs[j])
            out[c] = out.get(c, 0) + 1
    return out


def test_distances_complete_graph():
    g = complete_graph(4)
    assert list(distances_from(g, 0)) == [0, 1, 1, 1]
    assert diameter(g) == 1


def test_disconnected_raises():
    g = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        diameter(g)
    with pytest.raises(Disconnected):
        intersection_array(g)


def test_hexagon_antipodal():
    g = cycle(6)
    labels = antipodal_classes(g)
    assert len(set(map(int, labels))) == 3
    assert all(int(c) == 2 for c in np.bincount(labels))
    assert intersection_array(g) == IntersectionArray(b=(2, 1, 1), c=(1, 1, 2))


def test_petersen_array_and_not_antipodal():
    g = petersen()
    assert intersection_array(g) == IntersectionArray(b=(3, 2), c=(1, 1))
    with pytest.raises(NotAntipodal):
        antipodal_classes(g)


def _outcome(f, g):
    try:
        return f(g).tolist()
    except (Disconnected, NotAntipodal) as e:
        return type(e).__name__, str(e), getattr(e, "witness", None)


def test_antipodal_classes_match_two_pass_oracle():
    rng = np.random.default_rng(7)
    cases = [cycle(6), cycle(7), petersen(), petersen_line_graph(), prism(), octahedron(),
             complete_graph(4), from_edges(4, [(0, 1), (2, 3)]),
             from_edges(4, [(1, 2), (2, 3)])]
    for v in range(1, 13):
        mat = np.triu(rng.random((v, v)) < 0.4, 1)
        cases.append(Graph.from_bool(mat | mat.T))
    for g in cases:
        assert _outcome(antipodal_classes, g) == _outcome(antipodal_classes_two_pass, g)
    with pytest.raises(Disconnected):
        antipodal_classes(Graph.empty(0))


def test_petersen_line_graph_is_diameter3_cover():
    g = petersen_line_graph()
    arr = intersection_array(g)
    assert arr == IntersectionArray(b=(4, 2, 1), c=(1, 1, 4))
    labels = antipodal_classes(g)
    assert len(set(map(int, labels))) == 5
    # the single-pass certificate agrees with the generic algorithms
    cert = antipodal_cover3_certificate(g)
    assert cert.array == arr
    assert cert.r == 3
    same = labels[:, None] == labels[None, :]
    same2 = cert.labels[:, None] == cert.labels[None, :]
    assert np.array_equal(same, same2)
    assert cert.cn_spectrum == common_neighbor_spectrum(g)


def test_cover_certificate_distance_rows():
    g = petersen_line_graph()
    cert = antipodal_cover3_certificate(g)
    g2 = distance_power(g, {2})
    g13 = distance_power(g, {1, 3})
    assert np.array_equal(cert.d2_rows, g2.rows)
    assert np.array_equal(cert.d13_rows, g13.rows)
    assert g13 == g2.complement()


def test_cover_certificate_rejects_petersen():
    with pytest.raises((NotDistanceRegular, NotAntipodal)):
        antipodal_cover3_certificate(petersen())


def test_distance_power_identity_and_validation():
    g = cycle(6)
    assert distance_power(g, {1}) == g
    with pytest.raises(InvalidDistanceSet):
        distance_power(g, {0, 1})
    with pytest.raises(InvalidDistanceSet):
        distance_power(g, {7})


def test_distance_power_triangles():
    g = petersen_line_graph()
    g3 = distance_power(g, {3})
    assert recognize_clique_union(g3) == (5, 3)


def test_spectrum_random_graphs_match_oracle():
    rng = np.random.default_rng(42)
    for trial in range(8):
        v = int(rng.integers(5, 26))
        mat = rng.random((v, v)) < 0.35
        mat = np.triu(mat, 1)
        mat = mat | mat.T
        g = Graph.from_bool(mat)
        assert common_neighbor_spectrum(g) == spectrum_oracle(g)


def test_deza_check_octahedron():
    cert = deza_check(octahedron())
    assert (cert.v, cert.k, cert.b, cert.a) == (6, 4, 4, 2)
    assert cert.is_edge_regular
    # common-neighbor count does split by adjacency here
    assert cert.is_strongly_regular


def test_deza_check_errors():
    with pytest.raises(NotRegular):
        deza_check(from_edges(3, [(0, 1)]))
    # the triangular prism realizes counts 0, 1, 2 -> more than two values
    with pytest.raises(MoreThanTwoValues):
        deza_check(prism())


def test_edge_regular():
    assert edge_regular_lambda(complete_graph(4)) == 2
    assert edge_regular_lambda(cycle(5)) == 0
    with pytest.raises(NotEdgeRegular):
        edge_regular_lambda(prism())


def test_ddg_check_basic():
    g = octahedron()
    labels = [0, 1, 2, 0, 1, 2]
    cert = ddg_check(g, labels)
    assert (cert.m, cert.r) == (3, 2)
    assert (cert.lambda_within, cert.lambda_cross) == (4, 2)
    with pytest.raises(PartitionNotUniform):
        ddg_check(g, [0, 0, 0, 0, 0, 1])
    with pytest.raises(MoreThanTwoValues):
        ddg_check(g, [0, 0, 1, 1, 2, 2])


def test_recognizers():
    assert recognize_complete_multipartite(octahedron()) == (3, 2)
    assert recognize_clique_union(octahedron()) is None
    five_triangles = from_edges(
        15, [(3 * i + a, 3 * i + b) for i in range(5) for a, b in [(0, 1), (0, 2), (1, 2)]])
    assert recognize_clique_union(five_triangles) == (5, 3)
    assert recognize_complete_multipartite(petersen()) is None
    assert recognize_clique_union(petersen()) is None
    unequal = from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert recognize_clique_union(unequal) is None


def test_clique_union_matches_per_vertex_oracle():
    # unions of cliques, equal and unequal, then with one edge flipped
    rng = np.random.default_rng(3)
    cases = [complete_graph(5), Graph.empty(6), petersen(), octahedron(), prism()]
    for trial in range(12):
        sizes = [int(rng.integers(1, 5))] * int(rng.integers(1, 6))
        if trial % 3 == 0:
            sizes[0] += 1
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        g = Graph.from_bool(same)
        cases.append(g)
        if g.v > 2:
            i, j = sorted(rng.choice(g.v, 2, replace=False))
            same[i, j] = same[j, i] = not same[i, j]
            cases.append(Graph.from_bool(same))
    for g in cases:
        assert recognize_clique_union(g) == clique_union_per_vertex(g)
        assert recognize_complete_multipartite(g) == clique_union_per_vertex(g.complement())
    assert recognize_complete_multipartite(complete_graph(4)) == (4, 1)


def test_components():
    g = from_edges(5, [(0, 1), (2, 3)])
    labels = connected_components(g)
    assert len(set(map(int, labels))) == 3


def test_complement_and_degrees():
    g = cycle(5)
    assert list(g.degrees()) == [2] * 5
    cg = g.complement()
    assert list(cg.degrees()) == [2] * 5
    assert cg.complement() == g


def test_distance_trichotomy_on_random_diameter3_graphs():
    # on any connected diameter-3 graph the {1,3} power complements the {2} power
    rng = np.random.default_rng(7)
    found = 0
    while found < 5:
        v = int(rng.integers(8, 20))
        mat = rng.random((v, v)) < 0.22
        mat = np.triu(mat, 1)
        g = Graph.from_bool(mat | mat.T)
        try:
            if diameter(g) != 3:
                continue
        except Disconnected:
            continue
        found += 1
        assert distance_power(g, {1, 3}) == distance_power(g, {2}).complement()


def test_intersection_array_witness():
    # C5 plus a chord is not distance-regular
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    with pytest.raises(NotDistanceRegular) as ei:
        intersection_array(g)
    assert ei.value.witness is not None


def test_equivalence_classes_labels_and_witness():
    from fgl import bits
    # classes {0, 2} and {1, 3}, numbered by least member
    rel = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=bool)
    labels, witness = bits.equivalence_classes(bits.pack_bool(rel), 4)
    assert witness is None and labels.tolist() == [0, 1, 0, 1]
    # 0 ~ 1 and 1 ~ 2, but not 0 ~ 2
    rel = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    labels, witness = bits.equivalence_classes(bits.pack_bool(rel), 3)
    assert labels is None and witness == (0, 1, 2)


# -- the blocked product kernel against the per-vertex oracles ------------------

CHECK_ERRORS = (Disconnected, NotDistanceRegular, NotAntipodal, NotRegular,
                MoreThanTwoValues, PartitionNotUniform)


def _result(f, *args):
    """A check's value, or its exception's class, message and witness."""
    try:
        out = f(*args)
    except CHECK_ERRORS as e:
        return type(e).__name__, str(e), getattr(e, "witness", None)
    return out.tolist() if isinstance(out, np.ndarray) else out


def _cn(g, x, y):
    return len(set(g.neighbors(x).tolist()) & set(g.neighbors(y).tolist()))


def _layer_count(g, src, y, name):
    """c: neighbors of y one step nearer to src; a: as near; b: one step farther."""
    dist = distances_from(g, src)
    step = {"c": -1, "a": 0, "b": 1}[name]
    return int(np.count_nonzero(dist[g.neighbors(y)] == dist[y] + step))


def _assert_drg_witness(g, witness):
    if len(witness) == 2:  # eccentricity differs from vertex 0's
        src, y = witness
        dist = distances_from(g, src)
        assert dist[y] == dist.max() != distances_from(g, 0).max()
        return
    src, y, param, expected, got = witness
    name, i = param[0], int(param[1:])
    assert distances_from(g, src)[y] == i
    assert _layer_count(g, src, y, name) == got != expected
    # the expected value is realized at distance i, at src itself or at vertex 0
    assert any(_layer_count(g, s, z, name) == expected
               for s in {0, src} for z in np.nonzero(distances_from(g, s) == i)[0])


def _assert_antipodal_witness(g, witness):
    x, y, z = witness
    d = diameter(g)

    def related(a, b):
        return a == b or distances_from(g, a)[b] == d
    assert related(x, y) and related(x, z) != related(y, z)


def _assert_cn_witness(g, witness, labels=None):
    x, y, values = witness
    assert x < y and _cn(g, x, y) in values and len(values) == len(set(values)) >= 2
    same = labels is not None and labels[x] == labels[y]
    realized = {_cn(g, a, b) for a in range(g.v) for b in range(a + 1, g.v)
                if labels is None or (labels[a] == labels[b]) == same}
    assert set(values) <= realized
    if labels is None:
        assert len(values) == 3


def _circulant(v, rng, p):
    """Regular, vertex-transitive: DRG, Deza or three-valued by the draw."""
    conn = rng.random(v) < p
    conn = (conn | conn[(-np.arange(v)) % v]) & (np.arange(v) > 0)
    return conn[(np.arange(v)[None, :] - np.arange(v)[:, None]) % v]


@st.composite
def oracle_cases(draw):
    v = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["random", "circulant", "copies", "flipped"]))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    divisors = [m for m in range(1, v + 1) if v % m == 0] or [1]
    if kind == "random":  # mostly irregular
        mat = rng.random((v, v)) < p
    elif kind == "copies":  # regular and disconnected
        m = draw(st.sampled_from(divisors))
        mat = np.kron(np.eye(v // m, dtype=bool), _circulant(min(m, v), rng, p)).reshape(v, v)
    else:
        mat = _circulant(v, rng, p)
    mat = np.triu(mat, 1)
    if kind == "flipped" and v > 1:  # one edge off a regular graph
        i, j = sorted(rng.choice(v, 2, replace=False))
        mat[i, j] = not mat[i, j]
    m = draw(st.sampled_from(divisors))
    labels = np.arange(v) % m if draw(st.booleans()) else rng.permutation(np.arange(v) % m)
    return Graph.from_bool(mat | mat.T), labels


def _multipartite(g):
    return recognize_complete_multipartite(g), recognize_clique_union(g)


def _multipartite_per_vertex(g):
    # no graph on 0 vertices is a clique union; the oracle needs a vertex
    return (clique_union_per_vertex(g.complement()), clique_union_per_vertex(g)) if g.v else (
        None, None)


# (check, per-vertex oracle, whether it takes the partition), as analyze runs them
SIX_CHECKS = (
    (intersection_array, intersection_array_per_source, False),
    (antipodal_classes, antipodal_classes_two_pass, False),
    (deza_check, deza_check_per_row, False),
    (ddg_check, ddg_check_per_row, True),
    (common_neighbor_spectrum, common_neighbor_spectrum_per_row, False),
    (_multipartite, _multipartite_per_vertex, False),
)


@settings(max_examples=200, deadline=None)
@given(oracle_cases(), st.permutations(range(len(SIX_CHECKS))))
def test_product_kernel_checks_equal_per_vertex_oracles(case, order):
    # in any order on one graph, whose passes are kept, each check gives what it
    # gives on a fresh graph of the same rows and what its oracle gives
    _assert_checks_equal_oracles(*case, order)


@settings(max_examples=200, deadline=None)
@given(oracle_cases(), st.permutations(range(len(SIX_CHECKS))))
def test_product_kernel_checks_in_row_blocks_equal_per_vertex_oracles(case, order):
    # the same with a few rows per block: a graph of v > 8 vertices takes
    # several blocks, so source 0's values reach the later blocks' checks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bits, "ROW_BLOCK_BITS", 64)
        _assert_checks_equal_oracles(*case, order)


def _assert_checks_equal_oracles(g, labels, order):
    for check, oracle, partitioned in (SIX_CHECKS[i] for i in order):
        args = (g, labels) if partitioned else (g,)
        got = _result(check, *args)
        assert got == _result(check, Graph(g.v, g.rows.copy()), *args[1:]), check.__name__
        assert got == _result(oracle, *args), check.__name__
        if not (isinstance(got, tuple) and len(got) == 3 and got[2]):
            continue
        kind, witness = got[0], got[2]
        if kind == "NotDistanceRegular":
            _assert_drg_witness(g, witness)
        elif kind == "NotAntipodal":
            _assert_antipodal_witness(g, witness)
        else:
            _assert_cn_witness(g, witness, labels if partitioned else None)
    assert common_neighbor_spectrum(g) == spectrum_oracle(g)


def _relabelled(g, order):
    """g with vertex order[k] named k."""
    return from_edges(g.v, np.argsort(order)[edges(g)])


def _petersen_less_an_edge():
    # sources 1, 2, 4 and 5 agree with one another; the ends of the edge and
    # their neighbours do not.  Named so that those four come first, the first
    # source to fail is 4.
    g = petersen()
    e = edges(g).tolist()
    return _relabelled(from_edges(10, e[1:]), [1, 2, 4, 5, 0, 3, 6, 7, 8, 9])


# (graph, the first failing source): from a later block; source 0 itself,
# whose b_1 is not constant; a tree whose source 1 sees at distance 1 the
# a and c of source 0 but a vertex of another degree, so only b_1 differs;
# eccentricities below and above source 0's
DRG_FAILURES = {
    "later-block": (_petersen_less_an_edge(), 4),
    "source-0": (from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]), 0),
    "b-only": (from_edges(5, [(0, 4), (1, 3), (2, 3), (3, 4)]), 1),
    "smaller-eccentricity": (from_edges(3, [(0, 1), (1, 2)]), 1),
    "larger-eccentricity": (from_edges(3, [(0, 1), (0, 2)]), 1),
}


@pytest.mark.parametrize("block_bits", [bits.ROW_BLOCK_BITS, 1], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("name", DRG_FAILURES)
def test_drg_failures_equal_per_source_oracle(monkeypatch, name, block_bits):
    # the first failing source's counts, formed alone, give the oracle's
    # message and witness, in one block or one row per block
    g, src = DRG_FAILURES[name]
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", block_bits)
    want = _result(intersection_array_per_source, g)
    assert want[0] == "NotDistanceRegular" and want[2][0] == src
    assert _result(intersection_array, g) == want
    assert _result(intersection_array, Graph(g.v, g.rows.copy())) == want
    if name == "b-only":
        assert want[2][2] == "b1"
        for count in "ac":  # a and c at the witness are source 0's at distance 1
            assert _layer_count(g, src, want[2][1], count) == _layer_count(g, 0, 4, count)
    if name.endswith("eccentricity"):
        assert len(want[2]) == 2


def test_rows_are_read_only_and_results_are_copies():
    g = cycle(6)
    with pytest.raises(ValueError):
        g.rows[0] = 0
    labels = antipodal_classes(g)
    labels[:] = 7
    assert antipodal_classes(g).tolist() == [0, 1, 2, 0, 1, 2]
    # a kept failure is raised as a new exception on each call
    chorded = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    for check, g, error in ((intersection_array, chorded, NotDistanceRegular),
                            (deza_check, prism(), MoreThanTwoValues)):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as e:
                check(g)
            raised.append(e.value)
        assert raised[0] is not raised[1] and raised[0].witness == raised[1].witness


def test_count_dtype_boundaries():
    # distances and counts run over -1..v-1
    sizes = (128, 129, 32767, 32768, 32769, graphs.EXACT_LIMIT - 1)
    assert [graphs._count_dtype(v) for v in sizes] == [
        np.int8, np.int16, np.int16, np.int16, np.int32, np.int32]
    # K_128 counts b_0 = deg - c - a = 127, the int8 maximum
    assert intersection_array(complete_graph(128)) == IntersectionArray(b=(127,), c=(1,))


@pytest.mark.parametrize("family,n", [("psl2", 4), ("psu3", 2)])
def test_fusion_graph_checks_in_small_blocks(family, n, monkeypatch):
    # a few rows per product block give the oracles' results, failures included
    cls = groups.involution_class(groups.make_group(family, n))
    labels = cls.sylow_labels()
    cases = [(g, labels) for g in (fusion.build_fusion_graph(cls, fusion.PiSpec.chi_only()),
                                   fusion.build_fusion_graph(cls, fusion.PiSpec.odd_complement()))]
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", 1 << 10)
    assert max(hi - lo for lo, hi in graphs._row_blocks(cls.size)) < cls.size // 8
    for g, labels in cases:
        for check, oracle, args in (
                (intersection_array, intersection_array_per_source, (g,)),
                (antipodal_classes, antipodal_classes_two_pass, (g,)),
                (deza_check, deza_check_per_row, (g,)),
                (ddg_check, ddg_check_per_row, (g, labels)),
                (common_neighbor_spectrum, common_neighbor_spectrum_per_row, (g,))):
            assert _result(check, *args) == _result(oracle, *args), check.__name__


def test_passing_ddg_reads_the_kept_census(monkeypatch):
    # after deza keeps the census, ddg adds only its within-class products
    cls = groups.involution_class(groups.make_group("psl2", 4))
    labels = cls.sylow_labels()
    g = fusion.build_fusion_graph(cls, fusion.PiSpec.odd_complement())
    want = ddg_check_per_row(g, labels)
    deza_check(g)

    def second_pass(g):
        raise AssertionError("a second common-neighbour pass")
    monkeypatch.setattr(graphs, "_common_neighbor_blocks", second_pass)
    assert ddg_check(g, labels) == want


# (graph, partition, the failure's first word): the even cycle is bipartite,
# so pairs across its two sides have no common neighbour and pairs within a
# side one or none; antipodal pairs have none and the other pairs one or none.
# All pairs of K5 have three, so only the missing within-class pairs fail.
DDG_FAILURES = {
    "within-varies": (cycle(256), np.arange(256) % 2, "within-class"),
    "cross-varies": (cycle(256), np.arange(256) % 128, "cross-class"),
    "no-within-pairs": (cycle(256), np.arange(256), "cross-class"),
    "no-within-pairs-constant": (complete_graph(5), np.arange(5), "partition"),
}


@pytest.mark.parametrize("g,labels,first", DDG_FAILURES.values(), ids=DDG_FAILURES.keys())
def test_ddg_failures_in_small_blocks(monkeypatch, g, labels, first):
    # classes batched, one class split into row blocks, and no within-class
    # pair fail as the per-row oracle fails, with its message and witness
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", 1 << 10)
    got = _result(ddg_check, g, labels)
    assert got == _result(ddg_check_per_row, g, labels)
    assert got[1].startswith(first)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pass_memory_on_psl2_q32_graphs():
    # the distance pass holds A, its count and layer buffers and a few bool
    # layers; the common-neighbour pass A, one product and its pairs' codes.
    # In units of one v x v float32 array (4.19 MB here): 4.3 and 3.1 now,
    # 6.1 and 4.5 before the passes checked and folded in place.
    cls = groups.involution_class(groups.make_group("psl2", 5))
    chi = fusion.build_fusion_graph(cls, fusion.PiSpec.chi_only())
    odd = fusion.build_fusion_graph(cls, fusion.PiSpec.odd_complement())
    unit = 4 * cls.size ** 2
    assert _traced_peak(graphs._distance_census, chi) < 5 * unit
    assert _traced_peak(graphs._cn_census, odd) < 4 * unit


def test_product_kernel_refuses_inexact_sizes(monkeypatch):
    monkeypatch.setattr(graphs, "EXACT_LIMIT", 8)
    with pytest.raises(ValueError, match="exact only below"):
        common_neighbor_spectrum(cycle(8))
    assert common_neighbor_spectrum(cycle(7)) == {0: 14, 1: 7}
