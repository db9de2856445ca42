import itertools

import numpy as np
import pytest

from fgl.formulas import IntersectionArray
from fgl.graphs import (Disconnected, Graph, InvalidDistanceSet,
                        MoreThanTwoValues, NotAntipodal, NotDistanceRegular,
                        NotEdgeRegular, NotRegular, PartitionNotUniform,
                        antipodal_classes, antipodal_cover3_certificate,
                        common_neighbor_spectrum, connected_components,
                        ddg_check, deza_check, diameter, distance_power,
                        distances_from, edge_regular_lambda,
                        intersection_array, recognize_clique_union,
                        recognize_complete_multipartite)


def complete_graph(v):
    return Graph.from_edges(v, [(i, j) for i in range(v) for j in range(i + 1, v)])


def cycle(v):
    return Graph.from_edges(v, [(i, (i + 1) % v) for i in range(v)])


def petersen():
    verts = list(itertools.combinations(range(5), 2))
    idx = {s: i for i, s in enumerate(verts)}
    edges = [(idx[a], idx[b]) for a, b in itertools.combinations(verts, 2)
             if not (set(a) & set(b))]
    return Graph.from_edges(10, edges)


def petersen_line_graph():
    """15-vertex graph on the edges of the Petersen graph, adjacency = shared endpoint."""
    p = petersen()
    es = p.edges()
    edges = [(i, j) for i, j in itertools.combinations(range(len(es)), 2)
             if set(es[i]) & set(es[j])]
    return Graph.from_edges(len(es), edges)


def octahedron():
    # complete multipartite with parts {0,3}, {1,4}, {2,5}
    return Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                                if j - i != 3])


def prism():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Graph.from_edges(6, edges)


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
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
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
    assert cert.params() == (6, 4, 4, 2)
    assert cert.is_edge_regular
    # common-neighbor count does split by adjacency here
    assert cert.is_strongly_regular


def test_deza_check_errors():
    with pytest.raises(NotRegular):
        deza_check(Graph.from_edges(3, [(0, 1)]))
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
    five_triangles = Graph.from_edges(
        15, [(3 * i + a, 3 * i + b) for i in range(5) for a, b in [(0, 1), (0, 2), (1, 2)]])
    assert recognize_clique_union(five_triangles) == (5, 3)
    assert recognize_complete_multipartite(petersen()) is None
    assert recognize_clique_union(petersen()) is None
    unequal = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert recognize_clique_union(unequal) is None


def test_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
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
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
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
