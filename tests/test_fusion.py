import networkx as nx
import numpy as np
import pytest

from fgl import bits, graphs, groups
from fgl.fusion import (PiSpec, build_fusion_graph, odd_complement_seed,
                        seed_set_cover3_certificate)
from fgl.graphs import (NotAntipodal, NotDistanceRegular, deza_check,
                        recognize_clique_union, recognize_complete_multipartite)
from fgl.groups import involution_class, make_group, sylow_partition
from oracles import (antipodal_cover3_certificate, clique_rows, diameter, distance_power, edges,
                     iter_common_neighbor_counts)


# -- oracles: graph builders with the distance-power identities asserted ------


class Gamma2Mismatch(Exception):
    """Odd-complement graph differs from the distance-2 power of the chi graph."""


class PhiIdentityMismatch(Exception):
    """Clique-augmented graph differs from the distance-{1,3} power or complement."""


def chi_graph(cls) -> graphs.Graph:
    """Graph of distinguished pairs (product order = associated prime)."""
    return build_fusion_graph(cls, PiSpec.chi_only())


def pi_graph(cls, verify: bool = True) -> graphs.Graph:
    """Odd-complement fusion graph; asserted equal to the distance-2 power
    of the chi graph when verify is set."""
    g = build_fusion_graph(cls, PiSpec.odd_complement())
    if verify:
        cert = antipodal_cover3_certificate(chi_graph(cls))
        if not np.array_equal(cert.d2_rows, g.rows):
            raise Gamma2Mismatch(
                "odd-complement graph is not the distance-2 power of the chi graph")
    return g


def phi_graph(chi_g: graphs.Graph, labels, pi_g: graphs.Graph | None = None) -> graphs.Graph:
    """Chi graph with antipodal classes turned into cliques.

    Asserted equal to the distance-{1,3} power of the chi graph, and to the
    complement of the odd-complement graph when one is supplied.
    """
    rows = chi_g.rows | clique_rows(labels)
    if not np.array_equal(rows, antipodal_cover3_certificate(chi_g).d13_rows):
        raise PhiIdentityMismatch(
            "clique-augmented graph differs from the distance-{1,3} power")
    if pi_g is not None and not np.array_equal(rows, pi_g.complement().rows):
        raise PhiIdentityMismatch(
            "clique-augmented graph is not the complement of the odd-complement graph")
    return graphs.Graph(chi_g.v, rows)


def common_neighbor_graph(g: graphs.Graph, c: int) -> graphs.Graph:
    """Graph joining distinct vertices with exactly c common neighbors in g."""
    v = g.v
    up = bits.zero_rows(v, v)
    for x, cn in iter_common_neighbor_counts(g):
        sel = np.concatenate([np.zeros(x + 1, dtype=bool), cn == c])
        up[x] = bits.pack_bool(sel, v)
    return graphs.Graph(v, up | bits.transpose(up, v))


@pytest.fixture(scope="module")
def psl2_4():
    return involution_class(make_group("psl2", 2))


@pytest.fixture(scope="module")
def psl2_8():
    return involution_class(make_group("psl2", 3))


def test_carried_graph_row_blocks(psl2_8, monkeypatch):
    # carried in several blocks of several rows, both fusion graphs equal the
    # one-block build
    pis = (PiSpec.chi_only(), PiSpec.odd_complement())
    one_block = [build_fusion_graph(psl2_8, pi) for pi in pis]
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", 1000)
    assert 1 < 1000 // psl2_8.size < psl2_8.size
    for pi, want in zip(pis, one_block):
        assert build_fusion_graph(psl2_8, pi) == want


def test_pispec_validation():
    with pytest.raises(ValueError):
        PiSpec("nonsense")


def test_chi_graph_psl2_4(psl2_4):
    g = chi_graph(psl2_4)
    assert g.v == 15
    assert g.valency() == 4
    assert g.edge_count() == 30


def test_pi_graph_psl2_4_verified(psl2_4):
    g = pi_graph(psl2_4)  # includes the distance-2 identity assertion
    assert g.valency() == 8
    assert diameter(g) == 2


def test_pi_equals_distance_power(psl2_4):
    chi_g = chi_graph(psl2_4)
    assert pi_graph(psl2_4) == distance_power(chi_g, {2})


def test_phi_graph_identities(psl2_4):
    chi_g = chi_graph(psl2_4)
    labels = sylow_partition(psl2_4)
    pg = pi_graph(psl2_4, verify=False)
    phi = phi_graph(chi_g, labels, pi_g=pg)
    assert phi.valency() == 4 + 2  # chi valency plus within-class clique edges
    assert phi == distance_power(chi_g, {1, 3})
    assert phi == pg.complement()


def test_omega_graphs_psl2_8(psl2_8):
    pg = pi_graph(psl2_8)
    # k = 8, r = 7, mu = 1: cross-class count 36, within-class count 40
    om = common_neighbor_graph(pg, 36)
    oc = common_neighbor_graph(pg, 40)
    assert recognize_complete_multipartite(om) == (9, 7)
    assert recognize_clique_union(oc) == (9, 7)
    assert om == oc.complement()
    empty = common_neighbor_graph(pg, 37)
    assert empty.edge_count() == 0


def test_deza_certs_match_predictions(psl2_8):
    pg = pi_graph(psl2_8)
    cert = deza_check(pg)
    assert (cert.v, cert.k, cert.b, cert.a) == (63, 48, 40, 36)
    assert cert.is_strict
    assert cert.is_edge_regular and not cert.is_strongly_regular
    chi_cert = deza_check(chi_graph(psl2_8))
    assert (chi_cert.v, chi_cert.k, chi_cert.b, chi_cert.a) == (63, 8, 1, 0)


def test_gamma2_mismatch_detectable(psl2_4, monkeypatch):
    # hand the verifier a wrong graph: it must not silently pass
    real = build_fusion_graph

    def cleared(cls, pi):
        g = real(cls, pi)
        if pi.mode != PiSpec.ODD_COMPLEMENT:
            return g
        rows = g.rows.copy()
        rows[0] = 0  # clear one row on purpose
        return graphs.Graph(g.v, rows)
    monkeypatch.setitem(globals(), "build_fusion_graph", cleared)
    with pytest.raises(Gamma2Mismatch):
        pi_graph(psl2_4)


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("sz", 3), ("psu3", 2)])
def test_fusion_graphs_equal_full_order_scan(family, n):
    # every row carried from vertex 0 against the product orders of all pairs
    cls = involution_class(make_group(family, n))
    scan = groups.full_order_scan(cls)
    assert build_fusion_graph(cls, PiSpec.chi_only()) == graphs.Graph(cls.size, scan.chi)
    assert build_fusion_graph(cls, PiSpec.odd_complement()) == \
        graphs.Graph(cls.size, scan.comm | scan.chi).complement()


def test_cover_certificate_on_chi_graphs(psl2_8):
    cert = antipodal_cover3_certificate(chi_graph(psl2_8))
    assert cert.array.b == (8, 6, 1)
    assert cert.array.c == (1, 1, 8)
    assert cert.r == 7


def _assert_cover_certs_equal(seed, full):
    """The seed-set certificate against the exhaustive one, field for field;
    its d2 and d3 are row 0 of the exhaustive distance relations."""
    v = len(full.labels)
    assert seed.array == full.array
    assert seed.array.a[1] == full.array.a[1] and seed.array.c[1] == full.array.c[1]
    assert np.array_equal(seed.labels, full.labels)
    assert seed.r == full.r
    assert seed.cn_spectrum == full.cn_spectrum
    assert np.array_equal(seed.d2, bits.indices(full.d2_rows[0], v))
    assert np.array_equal(seed.d3, bits.indices(full.d3_rows[0], v))


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("sz", 3), ("psu3", 2)])
def test_seed_vertex_certificate_equals_exhaustive(family, n):
    cls = involution_class(make_group(family, n))
    seed = seed_set_cover3_certificate(cls, cls.seed_sets().chi)
    _assert_cover_certs_equal(seed, antipodal_cover3_certificate(chi_graph(cls)))


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4),
                                      ("sz", 3), ("psu3", 2)])
def test_seed_set_certificate_matches_networkx(family, n):
    # an independent distance-regularity oracle on the graph fgl construct builds
    cls = involution_class(make_group(family, n))
    chi_g = build_fusion_graph(cls, PiSpec.chi_only())
    g = nx.Graph()
    g.add_nodes_from(range(chi_g.v))
    g.add_edges_from(edges(chi_g).tolist())
    assert nx.is_distance_regular(g)
    seed = seed_set_cover3_certificate(cls, cls.seed_sets().chi)
    b, c = nx.intersection_array(g)
    assert (tuple(b), tuple(c)) == (seed.array.b, seed.array.c)
    _assert_cover_certs_equal(seed, antipodal_cover3_certificate(chi_g))


@pytest.mark.parametrize("relation,error", [("commuting", NotDistanceRegular),
                                            ("odd-complement", NotDistanceRegular),
                                            ("non-commuting", NotDistanceRegular)])
def test_seed_vertex_certificate_rejects_invariant_non_covers(psl2_8, relation, error):
    # all three relations are conjugation-invariant: the commuting graph
    # (nine disjoint K7) has no distance-2 pair; the non-adjacent pairs of
    # the odd-complement graph share 36 (chi pairs) or 40 (Sylow pairs)
    # neighbors; the non-commuting graph has no distance-3 pair, so every
    # vertex is an antipodal class of its own, and vertex 0 has no neighbor
    # in those of its commuting partners (b2), where the exhaustive oracle
    # finds no antipodal class size
    v = psl2_8.size
    sets = psl2_8.seed_sets()
    comm = psl2_8.order_scan().comm
    nbrs = {"commuting": sets.comm,
            "odd-complement": odd_complement_seed(v, sets),
            "non-commuting": np.setdiff1d(np.arange(1, v), sets.comm)}[relation]
    g = {"commuting": graphs.Graph(v, comm),
         "odd-complement": build_fusion_graph(psl2_8, PiSpec.odd_complement()),
         "non-commuting": graphs.Graph(v, comm).complement()}[relation]
    assert np.array_equal(nbrs, g.neighbors(0))
    with pytest.raises(error) as ei:
        seed_set_cover3_certificate(psl2_8, nbrs)
    if relation == "odd-complement":
        x, y, name, want, got = ei.value.witness
        assert (x, name, want, got) == (0, "c2", 36, 40)
        assert y not in g.neighbors(0)
    if relation == "non-commuting":
        x, y, name, want, got = ei.value.witness
        assert (x, y, name, want, got) == (sets.comm[0], 0, "b2", 1, 0)
    with pytest.raises(NotAntipodal if relation == "non-commuting" else error):
        antipodal_cover3_certificate(g)


def test_seed_vertex_certificate_checks_the_derived_classes(psl2_8, monkeypatch):
    # a distance-3 set whose orbit is no partition, or classes of the right
    # size that are not the antipodal classes, must fail with a witness
    chi = psl2_8.seed_sets().chi
    not_a_block = np.concatenate([[0], chi])
    shuffled = np.random.default_rng(0).permutation(sylow_partition(psl2_8))
    real = groups.block_partition
    monkeypatch.setattr(groups, "block_partition",
                        lambda perms, base, hint=None: real(perms, not_a_block, hint))
    with pytest.raises(NotAntipodal) as ei:
        seed_set_cover3_certificate(psl2_8, chi)
    assert ei.value.witness == (0,)
    monkeypatch.setattr(groups, "block_partition", lambda perms, base, hint=None: shuffled)
    with pytest.raises(NotDistanceRegular) as ei:
        seed_set_cover3_certificate(psl2_8, chi)
    x, y, name, want, got = ei.value.witness
    assert (y, name, want) == (0, "b2", 1) and got != 1
    assert shuffled[x] != shuffled[0]


def test_seed_set_certificate_rejects_an_asymmetric_seed_set(psl2_8, monkeypatch):
    # one vertex z added to N(0) whose own neighbor set, sigma_z of the
    # enlarged N(0), does not contain 0; the last such vertex, also when
    # N(0) is carried a row at a time
    chi = psl2_8.seed_sets().chi
    z = max(z for z in range(1, psl2_8.size)
            if z not in chi and 0 not in psl2_8.carry([z], np.union1d(chi, [z]))[0])
    with pytest.raises(NotDistanceRegular) as ei:
        seed_set_cover3_certificate(psl2_8, np.union1d(chi, [z]))
    assert ei.value.witness == (0, z)
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", psl2_8.size)
    with pytest.raises(NotDistanceRegular) as ei:
        seed_set_cover3_certificate(psl2_8, np.union1d(chi, [z]))
    assert ei.value.witness == (0, z)


def test_seed_set_certificate_rejects_a_seed_set_cut_from_a_class(psl2_8):
    # chi(0) less one vertex is no union of stabiliser classes; the witness
    # is the least vertex of N(0) whose class is not wholly inside N(0)
    chi, root = psl2_8.seed_sets().chi, psl2_8.suborbits().root
    for y in (chi[0], chi[-1]):
        nbrs = np.setdiff1d(chi, [y])
        cut = nbrs[root[nbrs] == root[y]]
        with pytest.raises(NotDistanceRegular, match="not a union of stabiliser classes") as ei:
            seed_set_cover3_certificate(psl2_8, nbrs)
        assert ei.value.witness == (0, int(cut[0]))
