import numpy as np
import pytest

from fgl.fusion import (PiSpec, chi_graph, common_neighbor_graph, phi_graph,
                        pi_graph)
from fgl.graphs import (antipodal_cover3_certificate, deza_check, diameter,
                        distance_power, recognize_clique_union,
                        recognize_complete_multipartite)
from fgl.groups import involution_class, make_group, sylow_partition


@pytest.fixture(scope="module")
def psl2_4():
    return involution_class(make_group("psl2", 2))


@pytest.fixture(scope="module")
def psl2_8():
    return involution_class(make_group("psl2", 3))


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
    assert cert.params() == (63, 48, 40, 36)
    assert cert.is_strict
    assert cert.is_edge_regular and not cert.is_strongly_regular
    chi_cert = deza_check(chi_graph(psl2_8))
    assert chi_cert.params() == (63, 8, 1, 0)


def test_gamma2_mismatch_detectable(psl2_4, monkeypatch):
    # hand the verifier a wrong graph: it must not silently pass
    import fgl.fusion as fu
    rows = fu.odd_complement_rows(psl2_4)
    rows[0] ^= rows[0]  # clear one row on purpose
    monkeypatch.setattr(fu, "odd_complement_rows", lambda cls: rows)
    with pytest.raises(fu.Gamma2Mismatch):
        pi_graph(psl2_4)


def test_cover_certificate_on_chi_graphs(psl2_8):
    cert = antipodal_cover3_certificate(chi_graph(psl2_8))
    assert cert.array.b == (8, 6, 1)
    assert cert.array.c == (1, 1, 8)
    assert cert.r == 7
