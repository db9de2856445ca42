import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from fgl import bits, formulas, fusion, graphs, groups, pipeline
from fgl.cli import main as cli_main
from fgl.gf2 import FieldCtx
from fgl.pipeline import _derived_pi_analysis, run_verify
from oracles import iter_common_neighbor_counts

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def analyze_pi_direct(pi: graphs.Graph, labels: np.ndarray, k: int, r: int, mu: int):
    """Oracle: one exhaustive common-neighbor pass over the odd-complement
    graph, with the same result keys as the derived analysis."""
    v = pi.v
    c_mult = (r - 1) ** 2 * mu  # cross-class common-neighbor count
    c_cliq = k * (r - 2)        # within-class common-neighbor count
    census: dict[int, int] = {}
    lam_edge = None
    lam_edge_ok = within_ok = cross_ok = diam2 = True
    up_mult = bits.zero_rows(v, v)
    up_cliq = bits.zero_rows(v, v)
    for x, cn in iter_common_neighbor_counts(pi):
        for val, cnt in zip(*np.unique(cn, return_counts=True)):
            census[int(val)] = census.get(int(val), 0) + int(cnt)
        adj = bits.unpack_rows(pi.rows[x], v)[x + 1:]
        if adj.any():
            vals = cn[adj]
            if lam_edge is None:
                lam_edge = int(vals[0])
            if (vals != lam_edge).any():
                lam_edge_ok = False
        if (cn[~adj] == 0).any():
            diam2 = False
        same = labels[x + 1:] == labels[x]
        if (cn[same] != c_cliq).any():
            within_ok = False
        if (cn[~same] != c_mult).any():
            cross_ok = False
        pad = np.zeros(x + 1, dtype=bool)
        up_mult[x] = bits.pack_bool(np.concatenate([pad, cn == c_mult]), v)
        up_cliq[x] = bits.pack_bool(np.concatenate([pad, cn == c_cliq]), v)
    return {
        "census": census,
        "lam_edge": lam_edge,
        "lam_edge_ok": lam_edge_ok,
        "within_ok": within_ok,
        "cross_ok": cross_ok,
        "diam2": diam2,
        "omega_mult": graphs.Graph(v, up_mult | bits.transpose(up_mult, v)),
        "omega_cliq": graphs.Graph(v, up_cliq | bits.transpose(up_cliq, v)),
    }


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4),
                                      ("sz", 3), ("psu3", 2)])
def test_derived_pi_analysis_equals_direct(family, n):
    # the certificate-based derivation must reproduce the measured pass exactly
    cls = groups.involution_class(groups.make_group(family, n))
    k, r, mu = formulas.krmu(family, 1 << n)
    labels = groups.sylow_partition(cls)
    cert = fusion.seed_set_cover3_certificate(cls, cls.seed_sets().chi)
    pi_g = fusion.build_fusion_graph(cls, fusion.PiSpec.odd_complement())
    direct = analyze_pi_direct(pi_g, labels, k, r, mu)
    derived = _derived_pi_analysis(cls.size, k, r, mu)
    for key in ("census", "lam_edge", "lam_edge_ok", "within_ok", "cross_ok", "diam2"):
        assert direct[key] == derived[key], key
    # the omega graphs are the antipodal classes and their complement; with
    # a = b both counts coincide and the omega graphs are not used
    if formulas.is_strict(k, r, mu):
        classes = (int(cert.labels.max()) + 1, cert.r)
        assert graphs.recognize_complete_multipartite(direct["omega_mult"]) == classes
        assert graphs.recognize_clique_union(direct["omega_cliq"]) == classes
        assert direct["omega_mult"] == direct["omega_cliq"].complement()


def test_symplectic_inverse_batch_matches_adjugate():
    from fgl.groups import (_symplectic_inverse_batch, identity, make_group,
                            mat_inv_det1, mat_mul)
    from oracles import full_generators
    spec = make_group("sz", 3)
    gens = full_generators(spec)
    batch = np.array(gens[:40], dtype=np.uint8)
    inv = _symplectic_inverse_batch(batch)
    for g, gi in zip(gens[:40], inv):
        tgi = tuple(tuple(int(e) for e in row) for row in gi)
        assert tgi == mat_inv_det1(spec.ctx, g)
        assert mat_mul(spec.ctx, g, tgi) == identity(4)


def test_report_contents_psl2_8():
    rep = run_verify("psl2", 3)
    d = rep.data
    assert d["schema"] == "fgl-cert-1"
    assert rep.passed and not rep.failures
    assert d["pi_graph"]["predicted"] == {"v": 63, "k": 48, "b": 40, "a": 36,
                                          "strict": True}
    assert d["pi_graph"]["deza_match"]
    assert d["pi_graph"]["ddg"]["match"]
    assert d["cn_structure"]["applicable"]
    assert d["cn_structure"]["complement_pair"]
    assert d["formulas"]["p22"] == [48, 36, 36, 40]
    assert d["pairs"] == {"method": "orbital", "generators": 4, "orbit_size": 63,
                          "transitive": True, "checked_rows": [31, 62],
                          "rows_match": True, "mismatch": None}
    # timing keys exist for each stage
    for stage in ("involution_class", "orders", "pairs", "sylow", "chi_graph",
                  "identities", "pi_graph", "total"):
        assert stage in d["timings_ms"]


def test_report_json_serializable():
    import json
    rep = run_verify("psl2", 2)
    parsed = json.loads(rep.to_json())
    assert parsed["status"] == "pass"


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("psl2", 6), ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_certificate_equals_golden(family, n):
    # certificates made by the all-pairs relations before the seed-set
    # certificate; only timings and the method names may differ
    with open(os.path.join(GOLDEN, f"{family}-n{n}.json")) as f:
        want = json.load(f)
    got = json.loads(run_verify(family, n).to_json())
    del got["timings_ms"]
    for d in (got, want):
        del d["chi_graph"]["method"], d["pi_graph"]["analysis"]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("family,n", [("psl2", 4), ("psu3", 2)])
def test_certificate_equals_golden_in_small_blocks(family, n, monkeypatch):
    # the seed-set certificate carried a few rows at a time gives the same proof
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", 1 << 10)
    test_certificate_equals_golden(family, n)


def test_sylow_labels_number_classes_by_least_member():
    # the labels fgl construct writes: the classes of the exhaustively scanned
    # commuting relation, numbered by least member
    cls = groups.involution_class(groups.make_group("psl2", 4))
    scanned, _ = bits.equivalence_classes(cls.order_scan().comm | bits.identity(cls.size),
                                          cls.size)
    assert np.array_equal(cls.sylow_labels(), scanned)


def test_run_verify_memory_stays_below_a_bit_relation():
    # one 16383 x 16383 bit relation alone is 33.5 MB
    tracemalloc.start()
    try:
        d = run_verify("psl2", 7).data
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d["status"] == "pass"
    assert peak < 32 * 2 ** 20


def test_degenerate_case_reported_not_strict():
    rep = run_verify("psl2", 2)
    d = rep.data
    assert not d["pi_graph"]["deza"]["strict"]
    assert d["pi_graph"]["deza"]["strongly_regular"]
    assert not d["cn_structure"]["applicable"]
    # every one of the 105 pairs shares exactly 4 neighbors
    assert d["pi_graph"]["cn_spectrum"] == {"4": 105}


def _toggled(vertices, x):
    return np.setxor1d(vertices, [x])


def test_flipped_chi_edge_fails_with_named_failure(monkeypatch):
    # one vertex added to N(0) must give a fail certificate, not a traceback;
    # the last vertex w whose neighbor set, sigma_w of the enlarged N(0), lacks 0
    cls = groups.involution_class(groups.make_group("psl2", 3))
    chi = cls.seed_sets().chi
    w = max(w for w in range(1, cls.size)
            if w not in chi and 0 not in cls.carry([w], np.union1d(chi, [w]))[0])
    real = groups.power_seed_sets

    def flipped(cls):
        sets = real(cls)
        return groups.SeedSets(comm=sets.comm, chi=_toggled(sets.chi, w))
    monkeypatch.setattr(groups, "power_seed_sets", flipped)
    d = run_verify("psl2", 3).data
    assert d["status"] == "fail"
    assert "chi_graph: valency 9 != 8" in d["failures"]
    assert any(f.startswith(f"chi_graph: not symmetric: {w}") for f in d["failures"])
    assert d["chi_graph"]["antipodal"] is False
    assert tuple(d["chi_graph"]["witness"]) == (0, w)
    assert d["pi_graph"]["analysis"].startswith("skipped")


def test_tampered_seed_row_fails_the_row_cross_check(monkeypatch):
    # one wrong pair in the seed's row spreads to every derived row
    real = groups._power_rows

    def tampered(cls, x):
        rows = real(cls, x)
        if x == 0:
            rows[1, 1] = ~rows[1, 1]
        return rows
    monkeypatch.setattr(groups, "_power_rows", tampered)
    d = run_verify("psl2", 3).data
    assert d["status"] == "fail"
    assert d["pairs"]["rows_match"] is False
    x, y = d["pairs"]["mismatch"]
    assert x == 31
    assert any(f.startswith("pairs: derived row 31") for f in d["failures"])


def test_antipodal_block_reuses_the_sylow_partition(monkeypatch):
    # {0} + D3(0) = {0} + comm(0) on a passing certificate: one block orbit
    calls = []
    real = groups.block_partition
    monkeypatch.setattr(groups, "block_partition",
                        lambda perms, base: calls.append(len(base)) or real(perms, base))
    d = run_verify("sz", 3).data
    assert d["status"] == "pass" and d["chi_graph"]["antipodal_equals_sylow"]
    assert calls == [7]  # the Sylow block: q - 1 = 7 involutions, 0 among them
    # labels whose block of 0 is another set are not reused
    cls = groups.involution_class(groups.make_group("sz", 3))
    sylow = cls.sylow_labels()
    calls.clear()
    cert = fusion.seed_set_cover3_certificate(cls, cls.seed_sets().chi, known=np.arange(cls.size))
    assert calls == [7] and np.array_equal(cert.labels, sylow)


def test_warm_class_is_conjugated_once(tmp_path, monkeypatch):
    spec = groups.make_group("psl2", 3)
    pipeline.load_or_build_class(spec, str(tmp_path))
    calls = []
    real = groups._conjugate
    monkeypatch.setattr(groups, "_conjugate", lambda *a: calls.append(1) or real(*a))
    cls = pipeline.load_or_build_class(spec, str(tmp_path))
    fusion.build_fusion_graph(cls, fusion.PiSpec.chi_only())
    assert len(calls) == len(groups.generators(spec))


def test_cold_class_is_conjugated_once(monkeypatch):
    spec = groups.make_group("psl2", 3)
    rows = []
    real = groups._conjugate
    monkeypatch.setattr(groups, "_conjugate",
                        lambda kern, gi, g, x: rows.append(len(x)) or real(kern, gi, g, x))
    cls = pipeline.load_or_build_class(spec, None)
    fusion.build_fusion_graph(cls, fusion.PiSpec.chi_only())
    assert sum(rows) == len(groups.generators(spec)) * cls.size


def test_run_verify_makes_no_all_pairs_pass(monkeypatch):
    calls = []
    for module, name in ((graphs, "_adjacency"), (bits, "transpose"),
                         (fusion, "build_fusion_graph"),
                         (bits, "equivalence_classes"), (bits, "identity")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    d = run_verify("psl2", 4).data
    assert d["status"] == "pass"
    assert d["chi_graph"]["method"] == "seed-set"
    assert calls == []


def test_flipped_pi_edge_fails_with_named_failure(monkeypatch):
    real = fusion.odd_complement_seed
    monkeypatch.setattr(fusion, "odd_complement_seed",
                        lambda v, sets: _toggled(real(v, sets), v - 1))
    d = run_verify("psl2", 3).data
    assert d["status"] == "fail"
    assert "pi_graph: not equal to the distance-2 power of the chi graph" in d["failures"]
    assert d["pi_graph"]["gamma2_match"] is False
    assert d["pi_graph"]["gamma2_witness"] == [0, 62]
    assert d["pi_graph"]["analysis"].startswith("skipped")


def _write_cache(cache, family, n, codes):
    path = cache / f"{family}-n{n}-v{pipeline.CODE_VERSION}.npz"
    np.savez_compressed(path, codes=codes)
    return path


def test_cache_rejects_garbage_file(tmp_path):
    (tmp_path / f"psl2-n2-v{pipeline.CODE_VERSION}.npz").write_bytes(b"not an npz file")
    with pytest.raises(groups.ClassSizeMismatch, match="unreadable"):
        run_verify("psl2", 2, cache_dir=str(tmp_path))


def test_cache_rejects_duplicate_row(tmp_path):
    codes = groups.involution_class(groups.make_group("psl2", 3)).codes.copy()
    codes[-1] = codes[1]
    _write_cache(tmp_path, "psl2", 3, codes)
    with pytest.raises(groups.ClassSizeMismatch, match="duplicate"):
        run_verify("psl2", 3, cache_dir=str(tmp_path))


def test_cache_rejects_truncated_class(tmp_path):
    codes = groups.involution_class(groups.make_group("psl2", 3)).codes
    _write_cache(tmp_path, "psl2", 3, codes[:-1])
    with pytest.raises(groups.ClassSizeMismatch, match="expected 63"):
        run_verify("psl2", 3, cache_dir=str(tmp_path))


def test_cache_rejects_class_that_is_not_closed(tmp_path):
    # right size, distinct rows, seed present: one row swapped for the
    # identity is caught by the conjugation pass
    spec = groups.make_group("psl2", 3)
    codes = groups.involution_class(spec).codes.copy()
    codes[-1] = np.array(((1, 0), (0, 1)), dtype=codes.dtype)
    _write_cache(tmp_path, "psl2", 3, codes)
    with pytest.raises(groups.ClassSizeMismatch, match="not closed"):
        run_verify("psl2", 3, cache_dir=str(tmp_path))


def test_cache_write_leaves_no_temp_files(tmp_path):
    run_verify("psl2", 2, cache_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"psl2-n2-v{pipeline.CODE_VERSION}-report.json",
                     f"psl2-n2-v{pipeline.CODE_VERSION}.npz"]
    warm = run_verify("psl2", 2, cache_dir=str(tmp_path))
    assert warm.passed


@pytest.mark.parametrize("family,n", [("psl2", 3), ("sz", 3)])
def test_cache_rejects_class_made_under_another_modulus(tmp_path, capsys, family, n):
    # the same construction over GF(8) = GF(2)[x]/(x^3 + x^2 + 1) gives a
    # class of the right size whose codes mean other matrices here
    spec = groups.make_group(family, n)
    other = groups.involution_class(dataclasses.replace(spec, ctx=FieldCtx(3, 0b1101)))
    assert other.size == spec.class_size()
    _write_cache(tmp_path, family, n, other.codes)
    with pytest.raises(groups.ClassSizeMismatch, match="not closed under conjugation by generator"):
        pipeline.load_or_build_class(spec, str(tmp_path))
    assert cli_main(["verify", "--family", family, "--n", str(n), "--cache", str(tmp_path)]) == 3
    assert "construction error" in capsys.readouterr().err
