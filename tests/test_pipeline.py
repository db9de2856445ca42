import numpy as np
import pytest

from fgl import bits, formulas, fusion, graphs, groups, pipeline
from fgl.pipeline import _derived_pi_analysis, _partitions_equal, run_verify


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
    for x, cn in graphs.iter_common_neighbor_counts(pi):
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
    cert = graphs.antipodal_cover3_certificate(graphs.Graph(cls.size, cls.pair_masks().chi))
    pi_g = graphs.Graph(cls.size, fusion.odd_complement_rows(cls))
    direct = analyze_pi_direct(pi_g, labels, k, r, mu)
    derived = _derived_pi_analysis(cls.size, cert, k, r, mu)
    # with a = b both counts coincide and the omega graphs are not used
    keys = direct if formulas.is_strict(k, r, mu) else set(direct) - {"omega_mult", "omega_cliq"}
    for key in keys:
        assert direct[key] == derived[key], key


def test_symplectic_inverse_batch_matches_adjugate():
    from fgl.groups import (_symplectic_inverse_batch, generators, identity,
                            make_group, mat_inv_det1, mat_mul)
    spec = make_group("sz", 3)
    gens = generators(spec)
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
    # timing keys exist for each stage
    for stage in ("involution_class", "orders", "sylow", "chi_graph",
                  "identities", "pi_graph", "total"):
        assert stage in d["timings_ms"]


def test_report_json_serializable():
    import json
    rep = run_verify("psl2", 2)
    parsed = json.loads(rep.to_json())
    assert parsed["status"] == "pass"


def test_partitions_equal_helper():
    assert _partitions_equal([0, 0, 1, 1], [5, 5, 2, 2])
    assert not _partitions_equal([0, 0, 1, 1], [0, 1, 0, 1])
    assert not _partitions_equal([0, 1], [0, 1, 2])
    # one class of a split in two, or two merged into one, is not the same
    assert not _partitions_equal([0, 0, 1, 1], [0, 0, 1, 2])
    assert not _partitions_equal([0, 0, 1, 2], [0, 0, 1, 1])
    assert _partitions_equal([], [])


def test_degenerate_case_reported_not_strict():
    rep = run_verify("psl2", 2)
    d = rep.data
    assert not d["pi_graph"]["deza"]["strict"]
    assert d["pi_graph"]["deza"]["strongly_regular"]
    assert not d["cn_structure"]["applicable"]
    # every one of the 105 pairs shares exactly 4 neighbors
    assert d["pi_graph"]["cn_spectrum"] == {"4": 105}


def _flip(rows, i, j):
    rows = rows.copy()
    for a, b in ((i, j), (j, i)):
        rows[a, b >> 6] ^= np.uint64(1 << (b & 63))
    return rows


def test_flipped_chi_edge_fails_with_named_failure(monkeypatch):
    # a non-regular chi graph must give a fail certificate, not a traceback
    real = groups.power_pair_masks

    def flipped(cls):
        masks = real(cls)
        return groups.PairMasks(comm=masks.comm, chi=_flip(masks.chi, 0, cls.size - 1))
    monkeypatch.setattr(groups, "power_pair_masks", flipped)
    d = run_verify("psl2", 3).data
    assert d["status"] == "fail"
    assert any(f.startswith("chi_graph: vertex") and "degree" in f for f in d["failures"])
    assert d["chi_graph"]["antipodal"] is False
    assert d["pi_graph"]["analysis"].startswith("skipped")


def test_flipped_pi_edge_fails_with_named_failure(monkeypatch):
    real = fusion.odd_complement_rows
    monkeypatch.setattr(fusion, "odd_complement_rows",
                        lambda cls: _flip(real(cls), 0, cls.size - 1))
    d = run_verify("psl2", 3).data
    assert d["status"] == "fail"
    assert "pi_graph: not equal to the distance-2 power of the chi graph" in d["failures"]
    assert d["pi_graph"]["gamma2_match"] is False
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
