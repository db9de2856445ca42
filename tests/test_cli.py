import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fgl
from fgl import bits, graphs, groups, pipeline
from fgl.cli import ANALYSES, _partition_for, build_parser, main
from fgl.graphio import read_graph, write_graph
from fgl.graphs import Graph
from fgl.pipeline import CODE_VERSION, run_verify
from oracles import encode, member
from test_graphio import BAD_GRAPH_JSON, json_values


def run_cli(*argv):
    return main(list(argv))


def test_construct_and_analyze_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "g.g6")
    assert run_cli("construct", "--family", "psl2", "--n", "2",
                   "--pi", "chi", "--out", out) == 0
    capsys.readouterr()
    g = read_graph(out)
    assert g.v == 15 and g.valency() == 4
    meta = json.loads(open(out + ".meta.json").read())
    assert meta["q"] == 4 and meta["vertices"] == 15
    cls = groups.involution_class(groups.make_group("psl2", 2))
    assert meta["involutions"] == [encode(cls.spec, member(cls, i)).hex() for i in range(15)]
    assert len(set(meta["involutions"])) == 15
    assert run_cli("analyze", "--in", out, "--check", "drg,deza,spectrum") == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["drg"]["intersection_array"] == {"b": [4, 2, 1], "c": [1, 1, 4]}
    assert cert["deza"] == {"v": 15, "k": 4, "b": 1, "a": 0, "strict": False,
                            "edge_regular": True, "strongly_regular": False}
    assert cert["spectrum"] == {"0": 15, "1": 90}


def test_construct_odd_complement_edge_count(tmp_path, capsys):
    out = str(tmp_path / "pi.json")
    assert run_cli("construct", "--family", "psu3", "--n", "2",
                   "--pi", "odd-complement", "--out", out) == 0
    capsys.readouterr()
    g = read_graph(out)
    assert g.v == 195
    assert g.edge_count() == 195 * 128 // 2


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert run_cli("construct", "--family", "psl2", "--n", "3",
                       "--pi", "chi", "--out", path) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a + ".meta.json", "rb").read() == open(b + ".meta.json", "rb").read()


def test_sz_even_exponent_exits_2(capsys):
    assert run_cli("construct", "--family", "sz", "--n", "2",
                   "--pi", "chi", "--out", "/tmp/never.g6") == 2
    assert "odd" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["verify", "construct"])
@pytest.mark.parametrize("family,n", [("psl2", 17), ("psu3", 9), ("psu3", 25)])
def test_field_beyond_the_kernels_exits_2(tmp_path, capsys, cmd, family, n):
    # the vectorized arithmetic stops at GF(2^16): a usage error, not a traceback
    args = ["--family", family, "--n", str(n)]
    if cmd == "construct":
        args += ["--pi", "chi", "--out", str(tmp_path / "g.g6")]
    assert run_cli(cmd, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GF(65536)" in err
    assert "Traceback" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("cmd", ["verify", "construct"])
@pytest.mark.parametrize("family,n", [("psl2", 16), ("sz", 11), ("psu3", 8)])
def test_class_beyond_the_vertex_ids_exits_2(tmp_path, capsys, cmd, family, n):
    # inside GF(2^16), but more involutions than int32 vertex ids: refused before any build
    args = ["--family", family, "--n", str(n)]
    if cmd == "construct":
        args += ["--pi", "chi", "--out", str(tmp_path / "g.g6")]
    assert run_cli(cmd, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "int32" in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("cmd", ["verify", "construct"])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, cmd):
    def exhausted(spec):
        raise MemoryError("Unable to allocate 272. GiB")

    monkeypatch.setattr(groups, "involution_class", exhausted)
    args = ["--family", "psl2", "--n", "2"]
    if cmd == "construct":
        args += ["--pi", "chi", "--out", str(tmp_path / "g.g6")]
    assert run_cli(cmd, *args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "out of memory" in err and "272. GiB" in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("cmd", ["analyze", "export"])
def test_graph_beyond_memory_exits_2(tmp_path, capsys, monkeypatch, cmd):
    # the bit rows of 3000000 vertices would take 1.02 TiB: refused, never allocated
    def exhausted(rows, v):
        raise MemoryError("Unable to allocate 1.02 TiB")

    path = tmp_path / "big.json"
    path.write_text('{"v": 3000000, "edges": []}')
    monkeypatch.setattr(bits, "zero_rows", exhausted)
    args = ["--check", "deza"] if cmd == "analyze" else ["--out", str(tmp_path / "big.g6")]
    assert run_cli(cmd, "--in", str(path), *args) == 2
    assert capsys.readouterr().err == "error reading graph: Unable to allocate 1.02 TiB\n"
    assert os.listdir(tmp_path) == ["big.json"]


def test_verify_cli_psl2(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert run_cli("verify", "--family", "psl2", "--n", "2", "--out", out) == 0
    report = json.loads(open(out).read())
    assert report["status"] == "pass"
    assert report["schema"] == "fgl-cert-1"


def test_verify_cache_reuse(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    r1 = run_verify("psl2", 3, cache_dir=cache)
    r2 = run_verify("psl2", 3, cache_dir=cache)
    assert r1.passed and r2.passed
    assert r1.data["class_size"] == r2.data["class_size"]
    files = list((tmp_path / "cache").iterdir())
    assert any(f.name.endswith(".npy") for f in files)
    assert any(f.name.endswith("report.json") for f in files)


def test_report_table_flags_verified(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    run_verify("psl2", 2, cache_dir=cache)
    assert run_cli("report", "--psl2-max-n", "3", "--sz-max-n", "3",
                   "--psu3-max-n", "2", "--cache", cache) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("psl2")]
    assert any("pass" in l for l in lines)
    assert "{4,2,1;1,1,4}" in out


def _report_verdicts(cache, capsys):
    assert run_cli("report", "--psl2-max-n", "2", "--sz-max-n", "3",
                   "--psu3-max-n", "2", "--cache", cache) == 0
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return {tuple(l.split()[:2]): l.split()[-1] for l in out.out.splitlines()[2:]}


def test_report_marks_cached_certificates_it_cannot_check(tmp_path, capsys):
    # a pass counts only for a certificate of its row with the predicted array
    cache = tmp_path / "cache"
    run_verify("psl2", 2, cache_dir=str(cache))
    path = cache / f"psl2-n2-v{CODE_VERSION}-report.json"
    genuine = json.loads(path.read_text())
    assert _report_verdicts(str(cache), capsys)["psl2", "4"] == "pass"
    tampered = [("class_size", 16), ("q", 8), ("n", 3), ("family", "sz"),
                ("schema", "fgl-cert-0")]
    for key, value in tampered:
        path.write_text(json.dumps({**genuine, key: value}))
        assert _report_verdicts(str(cache), capsys)["psl2", "4"] == "unverified", key
    wrong_array = json.loads(json.dumps(genuine))
    wrong_array["chi_graph"]["intersection_array"]["b"][1] += 1
    path.write_text(json.dumps(wrong_array))
    assert _report_verdicts(str(cache), capsys)["psl2", "4"] == "unverified"
    for text in ("not json {", "[1, 2]", '{"status": "pass"}', "[" * 100000):
        path.write_text(text)
        assert _report_verdicts(str(cache), capsys)["psl2", "4"] == "unverified", text[:10]
    path.write_text(json.dumps({**genuine, "status": "fail"}))
    assert _report_verdicts(str(cache), capsys)["psl2", "4"] == "FAIL"


def test_export_format_conversion(tmp_path, capsys):
    g6 = str(tmp_path / "g.g6")
    js = str(tmp_path / "g.json")
    assert run_cli("construct", "--family", "psl2", "--n", "2",
                   "--pi", "chi", "--out", g6) == 0
    assert run_cli("export", "--in", g6, "--out", js) == 0
    capsys.readouterr()
    assert read_graph(js) == read_graph(g6)


def test_analyze_ddg_with_sidecar(tmp_path, capsys):
    out = str(tmp_path / "pi.json")
    assert run_cli("construct", "--family", "psl2", "--n", "3",
                   "--pi", "odd-complement", "--out", out) == 0
    capsys.readouterr()
    assert run_cli("analyze", "--in", out, "--check", "ddg") == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["ddg"] == {"num_classes": 9, "class_size": 7,
                           "lambda_within": 40, "lambda_cross": 36}


def test_analyze_multipartite_octahedron(tmp_path, capsys):
    from fgl.graphio import write_graph
    from fgl.graphs import Graph
    path = str(tmp_path / "oct.json")
    write_graph(path, Graph.from_edges(6, [(i, j) for i in range(6)
                                           for j in range(i + 1, 6) if j - i != 3]))
    assert run_cli("analyze", "--in", path, "--check", "multipartite,antipodal") == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["multipartite"]["complete_multipartite"] == [3, 2]
    assert cert["multipartite"]["clique_union"] is None


def test_analyze_petersen_drg(tmp_path, capsys):
    import itertools
    from fgl.graphio import write_graph
    from fgl.graphs import Graph
    verts = list(itertools.combinations(range(5), 2))
    idx = {s: i for i, s in enumerate(verts)}
    edges = [(idx[a], idx[b]) for a, b in itertools.combinations(verts, 2)
             if not (set(a) & set(b))]
    path = str(tmp_path / "petersen.g6")
    write_graph(path, Graph.from_edges(10, edges))
    assert run_cli("analyze", "--in", path, "--check", "drg,antipodal") == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["drg"] == {"distance_regular": True,
                           "intersection_array": {"b": [3, 2], "c": [1, 1]}}
    assert cert["antipodal"]["antipodal"] is False


def test_analyze_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("analyze", "--in", str(bad), "--check", "drg") == 2
    assert run_cli("analyze", "--in", str(tmp_path / "absent.json"),
                   "--check", "drg") == 2


@pytest.mark.parametrize("text", [json.dumps(obj) for obj in BAD_GRAPH_JSON.values()]
                         + ["[" * 100000], ids=[*BAD_GRAPH_JSON, "deeply-nested"])
def test_analyze_malformed_graph_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "t.json"
    path.write_text(text)
    assert run_cli("analyze", "--in", str(path), "--check", "deza") == 2
    err = capsys.readouterr().err
    assert "error reading graph" in err and "Traceback" not in err


def test_unknown_check_exits_2(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    from fgl.graphio import write_graph
    from fgl.graphs import Graph
    write_graph(path, Graph.from_edges(3, [(0, 1)]))
    assert run_cli("analyze", "--in", path, "--check", "spectral") == 2


def test_console_entry_point(tmp_path):
    # exercise the module entry once via a subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "fgl.cli", "report", "--psl2-max-n", "2",
         "--sz-max-n", "3", "--psu3-max-n", "2"],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0
    assert "psl2" in proc.stdout


def _construct_psl2_8(tmp_path, pi):
    path = str(tmp_path / f"{pi}.json")
    assert run_cli("construct", "--family", "psl2", "--n", "3", "--pi", pi, "--out", path) == 0
    return path


def _src_env(**extra):
    """The environment with PYTHONPATH at the fgl this test imported, so a
    python -m fgl.cli child finds it however pytest was started."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fgl.__file__)), **extra)


def _analyze_subprocess(path, threads):
    env = _src_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "fgl.cli", "analyze", "--in", path,
         "--check", "drg,antipodal,deza,spectrum"],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("pi", ["chi", "odd-complement"])
def test_analyze_output_does_not_depend_on_blas_threads(tmp_path, capsys, pi):
    # the products count exactly, so the BLAS thread count cannot change a byte
    path = _construct_psl2_8(tmp_path, pi)
    capsys.readouterr()
    assert _analyze_subprocess(path, 1) == _analyze_subprocess(path, 2)


@pytest.mark.parametrize("pi", ["chi", "odd-complement"])
def test_analyze_runs_each_pass_once(tmp_path, capsys, monkeypatch, pi):
    # drg and antipodal share one distance pass; deza, ddg and spectrum one
    # common-neighbour pass, ddg adding only its within-class products
    path = _construct_psl2_8(tmp_path, pi)
    calls = dict.fromkeys(("_distance_blocks", "_common_neighbor_blocks"), 0)
    for name in calls:
        def counted(g, name=name, kernel=getattr(graphs, name)):
            calls[name] += 1
            return kernel(g)
        monkeypatch.setattr(graphs, name, counted)
    assert run_cli("analyze", "--in", path, "--check", "drg,antipodal,deza,ddg,spectrum") == 0
    assert calls == {"_distance_blocks": 1, "_common_neighbor_blocks": 1}


def _flip_first_edge(path):
    obj = json.loads(open(path).read())
    obj["edges"] = obj["edges"][1:]
    flipped = path.replace(".json", "-flipped.json")
    with open(flipped, "w") as f:
        json.dump(obj, f)
    return flipped


def _analyze(path, check, capsys):
    assert run_cli("analyze", "--in", path, "--check", check) == 0
    return json.loads(capsys.readouterr().out)[check]


def test_analyze_catches_one_flipped_chi_edge(tmp_path, capsys):
    path = _construct_psl2_8(tmp_path, "chi")
    flipped = _flip_first_edge(path)
    capsys.readouterr()
    assert _analyze(path, "drg", capsys)["distance_regular"] is True
    assert _analyze(path, "antipodal", capsys)["antipodal"] is True
    for check, key in (("drg", "distance_regular"), ("antipodal", "antipodal")):
        cert = _analyze(flipped, check, capsys)
        assert cert[key] is False and cert["witness"]


def test_analyze_catches_one_flipped_odd_complement_edge(tmp_path, capsys):
    path = _construct_psl2_8(tmp_path, "odd-complement")
    flipped = _flip_first_edge(path)
    capsys.readouterr()
    assert _analyze(path, "deza", capsys) == {"v": 63, "k": 48, "b": 40, "a": 36, "strict": True,
                                             "edge_regular": True, "strongly_regular": False}
    cert = _analyze(flipped, "deza", capsys)
    assert cert["deza"] is False and cert["error"]


def test_usage_error_exit_code():
    assert run_cli("construct", "--family", "psl2") == 2
    assert run_cli("verify", "--family", "psl2", "--n", "one") == 2


@pytest.mark.parametrize("content", ["[0, 1, oops", '["a", "b"]', "[0.5, 1]", '{"a": 1}'])
def test_analyze_ddg_bad_partition_exits_2(tmp_path, capsys, content):
    from fgl.graphio import write_graph
    from fgl.graphs import Graph
    path = str(tmp_path / "g.json")
    write_graph(path, Graph.from_edges(4, [(0, 1), (2, 3)]))
    part = tmp_path / "part.json"
    part.write_text(content)
    assert run_cli("analyze", "--in", path, "--check", "ddg", "--partition", str(part)) == 2
    assert "error reading partition" in capsys.readouterr().err


@given(json_values | st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_partition_fuzz(tmp_path, capsys, obj):
    # a partition file gives a list of int labels, or analyze exits 2
    path, part = str(tmp_path / "g.json"), tmp_path / "part.json"
    write_graph(path, Graph.from_edges(4, [(0, 1), (2, 3)]))
    part.write_text(json.dumps(obj))
    argv = ["analyze", "--in", path, "--check", "ddg", "--partition", str(part)]
    try:
        labels = _partition_for(build_parser().parse_args(argv))
    except ValueError:
        assert run_cli(*argv) == 2
    else:
        assert isinstance(labels, list) and all(type(x) is int for x in labels)
        assert run_cli(*argv) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_construct_cache_help_names_the_cache_file(capsys):
    assert run_cli("construct", "--help") == 0
    name = os.path.basename(pipeline._cache_path("", "<family>", "<N>"))
    assert name in capsys.readouterr().out


def test_verify_garbage_cache_exits_3(tmp_path, capsys):
    from fgl.pipeline import CODE_VERSION
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"psl2-n2-v{CODE_VERSION}.npy").write_bytes(b"\x00garbage")
    assert run_cli("verify", "--family", "psl2", "--n", "2", "--cache", str(cache)) == 3
    assert "unreadable class cache" in capsys.readouterr().err


def _bad_psl2_8_codes(bad):
    codes = groups.involution_class(groups.make_group("psl2", 3)).codes.copy()
    if bad == "reordered":
        codes[[1, 2]] = codes[[2, 1]]
    elif bad == "duplicate":
        codes[-1] = codes[-2]
    elif bad == "shape":
        codes = codes.reshape(63, 4)
    elif bad == "range":
        codes[-1, 0, 0] = 8
    elif bad == "float":
        codes = codes.astype(np.float32)
    return codes


@pytest.mark.parametrize("cmd", ["verify", "construct"])
@pytest.mark.parametrize("bad", ["reordered", "duplicate", "shape", "range", "float",
                                 "unreadable"])
def test_bad_class_cache_exits_3(tmp_path, capsys, cmd, bad):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"psl2-n3-v{CODE_VERSION}.npy"
    if bad == "unreadable":
        path.write_bytes(b"\x93NUMPY\x01\x00")
    else:
        np.save(path, _bad_psl2_8_codes(bad), allow_pickle=False)
    out = ["--out", str(tmp_path / "g.json")] if cmd == "construct" else []
    assert run_cli(cmd, "--family", "psl2", "--n", "3", "--cache", str(cache), *out) == 3
    err = capsys.readouterr().err
    assert err.startswith("construction error: ") and err.count("\n") == 1
    assert sorted(os.listdir(cache)) == [path.name]
    assert sorted(os.listdir(tmp_path)) == ["cache"]


@pytest.mark.parametrize("argv", [  # the path that cannot be written comes last
    ["verify", "--cache", "{file}"],
    ["verify", "--out", "{missing}/x.json"],
    ["construct", "--out", "{missing}/g.json"],
    ["construct", "--out", "{dir}/g.json", "--cache", "{file}"],
    ["verify", "--out", "{dir}"],
    ["verify", "--cache", "{file}/sub"],
])
def test_unwritable_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    # exit 1 means a failed verification; a path that cannot be written is a
    # usage error, found before the class is built or the pipeline runs
    def work(*args, **kwargs):
        raise AssertionError("the work ran before the path was checked")

    monkeypatch.setattr(pipeline, "run_verify", work)
    monkeypatch.setattr(pipeline, "load_or_build_class", work)
    (tmp_path / "file").write_text("")
    names = {"file": tmp_path / "file", "missing": tmp_path / "missing", "dir": tmp_path}
    argv = [a.format(**names) for a in argv]
    assert run_cli(argv[0], "--family", "psl2", "--n", "2", *argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f" {argv[-1]}: " in err and ".tmp" not in err
    assert os.listdir(tmp_path) == ["file"]


def test_verify_order_flags_are_gone(capsys):
    assert run_cli("verify", "--family", "psl2", "--n", "2", "--verify-orders", "full") == 2


@pytest.mark.parametrize("v,check", [(0, "multipartite"), (1, "drg")])
def test_analyze_degenerate_graphs(tmp_path, capsys, v, check):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"v": v, "edges": []}))
    assert run_cli("analyze", "--in", str(path), "--check", check) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert[check] == {"multipartite": {"complete_multipartite": None, "clique_union": None},
                           "drg": {"distance_regular": True,
                                   "intersection_array": {"b": [], "c": []}}}[check]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 8), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.integers(1, 3))
def test_analyze_every_check_on_small_graphs(tmp_path, capsys, v, seed, p, parts):
    # every check gives a definite answer or exit 2, never a traceback
    rng = np.random.default_rng(seed)
    mat = np.triu(rng.random((v, v)) < p, 1)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"v": v, "edges": np.argwhere(mat).tolist()}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps(rng.integers(0, parts, size=v).tolist()))
    for check in ANALYSES:
        code = run_cli("analyze", "--in", str(path), "--check", check, "--partition", str(part))
        out, err = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in err
        if code == 0:
            assert json.loads(out)["v"] == v
