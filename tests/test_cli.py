import json
import subprocess
import sys

import pytest

from fgl.cli import main
from fgl.graphio import read_graph
from fgl.pipeline import run_verify


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
    assert len(meta["involutions"]) == 15
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
    assert any(f.name.endswith(".npz") for f in files)
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


def test_unknown_check_exits_2(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    from fgl.graphio import write_graph
    from fgl.graphs import Graph
    write_graph(path, Graph.from_edges(3, [(0, 1)]))
    assert run_cli("analyze", "--in", path, "--check", "spectral") == 2


def test_console_entry_point(tmp_path):
    # exercise the installed module entry once via a subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "fgl.cli", "report", "--psl2-max-n", "2",
         "--sz-max-n", "3", "--psu3-max-n", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "psl2" in proc.stdout


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


def test_verify_garbage_cache_exits_3(tmp_path, capsys):
    from fgl.pipeline import CODE_VERSION
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"psl2-n2-v{CODE_VERSION}.npz").write_bytes(b"\x00garbage")
    assert run_cli("verify", "--family", "psl2", "--n", "2", "--cache", str(cache)) == 3
    assert "unreadable class cache" in capsys.readouterr().err


def test_verify_order_flags_are_gone(capsys):
    assert run_cli("verify", "--family", "psl2", "--n", "2", "--verify-orders", "full") == 2
