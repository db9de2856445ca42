"""Acceptance suite: one test per gating criterion, printed pass/fail.

Each criterion pins the exact expected certificates and a wall-clock
budget measured around the full pipeline run.  Reports are computed once
per (family, n) and shared across criteria.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import fgl
from fgl import formulas
from fgl.formulas import IntersectionArray
from fgl.pipeline import run_verify

_reports: dict = {}


def report_for(family, n, budget_s):
    key = (family, n)
    if key not in _reports:
        t0 = time.monotonic()
        rep = run_verify(family, n)
        elapsed = time.monotonic() - t0
        _reports[key] = (rep, elapsed)
    rep, elapsed = _reports[key]
    assert elapsed < budget_s, f"{family} n={n} took {elapsed:.1f}s, budget {budget_s}s"
    return rep


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def _arr(b, c):
    return IntersectionArray(b=tuple(b), c=tuple(c))


def test_criterion_1_psl2_4():
    with criterion(1, "psl2 q=4: array {4,2,1;1,1,4}, Deza (15,8,4,4) a=b, 5x3 classes, <1s"):
        rep = report_for("psl2", 2, 1.0)
        d = rep.data
        assert d["status"] == "pass"
        assert d["chi_graph"]["intersection_array"] == _arr([4, 2, 1], [1, 1, 4]).to_dict()
        dz = d["pi_graph"]["deza"]
        assert (dz["v"], dz["k"], dz["b"], dz["a"]) == (15, 8, 4, 4)
        assert dz["a"] == dz["b"] and not dz["strict"]
        assert d["sylow"] == {"num_classes": 5, "class_size": 3, "equivalence": True}
        assert d["chi_graph"]["antipodal_num_classes"] == 5
        assert d["chi_graph"]["antipodal_class_size"] == 3
        assert d["chi_graph"]["antipodal_equals_sylow"]


def test_criterion_2_psl2_8_16():
    with criterion(2, "psl2 q=8,16: arrays and strict Deza certificates, <5s each"):
        for n, arr, params in (
            (3, _arr([8, 6, 1], [1, 1, 8]), (63, 48, 40, 36)),
            (4, _arr([16, 14, 1], [1, 1, 16]), (255, 224, 208, 196)),
        ):
            rep = report_for("psl2", n, 5.0)
            d = rep.data
            assert d["status"] == "pass"
            assert d["chi_graph"]["intersection_array"] == arr.to_dict()
            dz = d["pi_graph"]["deza"]
            assert (dz["v"], dz["k"], dz["b"], dz["a"]) == params
            assert dz["strict"]


def test_criterion_3_sz_8():
    with criterion(3, "sz q=8: 455 involutions, array, DDG 65x7, omega structures, <60s"):
        rep = report_for("sz", 3, 60.0)
        d = rep.data
        assert d["status"] == "pass"
        assert d["class_size"] == 455
        assert d["chi_graph"]["intersection_array"] == _arr([64, 54, 1], [1, 9, 64]).to_dict()
        dz = d["pi_graph"]["deza"]
        assert (dz["v"], dz["k"]) == (455, 384)
        assert {dz["a"], dz["b"]} == {320, 324}
        ddg = d["pi_graph"]["ddg"]
        assert (ddg["num_classes"], ddg["class_size"]) == (65, 7)
        assert (ddg["lambda_within"], ddg["lambda_cross"]) == (320, 324)
        assert ddg["match"]
        om = d["cn_structure"]
        assert om["multipartite"] == {"c": 324, "result": [65, 7], "match": True}
        assert om["clique_union"] == {"c": 320, "result": [65, 7], "match": True}
        # within-Sylow pair count: 65 classes x C(7,2)
        assert d["pi_graph"]["cn_spectrum"]["320"] == 65 * 21
        assert d["pi_graph"]["cn_spectrum"]["324"] == 455 * 454 // 2 - 65 * 21


def test_criterion_4_psu3_4():
    with criterion(4, "psu3 q=4: 195 involutions, array, Deza, omega structures, <60s"):
        rep = report_for("psu3", 2, 60.0)
        d = rep.data
        assert d["status"] == "pass"
        assert d["class_size"] == 195
        assert d["chi_graph"]["intersection_array"] == _arr([64, 42, 1], [1, 21, 64]).to_dict()
        dz = d["pi_graph"]["deza"]
        assert (dz["v"], dz["k"]) == (195, 128)
        assert {dz["a"], dz["b"]} == {84, 64}
        om = d["cn_structure"]
        assert om["multipartite"] == {"c": 84, "result": [65, 3], "match": True}
        assert om["clique_union"] == {"c": 64, "result": [65, 3], "match": True}


def test_criterion_5_psu3_8():
    with criterion(5, "psu3 q=8: 3591 involutions, array, Deza, center of order 3, <10min"):
        rep = report_for("psu3", 3, 600.0)
        d = rep.data
        assert d["status"] == "pass"
        assert d["class_size"] == 3591
        assert d["center_order"] == 3  # projective canonicalization exercised
        assert d["chi_graph"]["intersection_array"] == _arr([512, 438, 1], [1, 73, 512]).to_dict()
        dz = d["pi_graph"]["deza"]
        assert (dz["v"], dz["k"]) == (3591, 3072)
        assert {dz["a"], dz["b"]} == {2628, 2560}


ALL_INSTANCES = [("psl2", 2, 1.0), ("psl2", 3, 5.0), ("psl2", 4, 5.0),
                 ("sz", 3, 60.0), ("psu3", 2, 60.0), ("psu3", 3, 600.0)]


def test_criterion_6_property_suite():
    with criterion(6, "property suite: odd orders, gamma2, phi complement, "
                      "commuting equivalence, chi spectrum {mu,0}"):
        for family, n, budget in ALL_INSTANCES:
            rep = report_for(family, n, budget)
            d = rep.data
            q = d["q"]
            k, r, mu = formulas.krmu(family, q)
            # (a) exact product-order census: every non-commuting product odd
            assert d["orders"]["method"] == "orbital"
            assert d["orders"]["noncommuting_all_odd"]
            census = {int(o): c for o, c in d["orders"]["census"].items()}
            assert all(o == 2 or o % 2 == 1 for o in census)
            assert sum(census.values()) == d["class_size"] * (d["class_size"] - 1) // 2
            # (b) pi graph = distance-2 power of chi graph
            assert d["pi_graph"]["gamma2_match"]
            # (c) distance-{1,3} power = complement of distance-2 power
            assert d["pi_graph"]["phi_13_match"]
            assert d["pi_graph"]["phi_complement_match"]
            # (d) commuting equivalence with q^l + 1 classes of size q - 1
            assert d["sylow"]["equivalence"]
            assert d["sylow"]["num_classes"] == q ** d["sylow_exponent"] + 1
            assert d["sylow"]["class_size"] == q - 1
            # (e) chi graph common-neighbor spectrum is {mu, 0}
            spec_vals = {int(c) for c in d["chi_graph"]["cn_spectrum"]}
            assert spec_vals == {0, mu}
            assert d["chi_graph"]["deza"]["match"]


def brute_force_census(g):
    nbrs = [set(map(int, g.neighbors(i))) for i in range(g.v)]
    out = {}
    for i in range(g.v):
        for j in range(i + 1, g.v):
            c = len(nbrs[i] & nbrs[j])
            out[c] = out.get(c, 0) + 1
    return out


def test_criterion_7_closed_form_oracles():
    with criterion(7, "closed forms agree with certificates; brute-force census "
                      "oracle on psl2 q=4 and q=8"):
        for family, n, budget in ALL_INSTANCES:
            rep = report_for(family, n, budget)
            d = rep.data
            q = d["q"]
            k, r, mu = formulas.krmu(family, q)
            p0, p1, p2, p3 = formulas.p22_numbers(k, r, mu)
            dz = d["pi_graph"]["deza"]
            assert d["formulas"]["match"]
            assert dz["k"] == p0 == (r - 1) * k
            assert {dz["a"], dz["b"]} == {p1, p3}
            v, kk, b, a = formulas.predicted_deza_params(family, q)
            assert (dz["v"], dz["k"]) == (v, kk)
            assert (dz["b"], dz["a"]) == (b, a)
        # independent oracle: python-set pair census on the small graphs
        from fgl.fusion import PiSpec, build_fusion_graph
        from fgl.groups import involution_class, make_group
        for n in (2, 3):
            cls = involution_class(make_group("psl2", n))
            q = 1 << n
            k, r, mu = formulas.krmu("psl2", q)
            pi_census = brute_force_census(
                build_fusion_graph(cls, PiSpec.odd_complement()))
            within = (k + 1) * r * (r - 1) // 2
            total = cls.size * (cls.size - 1) // 2
            if formulas.is_strict(k, r, mu):
                assert pi_census == {k * (r - 2): within,
                                     (r - 1) ** 2 * mu: total - within}
            else:
                assert pi_census == {k * (r - 2): total}
            chi_census = brute_force_census(build_fusion_graph(cls, PiSpec.chi_only()))
            assert chi_census == {0: within, mu: total - within}


def test_criterion_8_algebraic_grids():
    with criterion(8, "k = r*mu + 1 and strictness identities on grids; "
                      "field axioms n<=4; Frobenius n<=6"):
        for family in formulas.FAMILIES:
            start, step = (3, 2) if family == "sz" else (2, 1)
            for n in range(start, 11, step):
                q = 1 << n
                k, r, mu = formulas.krmu(family, q)
                assert k == r * mu + 1
        for mu in range(1, 101):
            for r in range(3, 101):
                k = r * mu + 1
                assert formulas.is_strict(k, r, mu) == (r != mu + 2)
        from fgl.gf2 import FieldCtx
        for n in (2, 3, 4):
            ctx = FieldCtx(n)
            els = list(range(ctx.order))
            for a in els:
                if a:
                    assert ctx.mul(a, ctx.inv(a)) == 1
                for b in els:
                    for c in els:
                        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
                        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        for n in range(2, 7):
            ctx = FieldCtx(n)
            for a in range(ctx.order):
                for b in range(ctx.order):
                    assert ctx.frobenius(a ^ b, 1) == \
                        ctx.frobenius(a, 1) ^ ctx.frobenius(b, 1)
                    assert ctx.frobenius(ctx.mul(a, b), 1) == \
                        ctx.mul(ctx.frobenius(a, 1), ctx.frobenius(b, 1))


def _check_against_formulas(family, n, budget_s):
    _check_certificate(family, n, report_for(family, n, budget_s).data)


def _verify_in_subprocess(family, n, budget_s):
    """run_verify's certificate, peak RSS in MB and whether its suborbit
    roots equal the Schreier-generator oracle's, from a fresh process, so
    that no other test's heap counts towards the peak.  The peak is VmHWM,
    that of the process's own memory: Linux carries the spawning process's
    peak into the child's ru_maxrss across the exec.  The oracle runs after
    the peak and the time are read, on the class run_verify built."""
    code = ("import json, sys, time\n"
            "import numpy as np\n"
            "from fgl import groups\n"
            "from fgl.pipeline import run_verify\n"
            "from oracles import schreier_suborbits\n"
            "kept, real = [], groups.stabiliser_suborbits\n"
            "groups.stabiliser_suborbits = lambda cls: kept.append((cls, real(cls))) or kept[-1][1]\n"
            "t0 = time.monotonic()\n"
            f"rep = run_verify({family!r}, {n})\n"
            "elapsed = time.monotonic() - t0\n"
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
            "rss = int(hwm.split()[1]) / 1024\n"
            "roots_match = [bool(np.array_equal(root, schreier_suborbits(cls))) for cls, root in kept]\n"
            "json.dump({'data': rep.data, 'elapsed': elapsed, 'rss_mb': rss,\n"
            "           'roots_match': roots_match}, sys.stdout)\n")
    path = [os.path.dirname(os.path.dirname(fgl.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=10 * budget_s)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    elapsed = out["elapsed"]
    assert elapsed < budget_s, f"{family} n={n} took {elapsed:.1f}s, budget {budget_s}s"
    return out["data"], out["rss_mb"], out["roots_match"]


def _check_certificate(family, n, d):
    q = 1 << n
    assert d["status"] == "pass", d["failures"]
    assert d["class_size"] == formulas.class_size(family, q)
    predicted = formulas.predicted_chi_array(family, q)
    assert d["chi_graph"]["intersection_array"] == predicted.to_dict()
    dz = d["pi_graph"]["deza"]
    assert (dz["v"], dz["k"], dz["b"], dz["a"]) == formulas.predicted_deza_params(family, q)
    assert d["orders"]["noncommuting_all_odd"]


def test_criterion_9_sz_32():
    with criterion(9, "sz q=32: 31775 involutions, array, Deza, <120s"):
        _check_against_formulas("sz", 5, 120.0)


def test_criterion_10_psu3_16():
    with criterion(10, "psu3 q=16: 61455 involutions, array, Deza, <120s"):
        _check_against_formulas("psu3", 4, 120.0)


def test_criterion_11_psl2_512():
    # q = 512: two-byte codes, so vertex 0 is not the seed involution
    with criterion(11, "psl2 q=512: 262143 involutions, array, Deza, <120s"):
        _check_against_formulas("psl2", 9, 120.0)


@pytest.mark.ladder
def test_ladder_psu3_n5():
    # v = 1015839; about 5 s and a 200 MB peak RSS on two cores, then about
    # 3 s for the Schreier-generator oracle; deselected by default, run with:
    # pytest -m ladder
    d, rss_mb, roots_match = _verify_in_subprocess("psu3", 5, 120.0)
    _check_certificate("psu3", 5, d)
    assert roots_match == [True]
    assert rss_mb < 220, f"psu3 n=5 peaked at {rss_mb:.1f} MB RSS, bound 220 MB"


@pytest.mark.ladder
def test_ladder_psl2_n10():
    # v = 1048575; about 2.3 s and a 160 MB peak RSS on two cores, then about
    # 2 s for the Schreier-generator oracle
    d, rss_mb, roots_match = _verify_in_subprocess("psl2", 10, 25.0)
    _check_certificate("psl2", 10, d)
    assert roots_match == [True]
    assert rss_mb < 175, f"psl2 n=10 peaked at {rss_mb:.1f} MB RSS, bound 175 MB"


@pytest.mark.ladder
def test_ladder_sz_n7():
    # v = 2080895; about 18 s and a 355 MB peak RSS on two cores, then about
    # 4 s for the Schreier-generator oracle
    d, rss_mb, roots_match = _verify_in_subprocess("sz", 7, 105.0)
    _check_certificate("sz", 7, d)
    assert roots_match == [True]
    assert rss_mb < 390, f"sz n=7 peaked at {rss_mb:.1f} MB RSS, bound 390 MB"


@pytest.mark.ladder
def test_ladder_psl2_n11():
    # v = 4194303; about 13 s and a 619 MB peak RSS on two cores, then about
    # 20 s for the Schreier-generator oracle
    d, rss_mb, roots_match = _verify_in_subprocess("psl2", 11, 40.0)
    _check_certificate("psl2", 11, d)
    assert roots_match == [True]
    assert rss_mb < 680, f"psl2 n=11 peaked at {rss_mb:.1f} MB RSS, bound 680 MB"
