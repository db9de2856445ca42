"""Correctness gate: every benchmark output is checked against closed forms.

A certificate must pass, match the ``formulas`` oracle (class size, chi
intersection array, Deza parameters, divisible-design values, Sylow
count) and equal its workload's first certificate for the same instance
apart from ``timings_ms``.  A graph read back must equal the graph
written, and each analyze check must give the value the closed forms
predict.  ``self_test`` shows that the gate rejects a tampered certificate
and a graph with one flipped edge, so a zero failure count means something.
"""

from __future__ import annotations

import copy
import json
import os
from collections import Counter

import numpy as np
from fgl import formulas, fusion, graphio, graphs, groups, pipeline


class GateSelfTestFailed(AssertionError):
    pass


def _strip_timings(data: dict) -> str:
    return json.dumps({k: v for k, v in data.items() if k != "timings_ms"},
                      sort_keys=True, default=str)


def certificate_problems(data: dict, family: str, n: int, first: dict | None = None) -> list[str]:
    """Why a verify certificate is wrong; empty when it is right."""
    q = 1 << n
    k, r, mu = formulas.krmu(family, q)
    pi = data.get("pi_graph", {})
    deza = pi.get("deza", {})
    ddg = {key: val for key, val in pi.get("ddg", {}).items() if key != "match"}
    expect = {
        "status": ("pass", data.get("status")),
        "instance": ((family, n), (data.get("family"), data.get("n"))),
        "class_size": (formulas.class_size(family, q), data.get("class_size")),
        "chi intersection array": (formulas.predicted_chi_array(family, q).to_dict(),
                                   data.get("chi_graph", {}).get("intersection_array")),
        "pi Deza (v,k,b,a)": (formulas.predicted_deza_params(family, q),
                              tuple(deza.get(key) for key in ("v", "k", "b", "a"))),
        "pi divisible design": (predicted_ddg(k, r, mu), ddg),
        "Sylow classes": ((k + 1, r), (data.get("sylow", {}).get("num_classes"),
                                       data.get("sylow", {}).get("class_size"))),
    }
    problems = [f"{family} n={n}: {what} is {got}, expected {want}"
                for what, (want, got) in expect.items() if got != want]
    if first is not None and _strip_timings(data) != _strip_timings(first):
        problems.append(f"{family} n={n}: certificate differs from the first one of this run")
    return problems


def predicted_ddg(k: int, r: int, mu: int) -> dict:
    return {"num_classes": k + 1, "class_size": r,
            "lambda_within": k * (r - 2), "lambda_cross": (r - 1) ** 2 * mu}


def graph_problem(expected: graphs.Graph, got: graphs.Graph, what: str) -> str | None:
    if got != expected:
        return f"{what}: read back {got!r}, wrote {expected!r}"
    return None


# analyze checks per graph, as `fgl analyze --check` runs them
PI_CHECKS = ("deza", "ddg", "spectrum", "multipartite")
CHI_CHECKS = ("drg", "antipodal")


def predicted_analysis(family: str, q: int) -> dict:
    """Closed-form value of every analyze check on the odd-complement
    graph (PI_CHECKS) and the chi graph (CHI_CHECKS)."""
    k, r, mu = formulas.krmu(family, q)
    v, kpi, b, a = formulas.predicted_deza_params(family, q)
    within, cross = k * (r - 2), (r - 1) ** 2 * mu
    n_within = (k + 1) * r * (r - 1) // 2
    spectrum = Counter({cross: v * (v - 1) // 2 - n_within})
    spectrum[within] += n_within
    return {
        # edges of the odd-complement graph are all cross-class pairs
        "deza": {"v": v, "k": kpi, "b": b, "a": a, "strict": formulas.is_strict(k, r, mu),
                 "edge_regular": True, "strongly_regular": a == b},
        "ddg": predicted_ddg(k, r, mu),
        "spectrum": {str(c): spectrum[c] for c in sorted(spectrum)},
        # connected, diameter 2 and not complete; its complement is connected
        "multipartite": {"complete_multipartite": None, "clique_union": None},
        "drg": formulas.predicted_chi_array(family, q).to_dict(),
        "antipodal": {"num_classes": k + 1, "class_sizes": [r]},
    }


def analyze(check: str, g: graphs.Graph, labels) -> dict:
    if check == "deza":
        return graphs.deza_check(g).to_dict()
    if check == "ddg":
        return graphs.ddg_check(g, labels).to_dict()
    if check == "spectrum":
        return {str(c): n for c, n in sorted(graphs.common_neighbor_spectrum(g).items())}
    if check == "multipartite":
        mp = graphs.recognize_complete_multipartite(g)
        cu = graphs.recognize_clique_union(g)
        return {"complete_multipartite": list(mp) if mp else None,
                "clique_union": list(cu) if cu else None}
    if check == "drg":
        return graphs.intersection_array(g).to_dict()
    if check == "antipodal":
        found = graphs.antipodal_classes(g)
        return {"num_classes": int(found.max()) + 1,
                "class_sizes": sorted(set(map(int, np.bincount(found))))}
    raise ValueError(f"unknown check {check!r}")


# what the analyze checks raise on a graph without the checked structure
CHECK_ERRORS = (graphs.NotRegular, graphs.MoreThanTwoValues, graphs.PartitionNotUniform,
                graphs.Disconnected, graphs.NotDistanceRegular, graphs.NotAntipodal)


def analysis_problem(check: str, g: graphs.Graph, labels, predicted: dict) -> str | None:
    try:
        got = analyze(check, g, labels)
    except CHECK_ERRORS as e:
        return f"{check}: {type(e).__name__}: {e}"
    if got != predicted[check]:
        return f"{check}: got {got}, expected {predicted[check]}"
    return None


def flip_edge(g: graphs.Graph, i: int, j: int) -> graphs.Graph:
    rows = g.rows.copy()
    for a, b in ((i, j), (j, i)):
        rows[a, b >> 6] ^= np.uint64(1 << (b & 63))
    return graphs.Graph(g.v, rows)


def self_test(workdir: str) -> None:
    """Raise GateSelfTestFailed unless every gate path accepts genuine output
    of the smallest instance and rejects a tampered certificate and a graph
    with one flipped edge.

    It runs each path a workload runs: run_verify cold and warm on a cache
    directory, both pair classifications (power masks on a fresh class, the
    exhaustive scan), the sampled order check, graph6 and JSON round trips
    and every analyze check.  So every layer also shows in a traced set-up.
    """
    family, n = "psl2", 2
    cache_dir = os.path.join(workdir, "self-test-cache")
    cold = pipeline.run_verify(family, n, cache_dir=cache_dir).data
    warm = pipeline.run_verify(family, n, cache_dir=cache_dir).data
    if certificate_problems(cold, family, n) or certificate_problems(warm, family, n, first=cold):
        raise GateSelfTestFailed("gate rejected a genuine certificate")
    wrong_array = copy.deepcopy(cold)
    wrong_array["chi_graph"]["intersection_array"]["b"][1] += 1
    if not certificate_problems(wrong_array, family, n):
        raise GateSelfTestFailed("gate accepted a wrong intersection array")
    wrong_valency = copy.deepcopy(cold)
    wrong_valency["chi_graph"]["valency"] += 1
    if not certificate_problems(wrong_valency, family, n, first=cold):
        raise GateSelfTestFailed("gate accepted a certificate that differs from the first")

    spec = groups.make_group(family, n)
    cls = pipeline.load_or_build_class(spec, None)
    built = {"chi": fusion.build_fusion_graph(cls, fusion.PiSpec.chi_only()),
             "pi": fusion.build_fusion_graph(cls, fusion.PiSpec.odd_complement())}
    if not np.array_equal(built["chi"].rows, graphs.Graph(cls.size, cls.order_scan().chi).rows):
        raise GateSelfTestFailed("power masks and the exhaustive scan disagree")
    sampled = groups.sampled_order_check(cls, 1000, seed=0)
    if not sampled["noncommuting_all_odd"] or not set(sampled["census"]) <= set(
            cls.order_scan().census):
        raise GateSelfTestFailed("sampled orders disagree with the exhaustive scan")
    labels = cls.sylow_labels()
    predicted = predicted_analysis(family, spec.q)
    for name, g in built.items():
        for ext in ("g6", "json"):
            path = os.path.join(workdir, f"self-test-{name}.{ext}")
            graphio.write_graph(path, g)
            if graph_problem(g, graphio.read_graph(path), "self-test") is not None:
                raise GateSelfTestFailed("gate rejected a genuine graph round trip")
    for name, checks in (("pi", PI_CHECKS), ("chi", CHI_CHECKS)):
        if any(analysis_problem(c, built[name], labels, predicted) for c in checks):
            raise GateSelfTestFailed(f"gate rejected a genuine {name} graph")
    flipped = flip_edge(built["pi"], 0, built["pi"].v - 1)
    if graph_problem(built["pi"], flipped, "self-test") is None:
        raise GateSelfTestFailed("gate accepted a graph with a flipped edge")
    if analysis_problem("deza", flipped, labels, predicted) is None:
        raise GateSelfTestFailed("gate accepted a Deza check on a graph with a flipped edge")
