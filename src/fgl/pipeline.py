"""End-to-end construction and verification pipeline.

For a family and field size this builds the involution class and checks
every structural claim exactly: the parity of product orders, the
commuting (Sylow) partition, the intersection array of the chi graph,
antipodality and its agreement with the Sylow partition, the
distance-power identities, the Deza / divisible-design certificates of the
odd-complement graph and the structure of its two common-neighbor-count
graphs against the closed-form predictions.

Conjugation preserves every claim and acts transitively on the class (the
Schreier tree reaches every vertex), so each claim is one about vertex 0,
proven from one table, its stabiliser's classes with one product order
each (InvolutionClass.suborbits): the order census, its commuting and
distinguished partners (InvolutionClass.seed_sets, cross-checked against
direct products at two more vertices), the Sylow block {0} + comm(0),
the chi graph's cover certificate (fusion.seed_set_cover3_certificate,
one carried neighbor set per class) and the odd-complement seed row.
The odd-complement certificates are derived from the cover certificate,
skipped once an earlier check has failed.  No v x v relation is built.
The outcome is a certificate (schema fgl-cert-1).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import formulas, fusion, graphs, groups
from .graphio import atomic_write, atomic_write_text

SCHEMA = "fgl-cert-1"
CODE_VERSION = 3


@dataclass
class VerificationReport:
    data: dict

    @property
    def passed(self) -> bool:
        return self.data.get("status") == "pass"

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2)

    @property
    def failures(self) -> list:
        return self.data.get("failures", [])


def _cache_path(cache_dir: str, family: str, n: int) -> str:
    return os.path.join(cache_dir, f"{family}-n{n}-v{CODE_VERSION}.npy")


def report_path(cache_dir: str, family: str, n: int) -> str:
    return os.path.join(cache_dir, f"{family}-n{n}-v{CODE_VERSION}-report.json")


def _load_cached_class(spec: groups.GroupSpec, path: str) -> groups.InvolutionClass:
    """A cached class, accepted only once closed_class proves it the class."""
    try:
        with open(path, "rb") as f:
            codes = np.lib.format.read_array(f, allow_pickle=False)
    except Exception as e:  # besides ValueError, a bad header raises TokenError, TypeError...
        raise groups.ClassSizeMismatch(f"unreadable class cache {path}: {e}") from e
    return groups.closed_class(spec, codes)


def load_or_build_class(spec: groups.GroupSpec, cache_dir: str | None):
    """Involution class, optionally memoized as a .npy of element codes
    whose bytes are a function of the codes alone."""
    path = _cache_path(cache_dir, spec.family, spec.n) if cache_dir else None
    if path and os.path.exists(path):
        return _load_cached_class(spec, path)
    cls = groups.involution_class(spec)
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        atomic_write(path, lambda f: np.lib.format.write_array(f, cls.codes, allow_pickle=False),
                     "wb")
    return cls


def _derived_pi_analysis(v: int, k: int, r: int, mu: int):
    """Common-neighbor analysis of the odd-complement graph, derived
    exactly from an already-verified cover certificate.

    The certificate has proved, for every vertex pair: the chi-graph
    counts (a1 = c2 = mu, 0 on antipodal pairs), that each vertex has
    exactly one chi-neighbor in every antipodal class but its own and
    none in its own, and that the odd-complement graph is the distance-2
    power.  Writing T(x) for {x} + chi-neighbors + antipodal partners
    (the complement of a distance-2 row), inclusion-exclusion then pins
    |T(x) & T(y)| for every pair, so the distance-2 common-neighbor count
    is cnt_chi(x, y) + 2 on cross-class pairs and r on same-class pairs
    plus the constant v - 2(k + r).  The test suite asserts this equals a
    direct pass over all pairs.
    """
    base = v - 2 * (k + r)
    within, cross = base + r, base + mu + 2
    n_within = (k + 1) * (r * (r - 1) // 2)
    census = {within: n_within}
    census[cross] = census.get(cross, 0) + (v * (v - 1) // 2 - n_within)
    return {"census": census, "lam_edge": cross, "lam_edge_ok": True,
            "within_ok": within == k * (r - 2), "cross_ok": cross == (r - 1) ** 2 * mu,
            "diam2": cross > 0 and within > 0}


def run_verify(family: str, n: int, cache_dir: str | None = None) -> VerificationReport:
    """Run the full pipeline; collects match failures instead of raising.

    Construction-level errors (wrong class size, invalid arguments) still
    raise, since no meaningful certificate exists in that case.
    """
    t0 = time.monotonic()
    timings: dict[str, int] = {}
    failures: list[str] = []

    def clock(stage: str, t_start: float) -> float:
        now = time.monotonic()
        timings[stage] = int(round((now - t_start) * 1000))
        return now

    spec = groups.make_group(family, n)
    q, l = spec.q, spec.l
    k, r, mu = formulas.krmu(spec.family, q)
    data: dict = {
        "schema": SCHEMA,
        "family": spec.family,
        "n": spec.n,
        "q": q,
        "sylow_exponent": l,
        "associated_prime": spec.chi,
        "center_order": len(spec.center),
    }

    t = time.monotonic()
    cls = load_or_build_class(spec, cache_dir)
    data["class_size"] = cls.size
    t = clock("involution_class", t)

    # the census builds the suborbit table, so its time is in "orders"
    orders = groups.orbital_order_census(cls)
    data["orders"] = {
        "method": "orbital",
        "pairs": orders.n_pairs,
        "census": {str(o): c for o, c in sorted(orders.census.items())},
        "max_order": orders.max_order,
        "noncommuting_all_odd": orders.noncommuting_all_odd,
        "even_witness": orders.even_witness,
    }
    if not orders.noncommuting_all_odd:
        failures.append("orders: a non-commuting product has even order")
    t = clock("orders", t)

    # commuting and distinguished partners of vertex 0, carried to two more rows
    sets = cls.seed_sets()
    checked = (cls.size // 2, cls.size - 1)
    mismatch = groups.cross_check_rows(cls, sets, checked)
    # closed_class made the class only once its Schreier tree reached every vertex
    data["pairs"] = {"method": "orbital", "generators": len(cls.perms),
                     "orbit_size": cls.size, "transitive": True,
                     "checked_rows": list(checked), "rows_match": mismatch is None,
                     "mismatch": mismatch}
    if mismatch is not None:
        failures.append(f"pairs: derived row {mismatch[0]} differs from direct products "
                        f"at {mismatch}")
    t = clock("pairs", t)

    # commuting (Sylow) partition
    labels = None
    try:
        labels = cls.sylow_labels()
        sylow_info = {
            "num_classes": int(labels.max()) + 1,
            "class_size": int(np.bincount(labels)[0]),
            "equivalence": True,
        }
    except (groups.NotAnEquivalence, groups.SylowCountMismatch) as e:
        sylow_info = {"equivalence": False, "error": str(e)}
        failures.append(f"sylow: {e}")
    data["sylow"] = sylow_info
    t = clock("sylow", t)

    # chi graph and its cover certificate
    chi_info: dict = {"method": "seed-set", "valency": len(sets.chi)}
    if len(sets.chi) != k:
        failures.append(f"chi_graph: valency {len(sets.chi)} != {k}")
    predicted = formulas.predicted_chi_array(spec.family, q)
    chi_info["predicted_array"] = predicted.to_dict()
    cert = None
    try:
        cert = fusion.seed_set_cover3_certificate(cls, sets.chi, known=labels)
        chi_info["intersection_array"] = cert.array.to_dict()
        chi_info["array_match"] = cert.array == predicted
        chi_info["antipodal"] = True
        chi_info["antipodal_num_classes"] = int(cert.labels.max()) + 1
        chi_info["antipodal_class_size"] = cert.r
        chi_info["cn_spectrum"] = {str(c): cnt for c, cnt in sorted(cert.cn_spectrum.items())}
        if not chi_info["array_match"]:
            failures.append(
                f"chi_graph: array {cert.array} != predicted {predicted}")
        # spectrum must be exactly {mu, 0}
        vals = set(cert.cn_spectrum)
        if vals - {0, mu}:
            failures.append(f"chi_graph: common-neighbor values {sorted(vals)} != {{0, {mu}}}")
        chi_info["deza"] = {"v": cls.size, "k": k, "b": mu, "a": 0,
                            "match": vals <= {0, mu}}
        if labels is not None:
            # both are numbered by least member
            same = bool(np.array_equal(cert.labels, labels))
            chi_info["antipodal_equals_sylow"] = same
            if not same:
                failures.append("chi_graph: antipodal classes differ from Sylow classes")
    except (graphs.NotDistanceRegular, graphs.NotAntipodal) as e:
        chi_info["antipodal"] = False
        chi_info["error"] = str(e)
        chi_info["witness"] = e.witness
        failures.append(f"chi_graph: {e}")
    data["chi_graph"] = chi_info
    t = clock("chi_graph", t)

    # odd-complement seed row and the distance-power identities at vertex 0
    pi_seed = fusion.odd_complement_seed(cls.size, sets)
    kpi = (r - 1) * k
    pi_info: dict = {"valency": len(pi_seed)}
    if len(pi_seed) != kpi:
        failures.append(f"pi_graph: valency {len(pi_seed)} != {kpi}")
    if cert is not None:
        g2_ok = bool(np.array_equal(cert.d2, pi_seed))
        pi_info["gamma2_match"] = g2_ok
        if not g2_ok:
            pi_info["gamma2_witness"] = [0, int(np.setxor1d(cert.d2, pi_seed)[0])]
            failures.append("pi_graph: not equal to the distance-2 power of the chi graph")
        if labels is not None:
            # the chi neighbors and the Sylow class of 0, 0 itself left out
            phi = np.union1d(sets.chi, np.flatnonzero(labels == labels[0])[1:])
            phi13 = bool(np.array_equal(phi, np.union1d(sets.chi, cert.d3)))
            phic = bool(np.array_equal(phi, fusion.seed_complement(cls.size, pi_seed)))
            pi_info["phi_13_match"] = phi13
            pi_info["phi_complement_match"] = phic
            if not phi13:
                failures.append("phi_graph: not equal to the distance-{1,3} power")
            if not phic:
                failures.append("phi_graph: not the complement of the pi graph")
    t = clock("identities", t)

    # Deza / divisible-design certificates of the odd-complement graph
    pred_v, pred_k, pred_b, pred_a = formulas.predicted_deza_params(spec.family, q)
    strict_pred = formulas.is_strict(k, r, mu)
    pi_info["predicted"] = {"v": pred_v, "k": pred_k, "b": pred_b, "a": pred_a,
                            "strict": strict_pred}
    omega_info: dict = {}
    if failures:
        # the derivation stands only on a certificate with every check so far passed
        pi_info["analysis"] = "skipped: an earlier check failed"
    else:
        ana = _derived_pi_analysis(cls.size, k, r, mu)
        pi_info["analysis"] = "derived-from-cover-certificate"
        census = ana["census"]
        pi_info["cn_spectrum"] = {str(c): cnt for c, cnt in sorted(census.items())}
        emp_vals = sorted(census)
        emp_a, emp_b = emp_vals[0], emp_vals[-1]
        deza_ok = (len(emp_vals) <= 2 and {emp_a, emp_b} == {pred_a, pred_b}
                   and cls.size == pred_v)
        strict_emp = ana["diam2"] and emp_a != emp_b
        pi_info["deza"] = {
            "v": cls.size, "k": pi_info.get("valency"),
            "b": emp_b, "a": emp_a,
            "strict": strict_emp,
            "edge_regular": ana["lam_edge_ok"],
            "edge_lambda": ana["lam_edge"],
            "strongly_regular": bool(ana["lam_edge_ok"] and emp_a == emp_b),
            "diameter2": ana["diam2"],
        }
        pi_info["deza_match"] = deza_ok and pi_info.get("valency") == pred_k
        if not pi_info["deza_match"]:
            failures.append(
                f"pi_graph: Deza certificate ({cls.size},{pi_info.get('valency')},"
                f"{emp_b},{emp_a}) != predicted ({pred_v},{pred_k},{pred_b},{pred_a})")
        if strict_emp != strict_pred:
            failures.append(f"pi_graph: strictness {strict_emp} != predicted {strict_pred}")
        ddg_ok = ana["within_ok"] and ana["cross_ok"]
        pi_info["ddg"] = {**formulas.predicted_ddg(spec.family, q), "match": ddg_ok}
        if not ddg_ok:
            failures.append("pi_graph: common-neighbor counts not constant on the partition")

        # the pairs with the within-class count are the antipodal classes, a
        # union of equal cliques, and the cross-class pairs complete multipartite
        if strict_pred:
            classes = [int(cert.labels.max()) + 1, cert.r]
            match = classes == [k + 1, r]
            omega_info = {"applicable": True, "complement_pair": True,
                          "multipartite": {"c": (r - 1) ** 2 * mu, "result": classes,
                                           "match": match},
                          "clique_union": {"c": k * (r - 2), "result": classes, "match": match}}
            if not match:
                failures.append("omega: common-neighbor-count graphs lack the predicted structure")
        else:
            omega_info = {"applicable": False,
                          "reason": "degenerate case a = b (r = mu + 2)"}
    data["pi_graph"] = pi_info
    data["cn_structure"] = omega_info
    t = clock("pi_graph", t)

    # closed-form cross-checks
    p0, p1, p2, p3 = formulas.p22_numbers(k, r, mu)
    formula_info = {
        "p22": [p0, p1, p2, p3],
        "deza_pair": list(formulas.deza_pair(k, r, mu)),
        "match": True,
    }
    if labels is not None and "deza" in pi_info:
        emp = pi_info["deza"]
        ok = p0 == emp["k"] and {p1, p3} == {emp["a"], emp["b"]}
        formula_info["match"] = bool(ok)
        if not ok:
            failures.append("formulas: closed-form values disagree with empirical certificate")
    data["formulas"] = formula_info

    data["failures"] = failures
    data["status"] = "pass" if not failures else "fail"
    timings["total"] = int(round((time.monotonic() - t0) * 1000))
    data["timings_ms"] = timings
    report = VerificationReport(data)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        atomic_write_text(report_path(cache_dir, spec.family, n), report.to_json() + "\n")
    return report
