"""End-to-end construction and verification pipeline.

For a family and field size this builds the involution class and checks
every structural claim exactly: the parity of product orders, the
commuting (Sylow) partition, the intersection array of the chi graph,
antipodality and its agreement with the Sylow partition, and that the
odd-complement graph is the chi graph's distance-2 graph.  These imply the
rest (run_verify): the phi-graph identities, and the Deza /
divisible-design certificates of the odd-complement graph and the
structure of its two common-neighbor-count graphs, which are the
closed-form predictions of formulas.

Conjugation preserves every claim and acts transitively on the class (the
Schreier tree reaches every vertex), so each claim is one about vertex 0,
proven from one table, its stabiliser's classes with one product order
each (InvolutionClass.suborbits): the order census, its commuting and
distinguished partners (InvolutionClass.seed_sets, cross-checked against
direct products at two more vertices), the Sylow block {0} + comm(0),
the chi graph's cover certificate (fusion.seed_set_cover3_certificate,
one carried neighbor set per class) and the odd-complement seed row.
The odd-complement certificates are filled in only on a certificate with
no failure so far.  No v x v relation is built.
The outcome is a certificate (schema fgl-cert-1).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
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


def run_verify(family: str, n: int, cache_dir: str | None = None) -> VerificationReport:
    """Run the full pipeline; collects match failures instead of raising.

    Construction-level errors (wrong class size, invalid arguments) still
    raise, since no meaningful certificate exists in that case.

    The odd-complement graph's certificates are filled from formulas, not
    measured, once every earlier check has passed.  By then the class has
    v = r(k + 1) vertices, the chi graph is an antipodal distance-regular
    cover {k, (r - 1)mu, 1; 1, mu, k} with k = r*mu + 1 whose antipodal
    classes are the Sylow classes, and the odd-complement graph is its
    distance-2 graph, of valency (r - 1)k.  Write T(x) for x, its k chi
    neighbors and its r - 1 antipodal partners, the complement of x's
    distance-2 row.  Each vertex has one chi neighbor in every antipodal
    class but its own, so |T(x) & T(y)| is r on the (k + 1)r(r - 1)/2 pairs
    within a class and cnt_chi(x, y) + 2 = mu + 2 on every other pair.  The
    distance-2 common-neighbor count v - |T(x) | T(y)| is then
    k(r - 2) within a class and (r - 1)^2 mu across classes, which are
    p^3_22 and p^1_22 = p^2_22 of formulas.p22_numbers.  So the Deza
    parameters are formulas.predicted_deza_params, strict exactly when
    r != mu + 2 (formulas.is_strict), the divisible-design certificate is
    formulas.predicted_ddg, and the two common-neighbor-count graphs are
    the k + 1 antipodal r-cliques and their complete multipartite
    complement.  The test suite checks every one of these values against
    an exhaustive common-neighbor pass.
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
        "suborbits": len(cls.suborbits().reps) + 1,
    }
    if not orders.noncommuting_all_odd:
        failures.append("orders: a non-commuting product has even order")
    # more classes than U* has orbits: the Sylow generators generate less than U*
    classes, want = data["orders"]["suborbits"], formulas.stabiliser_classes(spec.family, q)
    if classes != want:
        failures.append(f"orders: the Sylow generators split vertex 0's stabiliser into "
                        f"{classes} classes, expected {want}")
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
        # the census holds only a1, c2 and 0, and the array fixes a1 = c2 = mu
        chi_info["deza"] = {"v": cls.size, "k": k, "b": mu, "a": 0,
                            "match": set(cert.cn_spectrum) <= {0, mu}}
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

    # odd-complement seed row and the distance-2 identity at vertex 0
    pi_seed = fusion.odd_complement_seed(cls.size, sets)
    pi_info: dict = {"valency": len(pi_seed)}
    if cert is not None:
        g2_ok = bool(np.array_equal(cert.d2, pi_seed))
        pi_info["gamma2_match"] = g2_ok
        if not g2_ok:
            pi_info["gamma2_witness"] = [0, int(np.setxor1d(cert.d2, pi_seed)[0])]
            failures.append("pi_graph: not equal to the distance-2 power of the chi graph")
        if labels is not None:
            # phi(0) = chi(0) + comm(0), as comm(0) + {0} is the Sylow block of 0:
            # it is chi(0) + D3(0) exactly when the two blocks of 0 agree, and
            # the complement of pi(0) = seed_complement(comm(0) + chi(0)) by definition
            pi_info["phi_13_match"] = chi_info["antipodal_equals_sylow"]
            pi_info["phi_complement_match"] = True
    t = clock("identities", t)

    # Deza / divisible-design certificates of the odd-complement graph
    pred_v, pred_k, pred_b, pred_a = formulas.predicted_deza_params(spec.family, q)
    strict = formulas.is_strict(k, r, mu)
    pi_info["predicted"] = {"v": pred_v, "k": pred_k, "b": pred_b, "a": pred_a,
                            "strict": strict}
    omega_info: dict = {}
    if failures:
        # the derivation stands only on a certificate with every check so far passed
        pi_info["analysis"] = "skipped: an earlier check failed"
    else:
        pi_info["analysis"] = "derived-from-cover-certificate"
        ddg = formulas.predicted_ddg(spec.family, q)
        within, cross = ddg["lambda_within"], ddg["lambda_cross"]
        n_within = (k + 1) * (r * (r - 1) // 2)
        census = Counter({cross: pred_v * (pred_v - 1) // 2 - n_within})
        census[within] += n_within
        pi_info["cn_spectrum"] = {str(c): census[c] for c in sorted(census)}
        # no edge joins two vertices of one class
        pi_info["deza"] = {**pi_info["predicted"], "edge_regular": True, "edge_lambda": cross,
                           "strongly_regular": not strict, "diameter2": True}
        pi_info["deza_match"] = True
        pi_info["ddg"] = {**ddg, "match": True}
        # the within-class pairs are the k + 1 antipodal classes, a union of
        # r-cliques, and the cross-class pairs complete multipartite
        if strict:
            classes = [k + 1, r]
            omega_info = {"applicable": True, "complement_pair": True,
                          "multipartite": {"c": cross, "result": classes, "match": True},
                          "clique_union": {"c": within, "result": classes, "match": True}}
        else:
            omega_info = {"applicable": False,
                          "reason": "degenerate case a = b (r = mu + 2)"}
    data["pi_graph"] = pi_info
    data["cn_structure"] = omega_info
    t = clock("pi_graph", t)

    data["formulas"] = {"p22": list(formulas.p22_numbers(k, r, mu)),
                        "deza_pair": list(formulas.deza_pair(k, r, mu)), "match": True}

    data["failures"] = failures
    data["status"] = "pass" if not failures else "fail"
    timings["total"] = int(round((time.monotonic() - t0) * 1000))
    data["timings_ms"] = timings
    report = VerificationReport(data)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        atomic_write_text(report_path(cache_dir, spec.family, n), report.to_json() + "\n")
    return report
