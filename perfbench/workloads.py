"""The benchmark's workloads: inputs made from the seed, set-up, and one round.

Every round counts its operations and checks each output with the gate.
Sizes are chosen so that a run of a few rounds fits in one measured run on
a two-core machine: the largest instances of the package (PSU3(8), and
graph I/O on the PSL2(64) odd-complement graph with its 2.7 GB peak) take
20 to 40 s per round, which would leave a single sample per run.
"""

from __future__ import annotations

import inspect
import os
import random
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field

import numpy as np
from fgl import fusion, graphio, graphs, groups, pipeline

import gate


@dataclass
class Outcome:
    """What one round did: operations, failures, pairs certified, certificates."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    pairs: int = 0
    certificates: list = field(default_factory=list)

    def op(self, what: str, check) -> bool:
        """Run one gated operation; `check` returns a list of problems."""
        self.attempted += 1
        try:
            problems = check()
        except Exception:  # the run goes on; the failure is counted and shown
            traceback.print_exc(file=sys.stderr)
            problems = [f"{what}: raised"]
        self.failures.extend(problems)
        self.failed += bool(problems)
        return not problems


def _pairs(v: int) -> int:
    return v * (v - 1) // 2


class Verify:
    """Rounds of run_verify over (family, n) instances in a seeded order.

    The seed also reaches run_verify while it takes one; only the sampled
    order check (classes above fusion.FULL_ORDER_LIMIT) reads it.  With
    `cached`, each instance runs cold on a fresh cache directory and then
    warm on it.
    """

    def __init__(self, instances, cached=False):
        self.instances = instances
        self.cached = cached

    def setup(self, seed: int, workdir: str) -> dict:
        takes_seed = "seed" in inspect.signature(pipeline.run_verify).parameters
        return {"rng": random.Random(seed), "workdir": workdir, "first": {},
                "kwargs": {"seed": seed} if takes_seed else {}}

    def _verify(self, state, out: Outcome, family: str, n: int, cache_dir):
        def check():
            data = pipeline.run_verify(family, n, cache_dir=cache_dir, **state["kwargs"]).data
            out.certificates.append(data)
            first = state["first"].setdefault((family, n), data)
            problems = gate.certificate_problems(data, family, n, first=first)
            if not problems:
                out.pairs += _pairs(data["class_size"])
            return problems
        out.op(f"verify {family} n={n}", check)

    def run_round(self, state) -> Outcome:
        out = Outcome()
        order = list(self.instances)
        state["rng"].shuffle(order)
        for family, n in order:
            if not self.cached:
                self._verify(state, out, family, n, None)
                continue
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=state["workdir"])
            try:
                self._verify(state, out, family, n, cache_dir)  # cold: build and write
                self._verify(state, out, family, n, cache_dir)  # warm: read back
            finally:
                shutil.rmtree(cache_dir)
        return out


class GraphIO:
    """Write, read back and analyze the two fusion graphs of one instance.

    Set-up builds both graphs as `fgl construct` does and relabels their
    vertices by a permutation drawn from the seed.  A round writes each
    graph as graph6 and as JSON, reads each file back with validation,
    compares, and runs the analyze checks on the graphs read from JSON.
    """

    def __init__(self, family: str, n: int):
        self.family = family
        self.n = n

    def setup(self, seed: int, workdir: str) -> dict:
        spec = groups.make_group(self.family, self.n)
        cls = pipeline.load_or_build_class(spec, None)
        built = {"pi": fusion.build_fusion_graph(cls, fusion.PiSpec.odd_complement()),
                 "chi": fusion.build_fusion_graph(cls, fusion.PiSpec.chi_only())}
        perm = np.random.default_rng(seed).permutation(cls.size)
        inv = np.argsort(perm)
        graph = {}
        for name, g in built.items():
            mat = np.unpackbits(g.rows.view(np.uint8), axis=-1, bitorder="little")[:, :g.v]
            graph[name] = graphs.Graph.from_bool(np.ascontiguousarray(mat[inv][:, inv], dtype=bool))
        return {"graphs": graph, "labels": cls.sylow_labels()[inv],
                "predicted": gate.predicted_analysis(self.family, spec.q),
                "workdir": workdir}

    def run_round(self, state) -> Outcome:
        out = Outcome()
        read_back = {}
        failed = set()
        for name, g in state["graphs"].items():
            for ext in ("g6", "json"):
                def roundtrip(name=name, g=g, ext=ext):
                    path = os.path.join(state["workdir"], f"{name}.{ext}")
                    graphio.write_graph(path, g)
                    read_back[name, ext] = graphio.read_graph(path)
                    problem = gate.graph_problem(g, read_back[name, ext], f"{name} {ext} round trip")
                    return [problem] if problem else []
                if not out.op(f"{name} {ext} round trip", roundtrip):
                    failed.add(name)
        checks = [("pi", c) for c in gate.PI_CHECKS] + [("chi", c) for c in gate.CHI_CHECKS]
        for name, check in checks:
            def analyzed(name=name, check=check):
                problem = gate.analysis_problem(check, read_back[name, "json"],
                                                state["labels"], state["predicted"])
                return [problem] if problem else []
            if not out.op(f"{name} {check}", analyzed):
                failed.add(name)
        out.pairs = sum(_pairs(g.v) for name, g in state["graphs"].items() if name not in failed)
        return out


WORKLOADS = {
    "verify-psl2-q32": Verify([("psl2", 5)]),
    "verify-psl2-q64": Verify([("psl2", 6)]),
    "verify-small-cached": Verify([("psl2", 2), ("psl2", 3), ("psl2", 4), ("sz", 3), ("psu3", 2)],
                                  cached=True),
    "graph-io-psl2-q32": GraphIO("psl2", 5),
}
