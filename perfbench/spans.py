"""Spans around calls into the fgl modules, recorded from the benchmark.

The tracer swaps module and class attributes (``fgl.<module>.<name>`` and
``groups._Kernels.mul_batch``) for wrappers while it is installed.  Every
caller inside the package reaches these names through a module attribute
or a module global, so the callers see the wrappers.  A generator
(``graphs.iter_common_neighbor_counts``) is timed inside ``next()`` only,
so the consumer's own work stays in the consumer's self time.

Spans are timed by ``host.clock``, which leaves out the benchmark's own
reference samples.  Spans stay in memory: name, start, end, parent index, round id and a few
exact counts.  ``aggregate`` sums them per round and name, and
``layer_values`` turns such sums into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from fgl import bits, fusion, graphio, graphs, groups, pipeline

import host


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    round: object
    attrs: dict | None = None


def _mul_batch_attrs(args, kwargs, result):
    """Matrices multiplied, and table gathers computed as matrices x d^3."""
    a = args[1]
    m = int(np.prod(a.shape[:-2]))
    return {"matrices": m, "gathers": m * a.shape[-1] ** 3}


def _io_format(args, kwargs):
    return graphio.detect_format(args[0], args[2] if len(args) > 2 else kwargs.get("fmt"))


def _file_bytes(key):
    return lambda args, kwargs, result: {key: os.path.getsize(args[0])}


def _pairs_of_class(args, kwargs, result):
    v = args[0].size
    return {"pairs": v * (v - 1) // 2}


# (owner, attribute, span name, counts taken from (args, kwargs, result)).
# A callable span name is evaluated on the call's arguments.
TARGETS = [
    (groups, "make_group", "groups.make_group", None),
    (groups, "involution_class", "groups.involution_class", None),
    (groups, "generators", "groups.generators",
     lambda a, k, r: {"count": len(r)}),
    (groups._Kernels, "mul_batch", "groups.mul_batch", _mul_batch_attrs),
    (groups, "full_order_scan", "groups.full_order_scan",
     lambda a, k, r: {"pairs": r.n_pairs}),
    (groups, "power_pair_masks", "groups.power_pair_masks", _pairs_of_class),
    (groups, "sampled_order_check", "groups.sampled_order_check",
     lambda a, k, r: {"pairs": r["pairs"]}),
    (groups, "sylow_partition", "groups.sylow_partition", None),
    (bits, "rows_from_pairs", "bits.rows_from_pairs",
     lambda a, k, r: {"pairs": len(a[1])}),
    (bits, "transpose", "bits.transpose", None),
    (graphs, "antipodal_cover3_certificate", "graphs.antipodal_cover3_certificate", None),
    (graphs, "recognize_clique_union", "graphs.recognize_clique_union", None),
    (graphs.Graph, "complement", "graphs.Graph.complement", None),
    (graphs, "intersection_array", "graphs.intersection_array", None),
    (graphs, "antipodal_classes", "graphs.antipodal_classes", None),
    (graphs, "deza_check", "graphs.deza_check", None),
    (graphs, "ddg_check", "graphs.ddg_check", None),
    (graphs, "common_neighbor_spectrum", "graphs.common_neighbor_spectrum", None),
    (fusion, "odd_complement_rows", "fusion.odd_complement_rows", None),
    (fusion, "clique_rows", "fusion.clique_rows", None),
    (fusion, "build_fusion_graph", "fusion.build_fusion_graph", None),
    (pipeline, "run_verify", "pipeline.run_verify", None),
    (pipeline, "load_or_build_class", "pipeline.load_or_build_class", None),
    (graphio, "to_graph6", "graphio.to_graph6", None),
    (graphio, "from_graph6", "graphio.from_graph6", None),
    (graphio, "write_graph", lambda a, k: "graphio.write_graph." + _io_format(a, k),
     _file_bytes("bytes_written")),
    (graphio, "read_graph", lambda a, k: "graphio.read_graph." + _io_format(a, k),
     _file_bytes("bytes_read")),
]
CN_PASS = "graphs.iter_common_neighbor_counts"


class Tracer:
    """Records spans while installed; install/uninstall swap the attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round: object = "setup"
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, host.clock(), 0.0, parent, self.round))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = host.clock()
        self._stack.pop()

    def _wrap(self, orig, name, attrs):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if attrs is not None:
                tracer.spans[idx].attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def _wrap_cn_pass(self, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(g, *args, **kwargs):
            return tracer._timed_next(orig(g, *args, **kwargs), g.rows.shape[1])

        return wrapper

    def _timed_next(self, gen, words: int):
        first = 1
        while True:
            idx = self._open(CN_PASS)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.spans[idx].attrs = {"pair_words": len(item[1]) * words, "passes": first}
            first = 0
            yield item

    def install(self) -> None:
        """Wrap every target the package still has; a removed one reports 0."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs in TARGETS:
            if attr in owner.__dict__:
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, attrs))
        if hasattr(graphs, "iter_common_neighbor_counts"):
            orig = graphs.iter_common_neighbor_counts
            self._saved.append((graphs, "iter_common_neighbor_counts", orig))
            graphs.iter_common_neighbor_counts = self._wrap_cn_pass(orig)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def _bucket_names(spans: list[Span]) -> list[str]:
    """Span names, with load_or_build_class split by whether it built the class."""
    built = {s.parent for s in spans if s.name == "groups.involution_class"}
    names = []
    for i, s in enumerate(spans):
        if s.name == "pipeline.load_or_build_class":
            names.append(s.name + (".cold" if i in built else ".warm"))
        else:
            names.append(s.name)
    return names


def aggregate(spans: list[Span]) -> dict:
    """{round id: {bucket: {"s", "self_s", "calls", <count>...}}}.

    Self time is a span's duration minus its children's durations.
    Matrices multiplied under full_order_scan are credited to it as
    "products", so products per pair is measured where the work happens.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    names = _bucket_names(spans)
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for i, s in enumerate(spans):
        b = out[s.round][names[i]]
        b["s"] += s.end - s.start
        b["self_s"] += s.end - s.start - child_s[i]
        b["calls"] += 1
        for key, val in (s.attrs or {}).items():
            b[key] += val
        if s.name == "groups.mul_batch":
            p = s.parent
            while p >= 0 and spans[p].name != "groups.full_order_scan":
                p = spans[p].parent
            if p >= 0:
                out[s.round]["groups.full_order_scan"]["products"] += s.attrs["matrices"]
    return out


def _get(b: dict, bucket: str, key: str) -> float:
    return b.get(bucket, {}).get(key, 0.0)


def _io(b: dict, fn: str, key: str) -> float:
    return _get(b, f"graphio.{fn}.json", key) + _get(b, f"graphio.{fn}.graph6", key)


def _io_rate(b: dict) -> float:
    moved = _io(b, "write_graph", "bytes_written") + _io(b, "read_graph", "bytes_read")
    busy = _io(b, "write_graph", "s") + _io(b, "read_graph", "s")
    return moved / busy if busy else 0.0


def _rate(bucket: str, num: str, den: str = "s"):
    def rate(b):
        d = _get(b, bucket, den)
        return _get(b, bucket, num) / d if d else 0.0
    return rate


# per-layer metric -> (unit, bucket and key, or a function of one round's buckets)
LAYER_METRICS = {
    "groups.make_group.s": ("s", ("groups.make_group", "s")),
    "groups.involution_class.s": ("s", ("groups.involution_class", "s")),
    "groups.generators.s": ("s", ("groups.generators", "s")),
    "groups.generators.count": ("count", ("groups.generators", "count")),
    "groups.mul_batch.calls": ("count", ("groups.mul_batch", "calls")),
    "groups.mul_batch.matrices": ("count", ("groups.mul_batch", "matrices")),
    "groups.mul_batch.s": ("s", ("groups.mul_batch", "s")),
    "groups.mul_batch.matrices_per_s": ("matrices/s", _rate("groups.mul_batch", "matrices")),
    "groups.mul_batch.gathers": ("count", ("groups.mul_batch", "gathers")),
    "groups.full_order_scan.s": ("s", ("groups.full_order_scan", "s")),
    "groups.full_order_scan.pairs": ("count", ("groups.full_order_scan", "pairs")),
    "groups.full_order_scan.products_per_pair": (
        "products/pair", _rate("groups.full_order_scan", "products", "pairs")),
    "groups.power_pair_masks.s": ("s", ("groups.power_pair_masks", "s")),
    "groups.power_pair_masks.pairs": ("count", ("groups.power_pair_masks", "pairs")),
    "groups.sampled_order_check.s": ("s", ("groups.sampled_order_check", "s")),
    "groups.sampled_order_check.pairs": ("count", ("groups.sampled_order_check", "pairs")),
    "groups.sylow_partition.s": ("s", ("groups.sylow_partition", "s")),
    "bits.rows_from_pairs.s": ("s", ("bits.rows_from_pairs", "s")),
    "bits.rows_from_pairs.pairs": ("count", ("bits.rows_from_pairs", "pairs")),
    "bits.transpose.s": ("s", ("bits.transpose", "s")),
    "bits.transpose.calls": ("count", ("bits.transpose", "calls")),
    "graphs.iter_common_neighbor_counts.s": ("s", (CN_PASS, "s")),
    "graphs.iter_common_neighbor_counts.passes": ("count", (CN_PASS, "passes")),
    "graphs.iter_common_neighbor_counts.pair_words": ("count", (CN_PASS, "pair_words")),
    "graphs.iter_common_neighbor_counts.pair_words_per_s": (
        "pair_words/s", _rate(CN_PASS, "pair_words")),
    "graphs.antipodal_cover3_certificate.self_s": (
        "s", ("graphs.antipodal_cover3_certificate", "self_s")),
    "graphs.recognize_clique_union.s": ("s", ("graphs.recognize_clique_union", "s")),
    "graphs.Graph.complement.s": ("s", ("graphs.Graph.complement", "s")),
    "graphs.intersection_array.s": ("s", ("graphs.intersection_array", "s")),
    "graphs.antipodal_classes.s": ("s", ("graphs.antipodal_classes", "s")),
    "graphs.deza_check.self_s": ("s", ("graphs.deza_check", "self_s")),
    "graphs.ddg_check.self_s": ("s", ("graphs.ddg_check", "self_s")),
    "graphs.common_neighbor_spectrum.self_s": (
        "s", ("graphs.common_neighbor_spectrum", "self_s")),
    "fusion.odd_complement_rows.s": ("s", ("fusion.odd_complement_rows", "s")),
    "fusion.clique_rows.s": ("s", ("fusion.clique_rows", "s")),
    "fusion.build_fusion_graph.s": ("s", ("fusion.build_fusion_graph", "s")),
    "pipeline.run_verify.self_s": ("s", ("pipeline.run_verify", "self_s")),
    "pipeline.load_or_build_class.cold_s": ("s", ("pipeline.load_or_build_class.cold", "s")),
    "pipeline.load_or_build_class.warm_s": ("s", ("pipeline.load_or_build_class.warm", "s")),
    "graphio.to_graph6.s": ("s", ("graphio.to_graph6", "s")),
    "graphio.write_graph.json_s": ("s", ("graphio.write_graph.json", "s")),
    "graphio.from_graph6.s": ("s", ("graphio.from_graph6", "s")),
    "graphio.read_graph.json_s": ("s", ("graphio.read_graph.json", "s")),
    "graphio.bytes_written": ("B", lambda b: _io(b, "write_graph", "bytes_written")),
    "graphio.bytes_read": ("B", lambda b: _io(b, "read_graph", "bytes_read")),
    "graphio.bytes_per_s": ("B/s", _io_rate),
}

# metrics that are exact counts and must repeat for a given seed
EXACT_COUNTS = [
    "groups.generators.count", "groups.mul_batch.calls", "groups.mul_batch.matrices",
    "groups.mul_batch.gathers", "groups.full_order_scan.pairs",
    "groups.power_pair_masks.pairs", "groups.sampled_order_check.pairs",
    "bits.rows_from_pairs.pairs", "bits.transpose.calls",
    "graphs.iter_common_neighbor_counts.passes",
    "graphs.iter_common_neighbor_counts.pair_words",
    "graphio.bytes_written", "graphio.bytes_read",
]


def setup_plus_round(setup: dict, rounds: list[dict]) -> dict:
    """Buckets of the set-up plus the mean of the rounds' buckets."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for name, b in setup.items():
        for key, val in b.items():
            out[name][key] += val
    for r in rounds:
        for name, b in r.items():
            for key, val in b.items():
                out[name][key] += val / len(rounds)
    return out


def layer_values(buckets: dict) -> dict:
    """Every LAYER_METRICS value of a set of buckets."""
    return {name: how(buckets) if callable(how) else _get(buckets, *how)
            for name, (_, how) in LAYER_METRICS.items()}
