"""Command-line interface.

Subcommands:
  construct   build a fusion graph and write it (graph6 or JSON) + sidecar
  verify      run the full verification pipeline, print the certificate
  analyze     run selected checks on an arbitrary imported graph
  report      tabulate predicted parameters per family and q
  export      convert a graph file between formats

Exit codes: 0 pass, 1 verification failure, 2 usage/parse error or a
path that cannot be written, 3 internal construction error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import formulas, fusion, graphs, groups, pipeline
from .formulas import FAMILIES, InvalidQ
from .graphio import GraphParseError, atomic_write_text, read_graph, write_graph

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3


def _family_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int, metavar="N",
                   help="field exponent, q = 2^N")


def _out_text(args, text: str) -> None:
    if getattr(args, "out", None):
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _read_input(path: str, fmt: str | None) -> graphs.Graph | None:
    """read_graph, or None once a graph that cannot be read, parsed or held
    in memory is reported on stderr (a usage error)."""
    try:
        return read_graph(path, fmt)
    except (OSError, GraphParseError, ValueError, MemoryError) as e:
        print(f"error reading graph: {e}", file=sys.stderr)
        return None


def _unwritable(args) -> str | None:
    """Why --out or --cache cannot be written, found before any work is
    done, or None: --out must name a file in an existing directory, and
    the nearest existing ancestor of --cache (or --cache itself) must be a
    directory."""
    out, cache = getattr(args, "out", None), getattr(args, "cache", None)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        return f"--out {out}: not a file in an existing directory"
    if cache:
        nearest = os.path.abspath(cache)
        while not os.path.exists(nearest):
            nearest = os.path.dirname(nearest)
        if not os.path.isdir(nearest):
            return f"--cache {cache}: {nearest} is not a directory"
    return None


def cmd_construct(args) -> int:
    spec = groups.make_group(args.family, args.n)
    cls = pipeline.load_or_build_class(spec, args.cache)
    if args.pi == "chi":
        pi = fusion.PiSpec.chi_only()
    else:
        pi = fusion.PiSpec.odd_complement()
    g = fusion.build_fusion_graph(cls, pi)
    fmt = write_graph(args.out, g, args.format)
    meta = {
        "schema": pipeline.SCHEMA,
        "family": spec.family,
        "n": spec.n,
        "q": spec.q,
        "pi": args.pi,
        "format": fmt,
        "vertices": cls.size,
        "edges": g.edge_count(),
        "sylow_labels": [int(x) for x in cls.sylow_labels()],
        "involutions": [row.tobytes().hex() for row in groups.encodings(cls.codes)],
    }
    atomic_write_text(args.out + ".meta.json", json.dumps(meta) + "\n")
    print(f"wrote {args.out} ({cls.size} vertices, {meta['edges']} edges, {fmt})")
    return EXIT_PASS


def cmd_verify(args) -> int:
    report = pipeline.run_verify(args.family, args.n, cache_dir=args.cache)
    _out_text(args, report.to_json() + "\n")
    if not report.passed:
        print(f"VERIFY FAILED: {report.failures[0]}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def _antipodal(g, labels) -> dict:
    found = graphs.antipodal_classes(g)
    return {"antipodal": True, "num_classes": int(found.max()) + 1,
            "class_sizes": sorted(set(map(int, np.bincount(found))))}


def _multipartite(g, labels) -> dict:
    mp = graphs.recognize_complete_multipartite(g)
    cu = graphs.recognize_clique_union(g)
    return {"complete_multipartite": list(mp) if mp else None,
            "clique_union": list(cu) if cu else None}


# analyze check -> (verdict key of a graph without the structure, certificate of g)
ANALYSES = {
    "drg": ("distance_regular", lambda g, labels: {
        "distance_regular": True, "intersection_array": graphs.intersection_array(g).to_dict()}),
    "antipodal": ("antipodal", _antipodal),
    "deza": ("deza", lambda g, labels: graphs.deza_check(g).to_dict()),
    "ddg": ("ddg", lambda g, labels: graphs.ddg_check(g, labels).to_dict()),
    "spectrum": (None, lambda g, labels: {
        str(c): n for c, n in sorted(graphs.common_neighbor_spectrum(g).items())}),
    "multipartite": (None, _multipartite),
}


def cmd_analyze(args) -> int:
    g = _read_input(args.input, args.format)
    if g is None:
        return EXIT_USAGE
    checks = [c.strip() for c in args.check.split(",") if c.strip()]
    bad = set(checks) - set(ANALYSES)
    if bad:
        print(f"unknown checks: {sorted(bad)}", file=sys.stderr)
        return EXIT_USAGE
    labels = None
    if "ddg" in checks:
        try:
            labels = _partition_for(args)
        except (OSError, ValueError, RecursionError) as e:
            print(f"error reading partition: {e}", file=sys.stderr)
            return EXIT_USAGE
        if labels is None:
            print("ddg check needs --partition or a sidecar meta file", file=sys.stderr)
            return EXIT_USAGE
    out: dict = {"schema": pipeline.SCHEMA, "v": g.v, "edges": g.edge_count()}
    for check in checks:
        key, certify = ANALYSES[check]
        try:
            out[check] = certify(g, labels)
        except graphs.Disconnected as e:
            out[check] = {key: False, "error": f"disconnected: {e}"}
        except (graphs.NotDistanceRegular, graphs.NotAntipodal) as e:
            out[check] = {key: False, "witness": e.witness}
        except (graphs.NotRegular, graphs.MoreThanTwoValues, graphs.PartitionNotUniform) as e:
            out[check] = {key: False, "error": str(e)}
    _out_text(args, json.dumps(out, indent=2) + "\n")
    return EXIT_PASS


def _partition_for(args):
    """Class labels from --partition or the sidecar, None if neither has
    any; ValueError unless they are a JSON list of int64 integers."""
    if args.partition:
        with open(args.partition) as f:
            labels = json.load(f)
    else:
        meta_path = args.input + ".meta.json"
        if not os.path.exists(meta_path):
            return None
        with open(meta_path) as f:
            meta = json.load(f)
        labels = meta.get("sylow_labels") if isinstance(meta, dict) else None
        if labels is None:
            return None
    bounds = np.iinfo(np.int64)
    if not (isinstance(labels, list)
            and all(type(x) is int and bounds.min <= x <= bounds.max for x in labels)):
        raise ValueError("partition must be a JSON list of integer labels within int64")
    return labels


def _cached_verdict(path: str, family: str, n: int) -> str:
    """'pass' or 'FAIL' from a cached certificate of this row, 'unverified'
    unless it is one: schema, family, n, q and class size must be the row's
    and, for a pass, the chi array the predicted one."""
    q = 1 << n
    row = {"schema": pipeline.SCHEMA, "family": family, "n": n, "q": q,
           "class_size": formulas.class_size(family, q)}
    try:
        with open(path) as f:
            data = json.load(f)
        if any(data[key] != want for key, want in row.items()):
            return "unverified"
        if data["status"] != "pass":
            return "FAIL"
        array = data["chi_graph"]["intersection_array"]
    except (OSError, ValueError, RecursionError, KeyError, TypeError):
        return "unverified"
    return "pass" if array == formulas.predicted_chi_array(family, q).to_dict() else "unverified"


def cmd_report(args) -> int:
    bounds = {"psl2": args.psl2_max_n, "sz": args.sz_max_n, "psu3": args.psu3_max_n}
    lines = []
    header = (f"{'family':6} {'q':>6} {'v':>8} {'k':>8} {'b':>10} {'a':>10} "
              f"{'array':28} {'verified':8}")
    lines.append(header)
    lines.append("-" * len(header))
    for family in FAMILIES:
        start = 3 if family == "sz" else 2
        step = 2 if family == "sz" else 1
        for n in range(start, bounds[family] + 1, step):
            q = 1 << n
            v, kk, b, a = formulas.predicted_deza_params(family, q)
            arr = formulas.predicted_chi_array(family, q)
            verified = ""
            if args.cache:
                path = pipeline.report_path(args.cache, family, n)
                if os.path.exists(path):
                    verified = _cached_verdict(path, family, n)
            lines.append(f"{family:6} {q:>6} {v:>8} {kk:>8} {b:>10} {a:>10} "
                         f"{str(arr):28} {verified:8}")
    _out_text(args, "\n".join(lines) + "\n")
    return EXIT_PASS


def cmd_export(args) -> int:
    g = _read_input(args.input, args.informat)
    if g is None:
        return EXIT_USAGE
    fmt = write_graph(args.out, g, args.format)
    print(f"wrote {args.out} ({fmt})")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fgl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a fusion graph and write it to disk")
    _family_arg(p)
    p.add_argument("--pi", choices=["chi", "odd-complement"], default="chi")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "graph6"])
    cache_file = f"<family>-n<N>-v{pipeline.CODE_VERSION}.npy"
    p.add_argument("--cache", help=f"class cache directory: {cache_file} is read once "
                                    "proven to be the class, else built and written")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    _family_arg(p)
    p.add_argument("--out")
    p.add_argument("--cache", help="class cache directory, as for construct; the "
                                    "certificate is written there too, for report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="run checks on an imported graph")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--check", required=True,
                   help="comma list: drg,antipodal,deza,ddg,spectrum,multipartite")
    p.add_argument("--format", choices=["json", "graph6"])
    p.add_argument("--partition", help="JSON file with vertex class labels (for ddg)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="tabulate predicted parameters")
    p.add_argument("--psl2-max-n", type=int, default=4)
    p.add_argument("--sz-max-n", type=int, default=5)
    p.add_argument("--psu3-max-n", type=int, default=3)
    p.add_argument("--cache", help="directory of verify --cache certificates, "
                                    "to mark the rows they confirm")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="convert a graph file between formats")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--informat", choices=["json", "graph6"])
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "graph6"])
    p.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    problem = _unwritable(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except InvalidQ as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (groups.GeneratorValidationFailed, groups.ClassSizeMismatch,
            groups.SeedNotInvolution, groups.OrderCapExceeded) as e:
        print(f"construction error: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except MemoryError as e:
        print(f"construction error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
