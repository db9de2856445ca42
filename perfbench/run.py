"""Benchmark of the fgl package: time to certificate and pair throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-psl2-q32 --seed 1 --seconds 20 --trace 0

It imports the package from the checkout's ``src/``, sets the workload up,
runs closed-loop rounds (one after another, one process) for up to
``--seconds`` and gates every output (see gate.py).  Times are scaled to a
nominal host speed by a reference computation timed during every round and
around every set-up (see host.py).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports per-layer metrics from spans around the package's
functions (see spans.py), plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans and per-round data go to ``.perfbench_out/`` in the checkout.
The exit code is 0 only when every output passed the gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5          # set-up runs, each in a fresh process; the median is setup_s
CHILD_TIMEOUT_S = 150
STAGES = ("involution_class", "orders", "sylow", "chi_graph", "identities", "pi_graph", "total")
TAIL_BEYOND = 10           # the tail percentile has at least this many rounds beyond it


def steady_numpy_env() -> None:
    """Set before numpy loads: at most nproc backend threads, and no
    transparent huge pages for numpy arrays, whose availability on a shared
    host made peak RSS of one workload jump by 9% between identical runs."""
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= nproc
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(nproc)


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(ROOT, ".git", name)
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy
    from fgl import pipeline
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "code_version": pipeline.CODE_VERSION,
        "git_commit": git_commit(),
        "env": {var: os.environ.get(var)
                for var in THREAD_VARS + ("FGL_THREADS", "NUMPY_MADVISE_HUGEPAGE")},
    }


def source_hash() -> str:
    """Digest of the package and benchmark sources, keying the count record."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "fgl"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def setup(workload, seed: int, workdir: str, tracer=None):
    """Gate self-test, then the workload's set-up (traced when a tracer is given)."""
    import gate
    if tracer is not None:
        tracer.install()
    try:
        gate.self_test(workdir)
        return workload.setup(seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()


def setup_samples(args, ref) -> list[tuple[float, float]]:
    """(wall time from process start to ready, reference time around it)
    for fresh set-up processes."""
    import host
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    samples = []
    before = ref.measure(host.BOUNDARY_REPEATS)
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        after = ref.measure(host.BOUNDARY_REPEATS)
        samples.append((elapsed, (before + after) / 2))
        before = after
    return samples


def tail(values: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_counts(setup: dict, per_round: list[dict], key: str) -> list[str]:
    """Exact counts must repeat in every traced round, and the set-up's and
    first round's counts across traced runs with one seed and one source."""
    def diff(a, b):
        return {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
    problems = [f"exact counts of traced round {i} differ from the first: {diff(c, per_round[0])}"
                for i, c in enumerate(per_round) if c != per_round[0]]
    record = {"setup": setup, "round": per_round[0]}
    path = os.path.join(OUT, f"counts-{key}.json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        for part in record:
            if record[part] != before[part]:
                problems.append(f"exact {part} counts differ from an earlier run with this "
                                f"seed: {diff(record[part], before[part])}")
    else:
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    return problems


def layer_report(tracer, rounds, workload: str, seed: int):
    """(per-layer metrics, stage timings, problems) of a traced run.

    A per-layer value covers one set-up plus one traced round (the mean
    over traced rounds), so a layer that only the set-up uses still shows.
    Stage timings come from the certificates of the untraced rounds.
    """
    import spans
    buckets = spans.aggregate(tracer.spans)
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = [buckets.get(r["index"], {}) for r in traced]
    setup_b = buckets.get("setup", {})
    values = spans.layer_values(spans.setup_plus_round(setup_b, per_round))
    metrics = {name: (values[name], unit) for name, (unit, _) in spans.LAYER_METRICS.items()}
    t_traced = statistics.median(r["scaled_s"] for r in traced)
    t_plain = statistics.median(r["scaled_s"] for r in plain)
    metrics["trace.round_s"] = (t_traced, "s")
    metrics["trace.untraced_round_s"] = (t_plain, "s")
    metrics["trace.overhead_s"] = (t_traced - t_plain, "s")
    metrics["trace.overhead_share"] = ((t_traced - t_plain) / t_plain, "1")
    metrics["trace.spans_per_round"] = (statistics.fmean(
        sum(b["calls"] for b in r.values()) for r in per_round), "count")
    metrics["host.reference_s"] = (statistics.median(r["ref_s"] for r in rounds), "s")
    metrics["host.round_wall_s"] = (statistics.median(r["seconds"] for r in plain), "s")
    stages = {}
    if any(r["certificates"] for r in plain):
        stages = {f"pipeline.stage.{stage}_s": (statistics.fmean(
            sum(c.get("timings_ms", {}).get(stage, 0) for c in r["certificates"]) / 1000
            for r in plain), "s") for stage in STAGES}

    def counts(b):
        return {k: v for k, v in spans.layer_values(b).items() if k in spans.EXACT_COUNTS}
    problems = check_counts(counts(setup_b), [counts(b) for b in per_round],
                            f"{workload}-seed{seed}-{source_hash()}")
    return metrics, stages, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "fgl", "__init__.py")):
        print(f"error: no fgl package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    steady_numpy_env()
    sys.path.insert(0, SRC)
    # the package and numpy load only after steady_numpy_env
    import fgl
    if os.path.dirname(os.path.dirname(os.path.abspath(fgl.__file__))) != SRC:
        print(f"error: fgl was imported from {fgl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            setup(workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, workdir: str) -> int:
    import host
    import spans
    env = fingerprint()
    ref = host.Reference()
    setup_runs = setup_samples(args, ref)
    setup_s = [wall * host.REFERENCE_S / ref_s for wall, ref_s in setup_runs]
    tracer = spans.Tracer() if args.trace else None
    state = setup(workload, args.seed, workdir, tracer)

    rounds = []
    start = time.perf_counter()
    ref_before = ref.measure(host.BOUNDARY_REPEATS)
    min_rounds = 2  # a median of two at least; a traced run needs one of each kind
    # stop before a round that would end past --seconds, as the last one predicts
    while len(rounds) < min_rounds or (
            time.perf_counter() - start + rounds[-1]["wall_s"] <= args.seconds):
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        gc.collect()
        sampler = host.Sampler(ref)
        if traced:
            tracer.round = index
            tracer.install()
        sampler.start()
        t0, t0_wall = host.clock(), time.perf_counter()
        try:
            out = workload.run_round(state)
        finally:
            seconds, wall = host.clock() - t0, time.perf_counter() - t0_wall
            sampler.stop()
            if traced:
                tracer.uninstall()
        ref_after = ref.measure(host.BOUNDARY_REPEATS)
        ref_s = statistics.fmean([ref_before, *sampler.samples, ref_after])
        ref_before = ref_after
        rounds.append({"index": index, "traced": traced, "wall_s": wall,
                       "seconds": seconds, "ref_s": ref_s, "ref_samples": len(sampler.samples),
                       "scaled_s": seconds * host.REFERENCE_S / ref_s,
                       "attempted": out.attempted, "failed": out.failed,
                       "failures": out.failures,
                       "pairs": out.pairs, "certificates": out.certificates})

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    plain = [r["scaled_s"] for r in rounds if not r["traced"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "round_s": (statistics.median(plain), "s"),
        "pairs_per_s": (statistics.median(r["pairs"] / r["scaled_s"]
                                          for r in rounds if not r["traced"]), "pairs/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    problems, stages = [], {}
    if args.trace:
        metrics, stages, problems = layer_report(tracer, rounds, args.workload, args.seed)
    else:
        metrics = e2e
    correct = not failed and not problems

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  rounds {len(rounds)} ({len(plain)} untraced)")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# setup samples {[round(s, 4) for s in setup_s]} s at reference speed, "
          f"wall {[round(w, 4) for w, _ in setup_runs]} s")
    print(f"# host reference median {statistics.median(r['ref_s'] for r in rounds):.6g} s "
          f"(nominal {host.REFERENCE_S} s); untraced round median, wall time without "
          f"reference samples, {statistics.median(r['seconds'] for r in rounds if not r['traced']):.6g} s")
    for name, (value, unit) in e2e.items():
        print(f"{name:<12} {value:.6g} {unit}")
    t = tail(plain)
    if t:
        print(f"round_s_tail {t[0]:.6g} s (p{t[1]:.0f} of {len(plain)} rounds)")
    else:
        print(f"round_s_tail omitted: {len(plain)} rounds, needs more than {TAIL_BEYOND}")
    print(f"fail_ratio   {failed / attempted:.6g} 1 ({failed} of {attempted} "
          "operations)")
    for name, (value, unit) in stages.items():
        print(f"{name} {value:.6g} {unit} (certificate timings_ms, untraced rounds)")
    for problem in (failures + problems)[:20]:
        print(f"# FAIL {problem}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_samples_s": setup_s,
              "setup_wall_and_reference_s": setup_runs,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics | stages).items()},
              "rounds": [{k: r[k] for k in ("index", "traced", "wall_s", "seconds", "ref_s",
                                            "ref_samples", "scaled_s", "attempted", "failed",
                                            "pairs")}
                         for r in rounds],
              "failures": (failures + problems)[:100]}
    if tracer:
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.round, s.attrs]
                           for s in tracer.spans]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
