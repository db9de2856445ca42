"""Run-to-run spread of the end-to-end metrics, from repeated runs.

    python3 perfbench/spread.py --workload verify-psl2-q32 --seeds 1-10

runs ``perfbench/run.py`` once per seed (one run at a time, untraced,
``run_seconds`` from BENCHMARK.json) from the checkout root and prints, for
each end-to-end metric, its median and the distance between the first and
third quartile as a share of the median, next to the metric's bound.
With ``--json`` the summary is written there too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--json", help="write the summary to this file")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode:
            print(f"seed {seed}: exit code {proc.returncode}\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k} {v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    summary = {}
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"], "values": vals}
        print(f"{m['name']:<12} median {med:.6g} {m['unit']}  spread {(q3 - q1) / med:.4f}  "
              f"bound {m['bound']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "metrics": summary},
                      f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
