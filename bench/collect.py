"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                             [--seconds S] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, from the
root of the checkout.  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
``--out`` it writes the summary, the values of every run and one machine
record as JSON.  It exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=declared["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"] + declared["per_layer"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs, longest = [], 0.0
        for seed in seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            longest = max(longest, time.perf_counter() - t0)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            runs.append(json.loads(lines[-1]))
            report.setdefault("machine", json.loads(next(
                ln for ln in lines if ln.startswith("machine "))[len("machine "):]))
        if not runs:
            continue
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][wl] = {"runs": len(runs), "longest_run_s": longest,
                                   "metrics": metrics}
        print(f"== {wl}: {len(runs)} runs, longest {longest:.1f} s")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:44s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f" bound {bound}{flag}")
    if args.trace:
        sys.path.insert(0, str(ROOT / "bench"))
        from tracing import LAYER_MAP
        report["layer_map"] = LAYER_MAP
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
