"""Benchmark of jetmorse, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports jetmorse from ``src/`` (set-up, repeated and timed), then runs
passes of the workload for ``--seconds`` seconds.  A pass runs the
workload's operations at one worker and at ``nproc`` workers and checks
every output; outputs must also repeat byte for byte across phases and
passes.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
holds the per-layer metrics, taken from a traced run that follows an
untraced one of the same length.  Earlier lines give the machine record and
every metric by name and unit; a JSON report (and, when tracing, the spans)
is written under ``.bench_out/``.  The exit code is 0 only when every
output is correct; a checkout without ``src/jetmorse`` exits 2.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "curvature", "hermitian", "jet_combinatorics", "models", "morse_mc", "wps")
SETUP_REPS = 15
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# p90 of point-study time has at least ten studies beyond it
MIN_POINT_STUDIES = 100


class Failed:
    def __init__(self, msg: str):
        self.msg = msg


def import_fresh():
    """Import jetmorse's modules as a new process would, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "jetmorse" or m.startswith("jetmorse.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module("jetmorse." + m) for m in MODULES})


def setup(wl, seed: int):
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        jm = import_fresh()
        wl.prepare(jm, seed, str(OUT))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), jm


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a raising operation is a failed operation
        traceback.print_exc()
        return Failed(f"raised {exc!r}")


def run_phase(wl, workers: int):
    wl.before_phase()
    ops = wl.ops(workers)
    t0 = time.perf_counter()
    if wl.pool_ops and workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            outs = list(pool.map(_attempt, [fn for _, fn in ops]))
    else:
        outs = [_attempt(fn) for _, fn in ops]
    wall = time.perf_counter() - t0
    return wall, wl.core_s(wall), dict(zip([name for name, _ in ops], outs))


def _check(wl, op: str, out):
    try:
        return wl.check(op, out)
    except Exception as exc:  # output too damaged to parse is a wrong output
        return f"{op}: unreadable output ({exc!r})"


def run_pass(wl, ref: dict, errors: list) -> dict:
    cpu0, t0 = time.process_time(), time.perf_counter()
    w1_wall, w1_core, w1_out = run_phase(wl, 1)
    wn_wall, wn_core, wn_out = run_phase(wl, workloads.NPROC)
    rec = {"wall": time.perf_counter() - t0, "cpu": time.process_time() - cpu0,
           "w1_core": w1_core, "wn_wall": wn_wall, "wn_core": wn_core,
           "attempted": 0, "failed": 0}
    for outs in (w1_out, wn_out):
        for op, out in outs.items():
            rec["attempted"] += 1
            msg = out.msg if isinstance(out, Failed) else _check(wl, op, out)
            if msg is None:
                # the first correct output of an op is the one all others must equal
                if ref.setdefault(op, out) != out:
                    msg = f"{op}: output differs between runs or worker counts"
            if msg is not None:
                rec["failed"] += 1
                errors.append(msg)
    return rec


def run_passes(wl, ref, errors, seconds: float, min_passes: int):
    """Passes until another one would end after ``seconds``, and at least ``min_passes``."""
    passes = []
    t0 = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - t0 + passes[-1]["wall"] <= seconds):
        passes.append(run_pass(wl, ref, errors))
    return passes


class ThreadSampler:
    """Peak thread count of this process, polled from /proc/self/status."""

    def __init__(self, interval: float = 0.02):
        self.peak = 0
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            with open("/proc/self/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Threads:"):
                        self.peak = max(self.peak, int(line.split()[1]))
            self._stop.wait(self._interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _blas() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = os.path.basename(path)
                return info
    return info


def machine() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    model = None
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": workloads.NPROC, "cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
            "JETMORSE_THREADS": os.environ.get("JETMORSE_THREADS"),
            "commit": commit, "src_digest": h.hexdigest()}


def e2e_metrics(wl, passes, setup_s: float, peak_rss_mb: float, correct_frac: float) -> dict:
    """End-to-end metrics of an untraced run: medians over its passes.

    ``scaling_eff`` is the median of the per-pass ratio, so both of its
    phases see the same state of a shared host.
    """
    med = lambda f: statistics.median(f(p) for p in passes)
    return {
        "wall_s": med(lambda p: p["wn_wall"]),
        "setup_s": setup_s,
        "items_per_s": med(lambda p: wl.items / p["wn_core"]),
        "items_per_s_w1": med(lambda p: wl.items / p["w1_core"]),
        "scaling_eff": med(lambda p: p["w1_core"] / (workloads.NPROC * p["wn_core"])),
        "peak_rss_mb": peak_rss_mb,
        "correct_frac": correct_frac,
    }


def traced_metrics(wl, jm, ref, errors, seconds: float, untraced) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, jm)
    for attr in getattr(wl, "integrands", ()):
        patches.set(wl, attr, tracer.tally(getattr(wl, attr), "wps.integrand"))
    per_pass, passes = [], []
    studies = lambda: sum(1 for s in tracer.spans if s[1] == "morse_mc.point_study")
    enough = lambda: (len(per_pass) >= MIN_TRACED_PASSES
                      and (studies() == 0 or studies() >= MIN_POINT_STUDIES))
    t0 = time.perf_counter()
    try:
        while time.perf_counter() - t0 < seconds or not enough():
            first, counts = len(tracer.spans), tracer.snapshot()
            passes.append(run_pass(wl, ref, errors))
            delta = tracer.snapshot()
            delta.subtract(counts)
            per_pass.append(tracing.pass_metrics(tracer.spans[first:], delta))
    finally:
        patches.undo()
    for name in tracing.EXACT:
        values = {p[name] for p in per_pass if name in p}
        if len(values) > 1:
            errors.append(f"exact counter {name} differs between passes: {sorted(values)}")
    out = {name: per_pass[0][name] if name in tracing.EXACT
           else statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    p50, p90, count = tracing.point_study_percentiles(tracer.spans)
    out["morse_mc.point_study.s_p50"], out["morse_mc.point_study.s_p90"] = p50, p90
    weights = [pt.weight for pt in wl.sample.points] if hasattr(wl, "sample") else []
    out["models.fermat.ess_ratio"] = (sum(weights) ** 2 / sum(w * w for w in weights)
                                      / len(weights) if weights else 0.0)
    out["trace.overhead_frac"] = (statistics.median(p["wall"] for p in passes)
                                  / statistics.median(p["wall"] for p in untraced) - 1)
    print(f"traced passes {len(passes)}, point studies {count}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-seed{wl.seed}-spans.jsonl")
    return out, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jetmorse" / "__init__.py").is_file():
        print(f"no jetmorse sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    wl = workloads.make(args.workload)
    setup_s, jm = setup(wl, args.seed)
    if Path(jm.cli.__file__).resolve().parent != SRC / "jetmorse":
        print(f"jetmorse imported from {jm.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ref, errors = {}, []
    if args.trace:
        with ThreadSampler() as sampler:
            passes = run_passes(wl, ref, errors, args.seconds / 2, MIN_TRACED_PASSES)
        metrics, traced = traced_metrics(wl, jm, ref, errors, args.seconds / 2, passes)
        metrics["proc.cpu_s"] = statistics.median(p["cpu"] for p in passes)
        metrics["proc.threads_peak"] = sampler.peak - 1  # not counting the sampler
        passes += traced
    else:
        passes = run_passes(wl, ref, errors, args.seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if hasattr(wl, "oracle"):
        # the independent check runs once, after timing, on the reference output
        oracle = wl.oracle(ref)
        errors += oracle
        attempted, failed = attempted + 1, failed + bool(oracle)
    if not args.trace:
        metrics = e2e_metrics(wl, passes, setup_s, peak_rss_mb, (attempted - failed) / attempted)
    errors += [f"metric {n} is not declared in BENCHMARK.json" for n in metrics if n not in units]
    errors += [f"declared metric {n} was not measured" for n in units
               if n not in metrics and (n in tracing.LAYER_MAP) == bool(args.trace)]

    for msg in errors:
        print(f"FAILED {msg}", file=sys.stderr)
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units.get(name, '?')}")
    print(f"error_rate {failed / attempted!r} 1")
    print(f"passes {len(passes)} attempted {attempted} failed {failed}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units.get(n, "?")} for n, v in metrics.items()}}
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "setup_s": setup_s, "passes": passes,
              "errors": errors, "result": result,
              "layer_map": tracing.LAYER_MAP if args.trace else None}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
