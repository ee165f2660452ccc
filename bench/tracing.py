"""In-memory span tracer for the traced benchmark run.

The traced run swaps, for its own duration, the module-level names through
which one jetmorse layer calls the next (``jetmorse.morse_mc.g_k_batch``,
``numpy.linalg.eigvalsh``, ``jetmorse.hermitian.eigenvalues``, ...) for
wrappers that record a span around each call.  Nothing under ``src/`` is
edited; :meth:`Patches.undo` puts every original back.

A span is ``[id, name, start, end, parent, thread, tag]``: ``parent`` is the
id of the span open on the same thread when it started, ``tag`` carries the
few call arguments a metric needs (workers, n and k).  Spans stay in memory
and are written out when the run ends.  The self time of a span is its
duration minus the durations of the spans nested directly in it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# per-layer metric -> (end-to-end metric it should move, workloads that exercise it)
LAYER_MAP = {
    "rng.gamma.s": ("items_per_s", "morse-random"),
    "measures.sample_sphere_batch.s": ("items_per_s", "morse-random, fiber-volume"),
    "measures.sample_sphere_batch.vectors": ("items_per_s", "morse-random, fiber-volume"),
    "curvature.g_k_batch.s": ("items_per_s", "morse-random >> morse-fermat"),
    "curvature.g_k_batch.rows": ("items_per_s", "morse-random >> morse-fermat"),
    "curvature.g_k_batch.gflop_computed": ("items_per_s", "morse-random >> morse-fermat"),
    "linalg.eigvalsh.s": ("items_per_s", "morse-random (n=2), morse-fermat (n=3)"),
    "linalg.eigvalsh.rows": ("items_per_s", "morse-random (n=2), morse-fermat (n=3)"),
    "hermitian.det_diff_bound_holds.s": ("wall_s", "certify"),
    "hermitian.eigenvalues.per_check": ("wall_s", "certify"),
    "morse_mc.index_stats.s": ("items_per_s", "morse-random, morse-fermat"),
    "morse_mc.point_study.self_s": ("items_per_s", "morse-random, morse-fermat"),
    "morse_mc.point_study.s_p50": ("wall_s", "morse-fermat"),
    "morse_mc.point_study.s_p90": ("wall_s", "morse-fermat"),
    "morse_mc.pool.busy_frac": ("scaling_eff", "morse-random"),
    "morse_mc.reduce.s": ("wall_s", "morse-fermat"),
    "morse_mc.degenerate_rows": ("items_per_s", "morse-random, morse-fermat"),
    "morse_mc.useful_row_ratio": ("items_per_s", "morse-random, morse-fermat"),
    "models.build_sample.s": ("setup_s", "morse-fermat"),
    "models.fermat.ess_ratio": ("correct_frac", "morse-fermat"),
    "wps.integrate_fiber.s": ("items_per_s", "fiber-volume"),
    "wps.integrate_fiber_limit.s": ("items_per_s", "fiber-volume"),
    "wps.integrand.calls": ("items_per_s", "fiber-volume"),
    "wps.integrand.s": ("items_per_s", "fiber-volume"),
    "wps.loop_self_s": ("items_per_s", "fiber-volume"),
    "jet_combinatorics.ikrn_exact.s": ("wall_s", "certify"),
    "jet_combinatorics.ikrn_exact.calls": ("wall_s", "certify"),
    "jet_combinatorics.ikrn_bounds.s": ("wall_s", "certify"),
    "jet_combinatorics.epsilon_ratio.n2_kmax.s": ("wall_s", "certify"),
    "jet_combinatorics.epsilon_ratio.n3_kmax.s": ("wall_s", "certify"),
    "cli.write.s": ("wall_s", "morse-random, morse-fermat"),
    "proc.cpu_s": ("scaling_eff", "all"),
    "proc.threads_peak": ("scaling_eff", "all"),
    "trace.overhead_frac": ("none: the cost of tracing", "all"),
}

# counts that must repeat exactly between two passes of the same code
EXACT = [
    "measures.sample_sphere_batch.vectors", "curvature.g_k_batch.rows",
    "curvature.g_k_batch.gflop_computed", "linalg.eigvalsh.rows",
    "hermitian.eigenvalues.per_check", "morse_mc.degenerate_rows",
    "wps.integrand.calls", "jet_combinatorics.ikrn_exact.calls",
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies = []

    def count(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, fn, name: str, counts=None, tag=None):
        """``fn`` recording a span per call; ``counts(args, result)`` adds counters."""
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [next(ids), name, 0.0, 0.0, stack[-1][0] if stack else None,
                   threading.get_ident(), tag(args, kwargs) if tag else None]
            stack.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                spans.append(rec)
            if counts is not None:
                for key, value in counts(args, out).items():
                    self.count(key, value)
            return out

        return traced

    def tally(self, fn, name: str):
        """``fn`` adding its calls and seconds to per-thread sums, without a span.

        Used for per-sample integrands, where a span per call would hold
        hundreds of thousands of records; :meth:`snapshot` folds the sums
        into the counters as ``name.calls`` and ``name.s``.
        """
        local = self._local

        @functools.wraps(fn)
        def tallied(*args):
            acc = getattr(local, name, None)
            if acc is None:
                acc = [0, 0.0]
                setattr(local, name, acc)
                with self._lock:
                    self._tallies.append((name, acc))
            t0 = time.perf_counter()
            out = fn(*args)
            acc[1] += time.perf_counter() - t0
            acc[0] += 1
            return out

        return tallied

    def snapshot(self) -> Counter:
        with self._lock:
            out = self.counts.copy()
            for name, (calls, secs) in self._tallies:
                out[name + ".calls"] += calls
                out[name + ".s"] += secs
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _TracedGenerator:
    """A numpy Generator whose ``gamma`` draws are traced."""

    def __init__(self, gen, gamma):
        self._gen = gen
        self.gamma = gamma

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Patches:
    def __init__(self):
        self._saved = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def _rows(a) -> int:
    return int(np.prod(np.shape(a)[:-2]))


def _g_k_counts(args, out):
    x, u = args[1], args[2]
    m, k = x.shape
    n, r = out.shape[-1], u.shape[-1]
    # nominal flops of the current einsum: outer products u u* (6 per complex
    # product), the weighted sum over s (4 per real-by-complex multiply-add),
    # and the (m, r^2) x (r^2, n^2) complex contraction (8 per multiply-add)
    flops = m * (10 * k * r * r + 8 * r * r * n * n)
    return {"curvature.g_k_batch.rows": m,
            "curvature.g_k_batch.flop": flops}


def _index_counts(args, out):
    return {"morse_mc.index_rows": args[0].shape[0],
            "morse_mc.degenerate_rows": out[1]}


def install(tracer: Tracer, jm) -> Patches:
    """Wrap every traced call site of the modules in namespace ``jm``."""
    p = Patches()
    w = tracer.wrap

    def traced_stream(orig):
        def stream(*args):
            gen = orig(*args)
            return _TracedGenerator(gen, w(gen.gamma, "rng.gamma"))
        return stream

    sphere = lambda f: w(f, "measures.sample_sphere_batch", counts=lambda a, out: {
        "measures.sample_sphere_batch.vectors": int(np.prod(a[1]))})
    eps_tag = lambda a, kw: (a[2], a[0])  # (n, k)
    for mod in (jm.morse_mc, jm.wps):
        p.set(mod, "stream", traced_stream(mod.stream))
        p.set(mod, "sample_sphere_batch", sphere(mod.sample_sphere_batch))
    p.set(jm.morse_mc, "g_k_batch", w(jm.morse_mc.g_k_batch, "curvature.g_k_batch",
                                      counts=_g_k_counts))
    p.set(np.linalg, "eigvalsh", w(np.linalg.eigvalsh, "linalg.eigvalsh",
                                   counts=lambda a, out: {"linalg.eigvalsh.rows": _rows(a[0])}))
    p.set(jm.hermitian, "eigenvalues", w(jm.hermitian.eigenvalues, "hermitian.eigenvalues"))
    p.set(jm.hermitian, "det_diff_bound_holds",
          w(jm.hermitian.det_diff_bound_holds, "hermitian.det_diff_bound_holds"))
    p.set(jm.morse_mc, "_index_stats", w(jm.morse_mc._index_stats, "morse_mc.index_stats",
                                         counts=_index_counts))
    p.set(jm.morse_mc, "_point_study", w(jm.morse_mc._point_study, "morse_mc.point_study"))
    for mod in (jm.morse_mc, jm.jet_combinatorics):
        p.set(mod, "ikrn_exact", w(mod.ikrn_exact, "jet_combinatorics.ikrn_exact"))
    p.set(jm.jet_combinatorics, "ikrn_bounds",
          w(jm.jet_combinatorics.ikrn_bounds, "jet_combinatorics.ikrn_bounds"))
    for mod in (jm.jet_combinatorics, jm.cli):
        p.set(mod, "epsilon_ratio", w(mod.epsilon_ratio, "jet_combinatorics.epsilon_ratio",
                                      tag=eps_tag))
    p.set(jm.cli, "build_sample", w(jm.cli.build_sample, "models.build_sample"))
    p.set(jm.cli, "convergence_study", w(jm.cli.convergence_study, "morse_mc.convergence_study",
                                         tag=lambda a, kw: kw.get("workers")))
    p.set(jm.cli, "cmd_morse", w(jm.cli.cmd_morse, "cli.cmd_morse"))
    for name in ("integrate_fiber", "integrate_fiber_limit"):
        p.set(jm.wps, name, w(getattr(jm.wps, name), "wps." + name))
    return p


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def pass_metrics(spans, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass from its spans and counter deltas."""
    dur = defaultdict(float)
    child = defaultdict(float)
    by_id = {}
    for rec in spans:
        by_id[rec[0]] = rec
        dur[rec[1]] += rec[3] - rec[2]
        if rec[4] is not None:
            child[rec[4]] += rec[3] - rec[2]
    self_s = defaultdict(float)
    for rec in spans:
        self_s[rec[1]] += rec[3] - rec[2] - child[rec[0]]

    def under(rec, name):
        while rec[4] is not None and rec[4] in by_id:
            rec = by_id[rec[4]]
            if rec[1] == name:
                return True
        return False

    checks = sum(1 for r in spans if r[1] == "hermitian.det_diff_bound_holds")
    eig_in_checks = sum(1 for r in spans if r[1] == "hermitian.eigenvalues"
                        and under(r, "hermitian.det_diff_bound_holds"))
    studies = [r for r in spans if r[1] == "morse_mc.convergence_study"]
    points = [r for r in spans if r[1] == "morse_mc.point_study"]
    reduce_s, busy = 0.0, []
    for st in studies:
        inside = [(r[2], r[3]) for r in points if st[2] <= r[2] <= st[3]]
        reduce_s += (st[3] - st[2]) - _union(inside)
        workers = st[6] or 1
        if workers > 1:
            busy.append(sum(b - a for a, b in inside) / ((st[3] - st[2]) * workers))
    eps = defaultdict(float)
    kmax = {}
    for r in spans:
        if r[1] == "jet_combinatorics.epsilon_ratio":
            n, k = r[6]
            kmax[n] = max(kmax.get(n, 0), k)
    for r in spans:
        if r[1] == "jet_combinatorics.epsilon_ratio" and r[6][1] == kmax[r[6][0]]:
            eps[r[6][0]] += r[3] - r[2]
    index_rows = counts["morse_mc.index_rows"]
    wps_s = dur["wps.integrate_fiber"] + dur["wps.integrate_fiber_limit"]
    wps_self = self_s["wps.integrate_fiber"] + self_s["wps.integrate_fiber_limit"]
    return {
        "rng.gamma.s": dur["rng.gamma"],
        "measures.sample_sphere_batch.s": dur["measures.sample_sphere_batch"],
        "measures.sample_sphere_batch.vectors": counts["measures.sample_sphere_batch.vectors"],
        "curvature.g_k_batch.s": dur["curvature.g_k_batch"],
        "curvature.g_k_batch.rows": counts["curvature.g_k_batch.rows"],
        "curvature.g_k_batch.gflop_computed": counts["curvature.g_k_batch.flop"] / 1e9,
        "linalg.eigvalsh.s": dur["linalg.eigvalsh"],
        "linalg.eigvalsh.rows": counts["linalg.eigvalsh.rows"],
        "hermitian.det_diff_bound_holds.s": dur["hermitian.det_diff_bound_holds"],
        "hermitian.eigenvalues.per_check": eig_in_checks / checks if checks else 0,
        "morse_mc.index_stats.s": dur["morse_mc.index_stats"],
        "morse_mc.point_study.self_s": self_s["morse_mc.point_study"],
        "morse_mc.pool.busy_frac": statistics.median(busy) if busy else 0.0,
        "morse_mc.reduce.s": reduce_s,
        "morse_mc.degenerate_rows": counts["morse_mc.degenerate_rows"],
        "morse_mc.useful_row_ratio": ((index_rows - counts["morse_mc.degenerate_rows"])
                                      / index_rows if index_rows else 0.0),
        "models.build_sample.s": dur["models.build_sample"],
        "wps.integrate_fiber.s": dur["wps.integrate_fiber"],
        "wps.integrate_fiber_limit.s": dur["wps.integrate_fiber_limit"],
        "wps.integrand.calls": counts["wps.integrand.calls"],
        "wps.integrand.s": counts["wps.integrand.s"],
        "wps.loop_self_s": wps_self - counts["wps.integrand.s"] if wps_s else 0.0,
        "jet_combinatorics.ikrn_exact.s": dur["jet_combinatorics.ikrn_exact"],
        "jet_combinatorics.ikrn_exact.calls": sum(
            1 for r in spans if r[1] == "jet_combinatorics.ikrn_exact"),
        "jet_combinatorics.ikrn_bounds.s": dur["jet_combinatorics.ikrn_bounds"],
        "jet_combinatorics.epsilon_ratio.n2_kmax.s": eps[2],
        "jet_combinatorics.epsilon_ratio.n3_kmax.s": eps[3],
        "cli.write.s": self_s["cli.cmd_morse"],
    }


def point_study_percentiles(spans) -> tuple[float, float, int]:
    """(p50, p90, count) of point-study durations; p90 needs 100 spans for 10 beyond it."""
    d = sorted(r[3] - r[2] for r in spans if r[1] == "morse_mc.point_study")
    if not d:
        return 0.0, 0.0, 0
    q = statistics.quantiles(d, n=10, method="inclusive") if len(d) > 1 else [d[0]] * 9
    return statistics.median(d), q[8], len(d)
