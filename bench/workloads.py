"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``prepare`` (timed as part
of set-up), lists the operations of one phase in ``ops``, and checks every
operation's output in ``check``.  A pass runs the operations once with one
worker and once with ``nproc`` workers: the morse workloads hand the worker
count to jetmorse's own thread pool, the others spread their independent
operations over a pool of that size.  Sizes are fixed per workload so that
the seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

NPROC = len(os.sched_getaffinity(0))

# |z| above this fails a Monte-Carlo estimate checked against a closed form
Z_BOUND = 6.0


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _frac_digest(v) -> str:
    # str() of a rational with more than 4300 digits raises ValueError
    return _digest(v.numerator.to_bytes((v.numerator.bit_length() + 8) // 8, "little", signed=True),
                   v.denominator.to_bytes((v.denominator.bit_length() + 7) // 8, "little"))


def _no_constants(token):
    raise ValueError(f"non-finite value {token} in JSON output")


class Morse:
    """``jetmorse morse`` through ``jetmorse.cli.main``, one study per phase."""

    pool_ops = False

    def __init__(self, name, model, k_list, samples):
        self.name = name
        self.model, self.k_list, self.samples = model, k_list, samples
        self.study_s = 0.0

    def prepare(self, jm, seed: int, out_dir) -> None:
        self.jm, self.seed, self.out_dir = jm, seed, out_dir
        self.spec = dict(self.model, seed=seed)
        self.sample = jm.models.build_sample(self.spec)
        self.q_list = list(range(self.sample.n + 1))
        self.items = len(self.sample.points) * self.samples * len(self.k_list)
        study = jm.cli.convergence_study

        def timed_study(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return study(*args, **kwargs)
            finally:
                self.study_s += time.perf_counter() - t0

        jm.cli.convergence_study = timed_study

    def before_phase(self) -> None:
        self.study_s = 0.0

    def core_s(self, phase_wall: float) -> float:
        return self.study_s

    def ops(self, workers: int):
        out = os.path.join(self.out_dir, f"{self.name}-{os.getpid()}-w{workers}")
        argv = ["morse", "--model", json.dumps(self.spec),
                "--k-list", ",".join(map(str, self.k_list)), "--q", "all",
                "--samples", str(self.samples), "--seed", str(self.seed),
                "--out", out, "--workers", str(workers)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.jm.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"jetmorse morse exited {rc}")
            with open(out + ".csv", "rb") as fh:
                csv = fh.read()
            with open(out + ".json", "rb") as fh:
                js = fh.read()
            return csv, js

        return [("morse", run)]

    def check(self, op: str, output) -> str | None:
        csv, js = output
        lines = csv.decode().splitlines()
        want = len(self.k_list) * len(self.q_list)
        if len(lines) != want + 1:
            return f"CSV has {len(lines) - 1} rows, want {want}"
        for line in lines[1:]:
            if not all(math.isfinite(float(v)) for v in line.split(",")):
                return f"non-finite CSV value in {line!r}"
        try:
            rows = json.loads(js, parse_constant=_no_constants)["rows"]
        except ValueError as exc:
            return str(exc)
        if [(r["k"], r["q"]) for r in rows] != [(k, q) for k in self.k_list for q in self.q_list]:
            return "JSON rows do not cover k_list x q"
        return None

    def oracle(self, ref: dict) -> list[str]:
        """Compare the study with an independent Monte-Carlo estimate.

        The reference draws from its own numpy stream and assembles the
        forms with a plain einsum, so it shares no code with the kernel
        under test.  Estimates must agree within Z_BOUND combined standard
        errors; the limiting eta integral must agree to 1e-9.
        """
        if "morse" not in ref:
            return []  # no correct output: the failed studies are already counted
        rows = {(r["k"], r["q"]): r for r in json.loads(ref["morse"][1])["rows"]}
        ref_est, ref_var = _reference_study(self.sample, self.k_list, self.q_list,
                                            self.samples, self.seed)
        errors = []
        for key, row in rows.items():
            se = math.hypot(row["std_error"], math.sqrt(ref_var[key]))
            diff = abs(row["reduced_estimate"] - ref_est[key])
            if diff > Z_BOUND * se + 1e-12 * max(1.0, abs(ref_est[key])):
                errors.append(f"estimate {key} = {row['reduced_estimate']!r}, "
                              f"reference {ref_est[key]!r} +- {se:.3g}")
            eta_ref = _eta_integral(self.sample, key[1])
            if abs(row["eta_integral"] - eta_ref) > 1e-9 * max(1.0, abs(eta_ref)):
                errors.append(f"eta_integral {key} = {row['eta_integral']!r}, want {eta_ref!r}")
        return errors


def _signed_det(lam, q, tol=1e-9):
    n = lam.shape[-1]
    minus = np.sum(lam < -tol, axis=-1)
    plus = np.sum(lam > tol, axis=-1)
    return np.where((minus == q) & (plus == n - q), np.prod(lam, axis=-1), 0.0)


def _eta_integral(sample, q: int) -> float:
    terms = [p.weight * float(_signed_det(np.linalg.eigvalsh(np.einsum("ijaa->ij", p.tensor.c)), q))
             for p in sample.points]
    return math.fsum(terms)


def _reference_study(sample, k_list, q_list, n_samples, seed):
    rng = np.random.default_rng([seed, 0x6D6F727365])
    est = dict.fromkeys([(k, q) for k in k_list for q in q_list], 0.0)
    var = dict.fromkeys(est, 0.0)
    k_max = max(k_list)
    for p in sample.points:
        c = p.tensor.c
        r = c.shape[2]
        g = rng.gamma(r, size=(n_samples, k_max))
        z = rng.standard_normal((n_samples, k_max, r, 2)).view(complex)[..., 0]
        u = z / np.linalg.norm(z, axis=-1, keepdims=True)
        for k in k_list:
            x = g[:, :k] / g[:, :k].sum(axis=1, keepdims=True) / np.arange(1, k + 1)
            forms = np.einsum("ms,msa,msb,ijab->mij", x, u[:, :k], u[:, :k].conj(), c)
            lam = np.linalg.eigvalsh(forms)
            for q in q_list:
                vals = _signed_det(lam, q)
                est[(k, q)] += p.weight * float(vals.mean())
                var[(k, q)] += p.weight ** 2 * float(vals.var(ddof=1)) / n_samples
    return est, var


class Fiber:
    """``integrate_fiber`` (finite p, constant integrand) and ``integrate_fiber_limit``."""

    pool_ops = True
    integrands = ("one", "z1sq")
    weights, mults = (1, 2, 3), (2, 1, 1)
    ops_per_kind = 2
    samples = 20000

    name = "fiber-volume"

    def prepare(self, jm, seed: int, out_dir) -> None:
        self.jm, self.seed = jm, seed
        self.w = jm.wps.WeightSpec(self.weights, self.mults)
        self.volume = float(jm.wps.volume_closed_form(self.w))
        self.items = 2 * self.ops_per_kind * self.samples
        self.one = lambda z: 1.0
        self.z1sq = lambda z: abs(z[0][0]) ** 2

    def before_phase(self) -> None:
        pass

    def core_s(self, phase_wall: float) -> float:
        return phase_wall

    def ops(self, workers: int):
        wps, w, n = self.jm.wps, self.w, self.samples
        out = []
        for i in range(self.ops_per_kind):
            s = self.seed * 100 + i
            out.append((f"fiber-{i}", lambda s=s: wps.integrate_fiber(w, self.one, n, s)))
            out.append((f"limit-{i}", lambda s=s: wps.integrate_fiber_limit(w, self.z1sq, n, s)))
        return out

    def check(self, op: str, output) -> str | None:
        est, se = output
        # E f = 1 for the volume; E |z_1[0]|^2 = 1/r_1 on the unit sphere of C^{r_1}
        want = self.volume if op.startswith("fiber") else self.volume / self.mults[0]
        if not (math.isfinite(est) and math.isfinite(se) and se > 0):
            return f"{op}: estimate {est!r} +- {se!r}"
        if abs(est - want) > Z_BOUND * se:
            return f"{op}: estimate {est!r} +- {se!r}, closed form {want!r}"
        return None


class Certify:
    """Exact certificates: I(k,r,n) brackets, the epsilon bound, the det-diff lemma."""

    pool_ops = True
    name = "certify"
    det_pairs = 100  # per dimension 1..6, every q in 0..dim
    ln_k_min = 106.88

    def prepare(self, jm, seed: int, out_dir) -> None:
        self.jm, self.seed = jm, seed
        rng = np.random.default_rng([seed, 0x63657274])
        off = [int(v) for v in rng.integers(0, 8, size=3)]
        self.grid = [(k, r, n) for k in (40 + off[0], 400 + off[1], 2000 + off[2])
                     for r in (1, 2, 3) for n in (2, 4, 6)]
        self.eps = [(k, r, 2) for k in (150, int(rng.integers(151, 300)), 300) for r in (1, 2)]
        self.eps.append((22027, 1, 3))  # ceil(e^10): the smallest k the n=3 bound covers
        self.pairs = {}
        for dim in range(1, 7):
            pairs = []
            for _ in range(self.det_pairs):
                a, b = (rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim)))
                pairs.append((jm.hermitian.HermitianForm(0.5 * (a + a.conj().T)),
                              jm.hermitian.HermitianForm(0.5 * (b + b.conj().T))))
            self.pairs[dim] = pairs
        self.items = (len(self.grid) + len(self.eps) + 1
                      + self.det_pairs * sum(d + 1 for d in self.pairs))

    def before_phase(self) -> None:
        # a fresh CLI process starts with an empty harmonic-number cache
        self.jm.jet_combinatorics.harmonic.cache_clear()

    def core_s(self, phase_wall: float) -> float:
        return phase_wall

    def ops(self, workers: int):
        jc, herm = self.jm.jet_combinatorics, self.jm.hermitian
        out = []
        # longest first, so the pool does not end on it
        for k, r, n in self.eps[::-1]:
            def eps(k=k, r=r, n=n):
                e = jc.epsilon_ratio(k, r, n)
                return e.exact, e.paper_bound, e.within_bound, _frac_digest(e.exact_squared)
            out.append((f"eps-{k}-{r}-{n}", eps))
        for k, r, n in self.grid:
            def ikrn(k=k, r=r, n=n):
                exact = jc.ikrn_exact(k, r, n)
                lo, hi = jc.ikrn_bounds(k, r, n)
                return lo <= exact <= hi, exact > 0, _frac_digest(exact)
            out.append((f"ikrn-{k}-{r}-{n}", ikrn))
        for dim, pairs in self.pairs.items():
            def det_diff(dim=dim, pairs=pairs):
                return sum(not herm.det_diff_bound_holds(a, b, q)
                           for a, b in pairs for q in range(dim + 1))
            out.append((f"detdiff-{dim}", det_diff))

        def ci():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.jm.cli.main(["ci-threshold", "--n", "2", "--s", "1", "--degrees", "15",
                                       "--a", "1", "--k", "200"])
            if rc != 0:
                raise RuntimeError(f"jetmorse ci-threshold exited {rc}")
            return buf.getvalue()
        out.append(("ci-threshold", ci))
        return out

    def check(self, op: str, output) -> str | None:
        if op.startswith("eps"):
            exact, bound, within, _ = output
            # every k here is at least e^(5n-5), where the bound is a theorem
            if not (within and 0 < exact <= bound):
                return f"{op}: epsilon {exact!r} vs bound {bound!r}, within_bound={within}"
        elif op.startswith("ikrn"):
            inside, positive, _ = output
            if not (inside and positive):
                return f"{op}: exact value outside ikrn_bounds"
        elif op.startswith("detdiff"):
            if output:
                return f"{op}: {output} det-diff checks failed"
        else:
            fields = dict(line.split() for line in output.splitlines())
            ln_k = float(fields["ln_k_min"])
            if abs(ln_k - self.ln_k_min) > 0.01:
                return f"{op}: ln_k_min {ln_k!r}, want {self.ln_k_min} +- 0.01"
        return None


def make(name: str):
    if name == "morse-random":
        # criterion-9 shape: kernel-bound, four k share one draw, n=2
        return Morse(
            name, {"type": "random", "n": 2, "r": 2, "points": 16, "scale": 1.0},
            [4, 8, 16, 32], 4096)
    if name == "morse-fermat":
        # many short point studies: per-point overhead, pool scheduling,
        # importance weights; one k (no k reuse) and n=3
        return Morse(
            name, {"type": "fermat", "n": 3, "d": 5, "points": 64},
            [12], 1024)
    if name == "fiber-volume":
        return Fiber()
    if name == "certify":
        return Certify()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ["morse-random", "morse-fermat", "fiber-volume", "certify"]
