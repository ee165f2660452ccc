import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from jetmorse import cli
from jetmorse.cli import main
from jetmorse.curvature import tensor_to_json
from jetmorse.jet_combinatorics import ikrn_exact
from jetmorse.measures import estimate, sample_nu_batch
from jetmorse.models import random_tensor
from jetmorse.morse_mc import _DRAW_BLOCK, _fmt, full_morse_constant
from jetmorse.rng import stream

MODEL = json.dumps({"type": "random", "n": 2, "r": 2, "points": 2,
                    "scale": 1.0, "seed": 9})


def _run(args):
    proc = subprocess.run([sys.executable, "-m", "jetmorse.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_wps_volume_basic(capsys):
    rc = main(["wps-volume", "--weights", "1,2,3", "--mults", "1,1,1",
               "--samples", "1000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closed_form 1/6" in out
    z = float(out.splitlines()[-1].split()[1])
    assert abs(z) <= 3.0


@pytest.mark.parametrize("est, z", [(0.2, "inf"), (0.1, "-inf"), (1 / 6, "0")])
def test_wps_volume_zero_std_error_z(est, z, monkeypatch, capsys):
    # a zero std error used to print z_score 0 whatever the estimate
    monkeypatch.setattr(cli, "integrate_fiber", lambda *args: (est, 0.0))
    assert main(["wps-volume", "--weights", "1,2,3", "--mults", "1,1,1",
                 "--samples", "10", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"z_score {z}"


def test_wps_volume_noncoprime_exit2():
    rc, _, err = _run(["wps-volume", "--weights", "2,4", "--mults", "1,1",
                       "--samples", "10", "--seed", "1"])
    assert rc == 2
    assert "coprime" in err


def test_wps_volume_non_finite_p_exit2():
    # --p nan used to pass validation and print a zero std_error
    rc, out, err = _run(["wps-volume", "--weights", "1,2", "--mults", "1,1",
                         "--p", "nan", "--samples", "10", "--seed", "1"])
    assert rc == 2
    assert "finite" in err and out == ""


def test_ikrn_exact(capsys):
    assert main(["ikrn", "--k", "2", "--r", "1", "--n", "1"]) == 0
    assert "exact 3/4" in capsys.readouterr().out


def test_ikrn_bounds_bracket(capsys):
    main(["ikrn", "--k", "5", "--r", "2", "--n", "3", "--mode", "bounds"])
    out = capsys.readouterr().out
    from fractions import Fraction
    lo = Fraction(out.splitlines()[0].split()[1])
    hi = Fraction(out.splitlines()[1].split()[1])
    from jetmorse.jet_combinatorics import ikrn_exact
    assert lo <= ikrn_exact(5, 2, 3) <= hi


def test_ikrn_mc_within_3se(capsys):
    main(["ikrn", "--k", "3", "--r", "1", "--n", "2", "--mode", "mc",
          "--samples", "50000", "--seed", "4"])
    out = capsys.readouterr().out.splitlines()
    est = float(out[0].split()[1])
    se = float(out[1].split()[1])
    from jetmorse.jet_combinatorics import ikrn_exact
    assert abs(est - float(ikrn_exact(3, 1, 2))) <= 3 * se


def test_ikrn_mc_std_error_is_estimate_of_its_draws(capsys):
    # the same stream, block size and (sum_s x_s / s)^n values, reduced by
    # measures.estimate: the printed std error is its, to the last digit
    k, r, n, samples, seed = 5, 2, 3, 3000, 9
    assert main(["ikrn", "--k", str(k), "--r", str(r), "--n", str(n), "--mode", "mc",
                 "--samples", str(samples), "--seed", str(seed)]) == 0
    rng = stream(seed, "ikrn-mc", k, r, n)
    w = 1.0 / np.arange(1, k + 1)
    mean, se = estimate(lambda first, m: (sample_nu_batch(k, r, m, rng) @ w) ** n,
                        samples, max(1, _DRAW_BLOCK // k))
    assert capsys.readouterr().out == f"estimate {_fmt(mean)}\nstd_error {_fmt(se)}\n"


def test_ikrn_mc_requires_seed():
    rc, _, err = _run(["ikrn", "--k", "3", "--r", "1", "--n", "2",
                       "--mode", "mc"])
    assert rc == 2


@pytest.mark.parametrize("bad", [
    ["--samples", "0"],
    ["--samples", "1"],
    ["--k", "0"],
    ["--r", "0"],
    ["--n", "-1"],
], ids=["samples0", "samples1", "k0", "r0", "n-1"])
def test_ikrn_mc_bad_input_exit2(bad, capsys):
    argv = {"--k": "3", "--r": "1", "--n": "2", "--samples": "100"}
    argv.update(dict(zip(bad[::2], bad[1::2])))
    rc = main(["ikrn", "--mode", "mc", "--seed", "1",
               *[v for item in argv.items() for v in item]])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("r", ["0", "-3"])
def test_ikrn_asymptotic_bad_r_exit2(r, capsys):
    # the asymptotic mode used to print a value for any r
    rc = main(["ikrn", "--mode", "asymptotic", "--k", "5", "--r", r, "--n", "2"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and "r >= 1" in err


def test_ikrn_mc_zero_power_is_valid(capsys):
    assert main(["ikrn", "--k", "4", "--r", "1", "--n", "0", "--mode", "mc",
                 "--samples", "10", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "estimate 1\nstd_error 0\n"


def test_ikrn_n0_every_mode_agrees(capsys):
    # bounds and asymptotic used to exit 2 at n = 0, where exact and mc print 1
    out = {}
    for mode in ("exact", "bounds", "asymptotic", "mc"):
        assert main(["ikrn", "--k", "5", "--r", "2", "--n", "0", "--mode", mode,
                     "--samples", "10", "--seed", "1"]) == 0
        out[mode] = capsys.readouterr().out
    assert out == {"exact": "exact 1/1\n", "bounds": "lower 1/1\nupper 1/1\n",
                   "asymptotic": "asymptotic 1\n", "mc": "estimate 1\nstd_error 0\n"}


def test_wps_volume_underflow_exit4_before_output(capsys):
    # the volume 1000003^-60 (about 1e-360) turned into 0.0, and the command
    # printed estimate, std_error and z_score 0 with exit 0
    rc = main(["wps-volume", "--weights", "1,1000003", "--mults", "1,60",
               "--samples", "100", "--seed", "1"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err == ("numerical failure: closed-form volume 10^-360.0 is below "
                   "the smallest normal float\n")


@pytest.mark.parametrize("mults", ["1,1022", "1,1000"])
def test_wps_volume_estimate_underflow_exit4_before_output(mults, capsys):
    # a normal volume (2^-1022, 2^-1000) times a tiny mean weight printed
    # estimate 0 with z_score -inf, or a subnormal 8.3e-313, and exit 0
    rc = main(["wps-volume", "--weights", "1,2", "--mults", mults,
               "--samples", "10", "--seed", "1"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err.startswith("numerical failure: estimate ")
    assert err.endswith("is below the smallest normal float\n")


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# blake2b digests of the output bytes, pinned so that a refactor keeps every
# byte (computed with numpy 2.4 / OpenBLAS 0.3 on x86-64; another BLAS may
# round a last digit differently)
@pytest.mark.parametrize("argv, digest", [
    (["wps-volume", "--weights", "1,2,3", "--mults", "1,1,1",
      "--samples", "100000", "--seed", "1"], "158fbf2928c02b06794383307a6a33a9"),
    (["wps-volume", "--weights", "1,2", "--mults", "2,1", "--p", "5",
      "--samples", "5000", "--seed", "3"], "b7d029991306641ac6dab3723ecfdfd7"),
    (["ikrn", "--k", "6", "--r", "2", "--n", "3", "--mode", "mc",
      "--samples", "100000", "--seed", "7"], "306365cb8aa80c4ddd0efe252395e814"),
])
def test_mc_output_bytes_pinned(argv, digest, capsys):
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode()) == digest


TWISTED = json.dumps({"type": "explicit", "points": [
    {"id": "a", "weight": 0.75,
     "tensor": json.loads(tensor_to_json(random_tensor(2, 2, 1.0, 21))),
     "twist": [[[2.0, 0.0], [0.3, 0.1]], [[0.3, -0.1], [1.5, 0.0]]]},
    {"id": "b", "weight": 0.25,
     "tensor": json.loads(tensor_to_json(random_tensor(2, 2, 1.0, 22))),
     "twist": [[[1.0, 0.0], [-0.2, 0.4]], [[-0.2, -0.4], [0.5, 0.0]]]}]})


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("model, digest", [
    (MODEL, "7542a2886825213feb948b628514fd9f"),
    (TWISTED, "4b75168ed0f66c6bd71ea935837319ce"),
])
def test_morse_output_bytes_pinned(model, digest, workers, tmp_path, capsys):
    out = str(tmp_path / "m")
    assert main(["morse", "--model", model, "--k-list", "2,4,8",
                 "--samples", "3000", "--seed", "3", "--out", out,
                 "--workers", workers]) == 0
    data = (tmp_path / "m.csv").read_bytes() + (tmp_path / "m.json").read_bytes()
    assert _digest(data) == digest


@pytest.mark.parametrize("model", [MODEL, TWISTED])
def test_morse_json_rows_are_csv_rows(model, tmp_path):
    # a JSON row holds exactly the CSV columns, and each k's exact constant
    # is written once, beside the rows
    out = str(tmp_path / "m")
    assert main(["morse", "--model", model, "--k-list", "3,5", "--samples", "300",
                 "--seed", "3", "--out", out]) == 0
    header, *lines = (tmp_path / "m.csv").read_text().splitlines()
    doc = json.loads((tmp_path / "m.json").read_text())
    assert len(doc["rows"]) == len(lines) == 6
    for row, line in zip(doc["rows"], lines):
        csv_row = dict(zip(header.split(","), line.split(",")))
        assert "full_constant" not in row and row.keys() == csv_row.keys()
        for name, text in csv_row.items():
            assert row[name] == (int(text) if name in ("k", "q") else float(text))
    assert [(c["k"], Fraction(int(c["num"]), int(c["den"]))) for c in doc["full_constants"]] == [
        (k, full_morse_constant(2, k, 2)[0]) for k in (3, 5)]  # n = r = 2


def test_morse_json_is_strict_at_k_1(tmp_path):
    # k = 1 wrote "predicted_decay": Infinity, which strict JSON rejects
    out = str(tmp_path / "m")
    assert main(["morse", "--model", MODEL, "--k-list", "1,2", "--samples", "300",
                 "--seed", "3", "--out", out]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rows = json.loads((tmp_path / "m.json").read_text(), parse_constant=reject)["rows"]
    assert sorted({r["k"] for r in rows}) == [1, 2]


@pytest.mark.parametrize("flag", [["--method", "series"], ["--term-ceiling", "1000"]])
def test_ikrn_removed_flags_exit2(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ikrn", "--k", "2", "--r", "1", "--n", "1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_morse_outputs_and_rerun_identical(tmp_path):
    args = ["morse", "--model", MODEL, "--k-list", "2,4", "--q", "all",
            "--samples", "2000", "--seed", "3", "--out", str(tmp_path / "a")]
    assert main(args) == 0
    args2 = ["morse", "--model", MODEL, "--k-list", "2,4", "--q", "all",
             "--samples", "2000", "--seed", "3", "--out", str(tmp_path / "b")]
    assert main(args2) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    doc = json.loads((tmp_path / "a.json").read_text())
    assert len(doc["rows"]) == 6
    header = a.decode().splitlines()[0]
    assert header == ("k,q,reduced_estimate,std_error,eta_integral,"
                      "normalized_deviation,degenerate_fraction,"
                      "log_full_constant")


@pytest.mark.parametrize("argv", [
    ["ikrn", "--k", "3000000", "--r", "1", "--n", "2"],
    ["ikrn", "--k", "3000000", "--r", "1", "--n", "2", "--mode", "bounds"],
    ["ci-threshold", "--n", "2", "--s", "1", "--degrees", "15", "--a", "1",
     "--k", "3000000"],
    ["ikrn", "--k", "1000", "--r", "1", "--n", "1000", "--mode", "bounds"],
    ["ikrn", "--k", "1000", "--r", "1", "--n", "500", "--mode", "bounds"],
])
def test_exact_guard_exit3_fast(argv, capsys):
    # k = 3e6 would need integers of ~8.7e6 bits (n = 2); the cost guard
    # refuses before any work.  The bracket at k = 1000, n = 1000 (1.4e6
    # bits) and n = 500 used to run for 116 s and 20 s.
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "ceiling" in capsys.readouterr().err


def test_morse_malformed_model_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "random", n: }')
    rc, _, err = _run(["morse", "--model", str(bad), "--k-list", "2",
                       "--samples", "10", "--seed", "1",
                       "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "line" in err and "column" in err


def test_morse_q_above_n_exit2(tmp_path, capsys):
    rc = main(["morse", "--model", MODEL, "--k-list", "2", "--q", "5",
               "--samples", "10", "--seed", "1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "q must lie in [0, n]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag, message", [
    (["--tol", "inf"], "tol must be >= 0 and finite"),
    (["--tol", "1e308"], "every sampled form is degenerate at --tol 1e+308 "
                         "(degenerate_fraction 1 at every k); no file written"),
    (["--k-list", ""], "k_list must name at least one k"),
], ids=["tol-inf", "tol-1e308", "empty-k-list"])
def test_morse_bad_tol_or_k_list_exit2(flag, message, tmp_path, capsys):
    # --tol inf and --tol 1e308 used to exit 0 with every row 0, and an empty
    # --k-list failed with "min() arg is an empty sequence"
    argv = {"--model": MODEL, "--k-list": "2", "--samples": "10", "--seed": "1",
            "--out": str(tmp_path / "x")}
    argv.update(dict(zip(flag[::2], flag[1::2])))
    rc = main(["morse", *[v for item in argv.items() for v in item]])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_morse_fermat_degree_past_float_range(tmp_path, capsys):
    # used to print numpy RuntimeWarnings and exit 2 with "point weights must
    # be positive and finite"; a warning fails this suite
    model = json.dumps({"type": "fermat", "n": 2, "d": 1200, "points": 8, "seed": 1})
    assert main(["morse", "--model", model, "--k-list", "2", "--samples", "10",
                 "--seed", "1", "--out", str(tmp_path / "f")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "f.json").exists()


def test_morse_fermat_all_degenerate_exit2(tmp_path, capsys):
    # the degenerate fraction used to read 0.99999999999999989 here, from
    # weights that sum to 1 only to rounding, so the files were written
    model = json.dumps({"type": "fermat", "n": 2, "d": 3, "points": 7, "seed": 6})
    rc = main(["morse", "--model", model, "--k-list", "2", "--samples", "10",
               "--seed", "1", "--tol", "1e300", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "every sampled form is degenerate" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def test_morse_zero_model_kept_at_tol_0(tmp_path, capsys):
    # a zero tensor is degenerate at any tol: at tol 0 the study is written,
    # at a positive tol it exits 2 like a band wider than every eigenvalue
    model = json.dumps({"type": "random", "n": 2, "r": 2, "points": 2,
                        "scale": 0.0, "seed": 9})
    argv = ["morse", "--model", model, "--k-list", "2", "--samples", "10",
            "--seed", "1", "--out"]
    assert main([*argv, str(tmp_path / "z"), "--tol", "0"]) == 0
    rows = (tmp_path / "z.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.split(",")[6] == "1" for row in rows)
    assert main([*argv, str(tmp_path / "p")]) == 2
    assert "degenerate at --tol 1e-09" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["morse", "--model", MODEL, "--k-list", "2,x", "--seed", "1"], "--k-list"),
    (["morse", "--model", MODEL, "--k-list", "2", "--q", "x", "--seed", "1"], "--q"),
    (["wps-volume", "--weights", "1,2.5", "--mults", "1,1", "--seed", "1"], "--weights"),
    (["wps-volume", "--weights", "1,2", "--mults", "1,x", "--seed", "1"], "--mults"),
    (["ci-threshold", "--n", "2", "--s", "1", "--degrees", "x"], "--degrees"),
], ids=["k-list", "q", "weights", "mults", "degrees"])
def test_malformed_integer_names_flag_exit2(argv, flag, tmp_path, capsys):
    # these used to print "invalid literal for int() with base 10" alone
    if argv[0] == "morse":
        argv = [*argv, "--samples", "10", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    bad = "2.5" if flag == "--weights" else "x"
    assert out == "" and err == f"error: {flag} expects integers, got {bad!r}\n"
    assert not (tmp_path / "x.csv").exists()


def test_morse_non_finite_model_exit2(tmp_path, capsys):
    # scale 1e400 parses as inf and would otherwise give all-zero estimates
    model = json.dumps({"type": "random", "n": 2, "r": 2, "points": 2,
                        "scale": 1e400, "seed": 1})
    assert "Infinity" in model
    rc = main(["morse", "--model", model.replace("Infinity", "1e400"),
               "--k-list", "2", "--samples", "10", "--seed", "1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_ci_threshold_example(capsys):
    assert main(["ci-threshold", "--n", "2", "--s", "1", "--degrees", "15",
                 "--a", "1"]) == 0
    out = capsys.readouterr().out
    val = float(out.splitlines()[0].split()[1])
    assert abs(val - 106.88) < 0.01


def test_ci_threshold_boundary_exit2():
    rc, _, err = _run(["ci-threshold", "--n", "2", "--s", "1",
                       "--degrees", "5", "--a", "1"])
    assert rc == 2
    assert "exceed" in err


@pytest.mark.parametrize("n", [140, 143])
def test_ci_threshold_overflow_exit4_before_output(n, capsys):
    # n = 140 printed ln_k_min inf and exited 0; n = 143 exited 4 with only
    # "(34, 'Numerical result out of range')"
    rc = main(["ci-threshold", "--n", str(n), "--s", "1", "--degrees", str(10 * n)])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err == f"numerical failure: ln_k_min overflows the float range at n = {n}\n"


@pytest.mark.parametrize("value", ["1/0", "x"])
def test_ci_threshold_bad_twist_weight_exit2(value, capsys):
    # --a 1/0 used to exit 4 with "numerical failure: Fraction(1, 0)"
    rc = main(["ci-threshold", "--n", "2", "--s", "1", "--degrees", "15", "--a", value])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and err == f"error: --a expects a rational such as 1 or 3/2, got {value!r}\n"


def test_ci_threshold_k_below_2_exit2_before_output(capsys):
    rc = main(["ci-threshold", "--n", "2", "--s", "1", "--degrees", "15",
               "--a", "1", "--k", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and "--k" in err


def test_ci_threshold_k_above_ceiling_exit3_before_output(capsys):
    # the exact layer refuses k = 10^8; ln_k_min used to be printed first
    rc = main(["ci-threshold", "--n", "2", "--s", "1", "--degrees", "15",
               "--a", "1", "--k", "100000000"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == "" and err.startswith("resource ceiling:")


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_morse_bad_workers_flag_exit2(value):
    rc, _, err = _run(["morse", "--model", MODEL, "--k-list", "2",
                       "--samples", "10", "--seed", "1", "--out", "unused",
                       f"--workers={value}"])
    assert rc == 2
    assert "--workers" in err


def test_morse_exact_guard_exit3_before_sampling(tmp_path, capsys):
    # I(400000, 1, 3) needs about 1.7e6 bits: refused before the Monte-Carlo
    # run, which used to take 11.6 s first
    model = '{"type":"random","n":3,"r":1,"points":1,"seed":1}'
    t0 = time.perf_counter()
    assert main(["morse", "--model", model, "--k-list", "400000", "--samples", "256",
                 "--seed", "1", "--workers", "1", "--out", str(tmp_path / "x")]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("resource ceiling:")
    assert not (tmp_path / "x.csv").exists()


def test_exact_work_guard_exit3_fast(capsys):
    # k = 2, n = 4000 is small in bits but its moment recurrence would run
    # for tens of seconds
    t0 = time.perf_counter()
    assert main(["ikrn", "--k", "2", "--r", "1", "--n", "4000", "--mode", "exact"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "ceiling" in capsys.readouterr().err


def test_morse_non_finite_mid_run_exit4(tmp_path):
    # finite input whose forms overflow: the estimates come out -inf/nan.
    # Run as a subprocess, since pytest turns the overflow RuntimeWarning
    # into an error.
    model = json.dumps({"type": "random", "n": 3, "r": 2, "points": 2,
                        "scale": 1e120, "seed": 1})
    rc, out, err = _run(["morse", "--model", model, "--k-list", "2",
                         "--samples", "100", "--seed", "1",
                         "--out", str(tmp_path / "x")])
    assert rc == 4
    assert "numerical failure: k=2, q=1: non-finite" in err
    assert "Warning" not in err
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("n, r, k", [(2, 3, 1000), (3, 1, 22027)])
def test_morse_paper_scale_k_writes_both_files(n, r, k, tmp_path):
    # k = 22027 is e^(5n-5) at n = 3, where the paper's epsilon bound starts.
    # full_constant's denominator has 7,700 and 86,087 digits: past Python's
    # int-to-str limit, which used to exit 2 after the CSV was written
    model = json.dumps({"type": "random", "n": n, "r": r, "points": 1,
                        "scale": 1.0, "seed": 1})
    out = tmp_path / "m"
    assert main(["morse", "--model", model, "--k-list", str(k), "--samples", "16",
                 "--seed", "1", "--out", str(out)]) == 0
    assert len((tmp_path / "m.csv").read_text().splitlines()) == n + 2
    [const] = json.loads((tmp_path / "m.json").read_text())["full_constants"]
    assert const["k"] == k
    value = Fraction(int(Decimal(const["num"])), int(Decimal(const["den"])))
    assert value == full_morse_constant(n, k, r)[0]


def test_ikrn_exact_past_int_str_limit(capsys):
    # the denominator of I(6000, 1, 2) has 5,208 digits
    assert main(["ikrn", "--k", "6000", "--r", "1", "--n", "2"]) == 0
    num, den = capsys.readouterr().out.split()[1].split("/")
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == ikrn_exact(6000, 1, 2)


def test_ikrn_mc_memory_bounded():
    # the draw is made in blocks of _DRAW_BLOCK // k samples; one (samples, k)
    # array took 128 MiB here
    tracemalloc.start()
    try:
        cli._ikrn_mc(4096, 2, 3, 2048, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_ikrn_mc_memory_bounded_in_samples():
    # the blocks are reduced as they are drawn; one float per sample took a
    # 15.9 MiB peak at 10^6 samples
    tracemalloc.start()
    try:
        cli._ikrn_mc(6, 2, 3, 10**6, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("k, samples", [(10**8, 10), (10**3, 10**6), (2**26 + 1, 1)],
                         ids=["one-sample-800MB", "run-1e9", "samples1"])
def test_ikrn_mc_past_variate_ceiling_exit3_before_drawing(k, samples, monkeypatch, capsys):
    # k = 10^8 built 800 MB arrays per sample and ran past a 20 s timeout
    def reached(*args):
        raise AssertionError("sample_nu_batch reached")

    monkeypatch.setattr(cli, "sample_nu_batch", reached)
    rc = main(["ikrn", "--k", str(k), "--r", "1", "--n", "1", "--mode", "mc",
               "--samples", str(samples), "--seed", "1"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == "" and err.startswith("resource ceiling:")


def test_memory_error_exit3(monkeypatch, capsys):
    import jetmorse.cli as cli

    def exhausted(*args):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(cli, "integrate_fiber", exhausted)
    rc = main(["wps-volume", "--weights", "1,2", "--mults", "1,1",
               "--samples", "10", "--seed", "1"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == "" and err == "resource ceiling: Unable to allocate 14.6 TiB\n"


def test_morse_mixed_twist_model_exit2(tmp_path, capsys):
    # only twisted points would be renormalized, so a mixed sample is refused
    model = json.loads(TWISTED)
    del model["points"][1]["twist"]
    rc = main(["morse", "--model", json.dumps(model), "--k-list", "2",
               "--samples", "10", "--seed", "1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "all twisted or all untwisted" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _explicit(**fields):
    point = {"id": "a", "weight": 1.0, "tensor": {"n": 1, "r": 1, "c": [[1, 0]]}}
    return {"type": "explicit", "points": [dict(point, **fields)]}


def _explicit_without(key):
    model = _explicit()
    del model["points"][0][key]
    return model


_EXPLICIT_STRINGS = _explicit(tensor={"n": 1, "r": 1, "c": [["1", "0"]]})


@pytest.mark.parametrize("model, message", [
    ({"type": "random", "n": None, "r": 2, "seed": 1},
     "model field 'n' must be an integer, got None"),
    ({"type": "random", "n": 2.7, "r": 2, "seed": 1},
     "model field 'n' must be an integer, got 2.7"),
    ({"type": "random", "n": 2, "r": 2, "seed": True},
     "model field 'seed' must be an integer, got True"),
    ({"type": "fermat", "n": 1, "d": 3, "points": "10", "seed": 1},
     "model field 'points' must be an integer, got '10'"),
    ({"type": "random", "n": 0, "r": 2, "seed": 1},
     "random tensor needs n >= 1 and r >= 1, got n=0, r=2"),
    (_EXPLICIT_STRINGS, "expected a [re, im] pair of numbers, got ['1', '0']"),
    ([1], "model must be a JSON object, got list"),
    ({"type": "random", "n": 2, "r": 2, "seed": 1, "scale": None},
     "model field 'scale' must be a number, got None"),
    ({"type": "random", "n": 2, "r": 2, "seed": 1, "scale": True},
     "model field 'scale' must be a number, got True"),
    ({"type": "random", "n": 2, "r": 2, "seed": 1, "scale": "2"},
     "model field 'scale' must be a number, got '2'"),
    (_explicit(weight=None), "model field 'weight' must be a number, got None"),
    (_explicit(weight="0.5"), "model field 'weight' must be a number, got '0.5'"),
    ({"type": "explicit", "points": 5}, "model field 'points' must be a list of objects"),
    ({"type": "explicit", "points": [1]}, "model field 'points' must be a list of objects"),
    (_explicit(tensor={"n": 0, "r": 0, "c": []}),
     "coefficient shape (0, 0, 0, 0) is not (n, n, r, r) with n, r >= 1"),
    (_explicit(tensor=5), "model field 'tensor' must be an object"),
    (_explicit(tensor={"n": 1, "r": 1, "c": 5}),
     "model field 'c' must be a list of [re, im] pairs"),
    (_explicit(twist=5), "model field 'twist' must be a list of rows of [re, im] pairs"),
    (_explicit_without("id"), "model field 'id' is missing"),
    (_explicit_without("weight"), "model field 'weight' is missing"),
    (_explicit_without("tensor"), "model field 'tensor' is missing"),
    (_explicit(tensor={"n": 1, "r": 1}), "model field 'c' is missing"),
    ({"type": "explicit"}, "model field 'points' is missing"),
    ({"type": "random", "r": 2, "seed": 1}, "model field 'n' is missing"),
    ({"type": "random", "n": 2, "seed": 1}, "model field 'r' is missing"),
    ({"type": "random", "n": 2, "r": 2}, "model field 'seed' is missing"),
    ({"type": "fermat", "n": 1, "seed": 1}, "model field 'd' is missing"),
], ids=["n-null", "n-fraction", "seed-bool", "points-string", "n-zero", "c-strings",
        "not-object", "scale-null", "scale-bool", "scale-string", "weight-null",
        "weight-string", "points-int", "points-not-objects", "tensor-zero-size",
        "tensor-int", "c-int", "twist-int", "id-missing", "weight-missing",
        "tensor-missing", "c-missing", "points-missing", "n-missing", "r-missing",
        "seed-missing", "d-missing"])
def test_morse_malformed_model_field_exit2(model, message, tmp_path, capsys):
    # a null n, scale or weight, string [re, im] pairs, a document that is not
    # an object, explicit points that are not a list of objects, and a tensor,
    # c or twist that is a number used to fail with TypeError or
    # AttributeError (exit 1); n 2.7, seed true,
    # points "10", scale true or "2" and weight "0.5" ran as 2, 1, 10, 1.0,
    # 2.0 and 0.5; n 0 failed with "zero-size array to reduction
    # operation maximum"; and a missing field printed its bare key, as
    # "error: 'id'".  The document is read from a file, since an inline
    # model must start with "{".
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc = main(["morse", "--model", str(path), "--k-list", "2",
               "--samples", "10", "--seed", "1", "--out", str(tmp_path / "x")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()
