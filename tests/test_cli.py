import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from jetmorse.cli import main
from jetmorse.curvature import tensor_to_json
from jetmorse.models import random_tensor

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


def test_ikrn_mc_zero_power_is_valid(capsys):
    assert main(["ikrn", "--k", "4", "--r", "1", "--n", "0", "--mode", "mc",
                 "--samples", "10", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "estimate 1\nstd_error 0\n"


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# blake2b digests of the output bytes, pinned so that a refactor keeps every
# byte (computed with numpy 2.4 / OpenBLAS 0.3 on x86-64; another BLAS may
# round a last digit differently)
@pytest.mark.parametrize("argv, digest", [
    (["wps-volume", "--weights", "1,2,3", "--mults", "1,1,1",
      "--samples", "100000", "--seed", "1"], "158fbf2928c02b06794383307a6a33a9"),
    (["wps-volume", "--weights", "1,2", "--mults", "2,1", "--p", "5",
      "--samples", "5000", "--seed", "3"], "4174af4495b53a2b88d4380f76daa996"),
    (["ikrn", "--k", "6", "--r", "2", "--n", "3", "--mode", "mc",
      "--samples", "100000", "--seed", "7"], "9c1ee847f3271c19cd728179b4449add"),
])
def test_mc_output_bytes_pinned(argv, digest, capsys):
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode()) == digest


TWISTED = json.dumps({"type": "explicit", "points": [
    {"id": "a", "weight": 0.75,
     "tensor": json.loads(tensor_to_json(random_tensor(2, 2, 1.0, 21))),
     "twist": [[[2.0, 0.0], [0.3, 0.1]], [[0.3, -0.1], [1.5, 0.0]]]},
    {"id": "b", "weight": 0.25,
     "tensor": json.loads(tensor_to_json(random_tensor(2, 2, 1.0, 22)))}]})


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("model, digest", [
    (MODEL, "ca0dcdd551e23600ecca39c732e3615c"),
    (TWISTED, "faeb52235ec31d19af9c8774e86b6597"),
])
def test_morse_output_bytes_pinned(model, digest, workers, tmp_path, capsys):
    out = str(tmp_path / "m")
    assert main(["morse", "--model", model, "--k-list", "2,4,8",
                 "--samples", "3000", "--seed", "3", "--out", out,
                 "--workers", workers]) == 0
    data = (tmp_path / "m.csv").read_bytes() + (tmp_path / "m.json").read_bytes()
    assert _digest(data) == digest


def test_ikrn_resource_ceiling_exit3():
    rc, _, err = _run(["ikrn", "--k", "10000", "--r", "1", "--n", "5",
                       "--mode", "exact", "--method", "enumerate",
                       "--term-ceiling", "1000"])
    assert rc == 3
    assert "ceiling" in err


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
])
def test_exact_guard_exit3_fast(argv, capsys):
    # k = 3e6 would need integers of ~8.7e6 bits (n = 2); the cost guard
    # refuses before any work
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


def test_ci_threshold_k_below_2_exit2_before_output(capsys):
    rc = main(["ci-threshold", "--n", "2", "--s", "1", "--degrees", "15",
               "--a", "1", "--k", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and "--k" in err


def test_morse_fermat_zero_mix_exit4(tmp_path, capsys, monkeypatch):
    import jetmorse.models as models

    monkeypatch.setattr(models, "_projection_gram_dets",
                        lambda z, frames: np.zeros(z.shape))
    model = json.dumps({"type": "fermat", "n": 2, "d": 3, "points": 2, "seed": 1})
    rc = main(["morse", "--model", model, "--k-list", "2", "--samples", "10",
               "--seed", "1", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "numerical failure" in err and "Gram" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_morse_bad_workers_flag_exit2(value):
    rc, _, err = _run(["morse", "--model", MODEL, "--k-list", "2",
                       "--samples", "10", "--seed", "1", "--out", "unused",
                       f"--workers={value}"])
    assert rc == 2
    assert "--workers" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_morse_bad_thread_env_exit2(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("JETMORSE_THREADS", value)
    rc = main(["morse", "--model", MODEL, "--k-list", "2", "--samples", "10",
               "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "JETMORSE_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_exact_work_guard_exit3_fast(capsys):
    # k = 2, n = 4000 is small in bits but its moment recurrence would run
    # for tens of seconds
    t0 = time.perf_counter()
    assert main(["ikrn", "--k", "2", "--r", "1", "--n", "4000", "--mode", "exact"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "ceiling" in capsys.readouterr().err
