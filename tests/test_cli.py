"""Command line interface: schemas, goldens on the bundled presets,
error handling."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewtent.cli import build_parser, main


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli_process(args, timeout):
    """Run ``python -m skewtent.cli`` in a fresh process, so that a command
    that never ends fails the test (TimeoutExpired) instead of hanging it."""
    done = subprocess.run([sys.executable, "-m", "skewtent.cli", *args], env=_src_env(),
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


# ------------------------------------------------------------ goldens

GOLDEN_DIAGONAL_RLC = (
    '{"candidates": [{"beta0": 0.6666666666666666, "beta0_exact": "2/3", '
    '"quadratic": {"a": 2.0, "b": 0.0, "c": -2.0}, "slopes": [1.0, -1.0], '
    '"tangent_slope_exact": "-1"}], '
    '"polynomial": "1*a^3 + -1*b^3 + -1*a^2 + 1*b^2", "seq": "RLC"}\n'
)

GOLDEN_DIAGONAL_RLLRC = (
    '{"candidates": [{"beta0": 0.7236067977499789, "beta0_exact": null, '
    '"quadratic": {"a": 1.047213595499958, "b": 0.12360679774997863, "c": -1.294427190999916}, '
    '"slopes": [1.0, -0.8090169943749473], "tangent_slope_exact": null}], '
    '"polynomial": "1*a^5 + -1*b^5 + -2*a^4 + 1*a^3*b^1 + 1*b^4 + 1*a^3 + -1*a^2*b^1", '
    '"seq": "RLLRC"}\n'
)


def test_golden_diagonal_rlc():
    rc, out, _ = run_cli(["diagonal", "--seq", "RLC"])
    assert rc == 0
    assert out == GOLDEN_DIAGONAL_RLC


def test_golden_diagonal_rllrc():
    rc, out, _ = run_cli(["diagonal", "--seq", "RLLRC"])
    assert rc == 0
    assert out == GOLDEN_DIAGONAL_RLLRC


def test_golden_counterexample_thex():
    rc, out, _ = run_cli(["counterexample", "--preset", "thex"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["alpha0"] == 0.4875
    assert doc["beta_lo"] == 0.535 and doc["beta_hi"] == 0.995
    assert [r["relation"] for r in doc["roots"]] == ["less", "less"]
    assert doc["roots"][0]["beta"] == pytest.approx(0.5440670407848343, abs=1e-12)
    assert doc["roots"][1]["beta"] == pytest.approx(0.9928166456552385, abs=1e-12)


# ------------------------------------------------------------ scalar commands


def test_theta_diagonal_zero():
    rc, out, _ = run_cli(["theta", "--seq", "RLC", "--alpha", "0.62", "--beta", "0.62"])
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["value"]) <= 1e-12
    assert doc["spec"] == "gaps=;period=1,0"
    assert set(doc) == {"alpha", "beta", "spec", "value", "error_bound", "terms_used"}


def test_theta_with_gap_text():
    rc, out, _ = run_cli(["theta", "--gaps", "gaps=6,5,0;tail=R", "--alpha", "0.6", "--beta", "0.8"])
    assert rc == 0
    assert json.loads(out)["spec"] == "gaps=6,5;tail=R"


def test_grad_and_hessian_schema():
    rc, out, _ = run_cli(["grad", "--seq", "RLC", "--alpha", "0.6", "--beta", "0.8"])
    assert rc == 0
    assert set(json.loads(out)) == {"alpha", "beta", "d_alpha", "d_beta"}
    rc, out, _ = run_cli(["hessian", "--seq", "RLC", "--alpha", "0.6", "--beta", "0.8"])
    assert rc == 0
    assert set(json.loads(out)) == {"alpha", "beta", "a", "b", "c"}


def test_knead_prints_prefix():
    rc, out, _ = run_cli(["knead", "--alpha", "0.65", "--beta", "0.8", "--depth", "12"])
    assert rc == 0
    assert out.strip() == "RLLRRRRLRLRR"


def test_entropy():
    rc, out, _ = run_cli(["entropy", "--alpha", "0.5", "--beta", "0.75", "--depth", "16"])
    assert rc == 0
    assert json.loads(out)["entropy_nats"] == pytest.approx(0.4054651, abs=0.02)


# ------------------------------------------------------------ bulk commands


def test_isentrope_csv(tmp_path):
    out_file = tmp_path / "trace.csv"
    rc, out, _ = run_cli([
        "isentrope", "--seq", "RLC", "--alpha-from", "0.55", "--alpha-to", "0.65",
        "--steps", "5", "--out", str(out_file),
    ])
    assert rc == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,value"
    assert len(lines) == 6
    for line in lines[1:]:
        a, b, v = (float(t) for t in line.split(","))
        assert 0.55 <= a <= 0.65
        assert abs(v) <= 1e-8


def test_isentrope_stdout():
    rc, out, _ = run_cli([
        "isentrope", "--seq", "RLC", "--alpha-from", "0.6", "--alpha-to", "0.6", "--steps", "1",
    ])
    assert rc == 0
    assert out.startswith("alpha,beta,value\n")


def test_isentrope_alphas_end_at_alpha_to():
    # the last node used to be 0.35 + 0.3 * 7 / 7 = 0.6500000000000001
    rc, out, _ = run_cli([
        "isentrope", "--seq", "RLC", "--alpha-from", "0.35", "--alpha-to", "0.65", "--steps", "8",
    ])
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 8
    assert rows[0].split(",")[0] == "0.35" and rows[-1].split(",")[0] == "0.65"


def test_raster_pgm_and_determinism(tmp_path):
    args = ["raster", "--field", "theta_sign", "--preset", "thex",
            "--window", "0.3,0.9,0.55,0.99", "--size", "24x24",
            "--out", str(tmp_path / "a")]
    rc, out, _ = run_cli(args)
    assert rc == 0
    doc = json.loads(out)
    first = (tmp_path / "a.pgm").read_bytes()
    sidecar = json.loads((tmp_path / "a.json").read_text())
    assert sidecar["sentinel_gray"] == 255
    args[-1] = str(tmp_path / "b")
    rc, _, _ = run_cli(args)
    assert rc == 0
    assert (tmp_path / "b.pgm").read_bytes() == first


def test_raster_refuses_tiny_beta_pixels(tmp_path):
    # y^{m1} passes float range at beta = 1e-60: those points are refused
    # (sentinel pixels), the raster is still written
    rc, out, err = run_cli(["raster", "--field", "theta_sign", "--preset", "thex",
                            "--window", "0.1,0.9,1e-60,2e-60", "--size", "4x4",
                            "--out", str(tmp_path / "r")])
    assert (rc, err) == (0, "")
    assert json.loads(out)["min"] == json.loads(out)["max"] == 0.0
    data = (tmp_path / "r.pgm").read_bytes()
    assert data == b"P5\n4 4\n255\n" + bytes([255] * 16)


def test_raster_refuses_negative_tiny_beta_pixels(tmp_path):
    # y = alpha / beta < -1 and y^2 passes float range: refused pixels, not
    # an OverflowError that loses the raster
    rc, out, err = run_cli(["raster", "--field", "theta_sign", "--gaps", "gaps=2;tail=R",
                            "--window=0.9,1.0,-1e-200,-1e-201", "--size", "4x3",
                            "--out", str(tmp_path / "r")])
    assert (rc, err) == (0, "")
    data = (tmp_path / "r.pgm").read_bytes()
    assert data == b"P5\n4 3\n255\n" + bytes([255] * 12)


def test_raster_csv(tmp_path):
    rc, out, _ = run_cli([
        "raster", "--field", "kneading_class", "--depth", "4",
        "--window", "0.4,0.6,0.55,0.75", "--size", "8x8",
        "--out", str(tmp_path / "k"), "--format", "csv",
    ])
    assert rc == 0
    lines = (tmp_path / "k.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,value"
    assert len(lines) == 65


# ------------------------------------------------------------ failure modes


def test_error_is_machine_readable():
    rc, out, err = run_cli(["theta", "--seq", "RLC", "--alpha", "0.2", "--beta", "0.75"])
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert "error" in doc and "kind" in doc


@pytest.mark.parametrize("args, says", [
    (["theta", "--seq", "RLC", "--alpha", "nan", "--beta", "0.7"], "--alpha must be finite"),
    (["grad", "--seq", "RLC", "--alpha", "nan", "--beta", "0.7"], "--alpha must be finite"),
    (["theta", "--seq", "RLC", "--alpha", "0.6", "--beta", "0"], "series undefined at beta = 0"),
    (["knead", "--alpha", "0.6", "--beta", "0.8", "--depth", "-3"], "--depth must be positive"),
    (["isentrope", "--seq", "RLC", "--alpha-from", "0.55", "--alpha-to", "0.65", "--steps", "0"],
     "--steps must be positive"),
    (["raster", "--field", "theta_sign", "--preset", "thex", "--window", "0.3,0.9,0.55,0.99",
      "--size", "3x", "--out", "unused"], "--size needs WIDTHxHEIGHT"),
    (["diagonal", "--seq", "RLLRLLLRLLLLRC"], "not maximal"),
    (["isentrope", "--seq", "RLLRLLLRLLLLRC", "--alpha-from", "0.55", "--alpha-to", "0.65",
      "--steps", "3"], "not maximal"),
    (["diagonal", "--seq", "RLRRRLRC"], "in_class_M says no"),
    (["isentrope", "--seq", "RLRRRLRC", "--alpha-from", "0.3", "--alpha-to", "0.6",
      "--steps", "4"], "in_class_M says no"),
    (["knead", "--alpha", "0.5", "--beta", "1", "--eps-c", "-0.5"], "--eps-c must lie in [0, 1)"),
    (["knead", "--alpha", "0.5", "--beta", "1", "--eps-c", "5"], "--eps-c must lie in [0, 1)"),
    (["isentrope", "--seq", "RLC", "--alpha-from", "0.55", "--alpha-to", "0.65", "--steps", "2",
      "--tol", "0"], "--tol must be positive"),
    (["isentrope", "--seq", "RLC", "--alpha-from", "0.55", "--alpha-to", "0.65", "--steps", "2",
      "--tol", "-1"], "--tol must be positive"),
    (["diagonal", "--seq", "RL(R)"], "needs a finite, C-terminated word"),
    (["counterexample", "--preset", "thex", "--beta-lo", "0.995", "--beta-hi", "0.535"],
     "need beta_lo < beta_hi"),
    (["theta", "--preset", "thex", "--alpha", "0.5", "--beta", "1e-60"], "series ratio inf"),
    (["raster", "--field", "theta_sign", "--preset", "thex", "--window", "0.9,0.3,0.55,0.99",
      "--size", "3x3", "--out", "unused"], "zero-area window"),
    (["counterexample", "--preset", "thex", "--beta-lo", "0", "--beta-hi", "0.9"],
     "beta in (0,1], got alpha0=0.4875 and beta range [0.0, 0.9]"),
    (["counterexample", "--preset", "thex", "--beta-lo", "-0.5", "--beta-hi", "0.9"],
     "beta range [-0.5, 0.9]"),
    (["counterexample", "--preset", "thex", "--beta-lo", "0.6", "--beta-hi", "1.5"],
     "beta range [0.6, 1.5]"),
    (["counterexample", "--preset", "thex", "--alpha0", "1.2"], "alpha0 in (0,1)"),
    (["theta", "--preset", "thex", "--alpha", "0.5", "--beta", "0.7", "--tol", "0"],
     "--tol must be positive, got 0.0"),
    (["theta", "--preset", "thex", "--alpha", "0.5", "--beta", "0.7", "--tol", "-1"],
     "--tol must be positive, got -1.0"),
    (["theta", "--gaps", "gaps=2;tail=R", "--alpha", "1", "--beta=-1e-200"],
     "series ratio inf >= 0.999 at alpha=1.0, beta=-1e-200"),
    (["theta", "--gaps", "gaps=1;tail=R", "--alpha", "1", "--beta=-5e-324"],
     "series ratio inf >= 0.999 at alpha=1.0, beta=-5e-324"),
    # maximal, in_class_M yes; the float-grid root is 503,624 ulps off the exact one
    (["diagonal", "--seq", "RLLRRLRRRRRRLRRLRRLRRRRRRRC"], "diagonal direction not a root of the quadratic"),
    # Theta is 0.2 there, but its derivatives would divide by x = 0
    (["grad", "--gaps", "gaps=1;tail=R", "--alpha", "1", "--beta", "0.8"],
     "derivatives divide by x = (alpha - 1)/beta = 0 at alpha=1.0, beta=0.8"),
])
def test_bad_input_is_one_json_error_line(args, says):
    rc, out, err = run_cli_process(args, timeout=60)
    assert rc == 1
    assert out == ""
    line, = err.splitlines()
    doc = json.loads(line)
    assert set(doc) == {"error", "kind"}
    assert says in doc["error"]


@pytest.mark.parametrize("command", ["theta", "grad", "hessian"])
def test_beta_zero_is_a_convergence_error(command):
    # the series is undefined at beta = 0; it used to end in ZeroDivisionError
    rc, out, err = run_cli([command, "--seq", "RLC", "--alpha", "0.6", "--beta", "0"])
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "series undefined at beta = 0, got beta=0.0",
                               "kind": "ConvergenceError"}


def test_infinite_y_is_a_convergence_error():
    # 1/beta overflows to -inf at alpha = 1, where x is 0: x y^g would be NaN
    rc, out, err = run_cli(["theta", "--gaps", "gaps=1;tail=R", "--alpha", "1", "--beta=-5e-324"])
    assert (rc, out) == (1, "")
    assert json.loads(err)["kind"] == "ConvergenceError"


def test_lap_overflow_is_one_json_error_line():
    # the lap count passes the 4M cap near depth 22; merged pieces get
    # there in a fraction of a second
    rc, out, err = run_cli_process(["entropy", "--alpha", "0.5", "--beta", "0.999", "--depth", "40"],
                                   timeout=5)
    assert (rc, out) == (1, "")
    line, = err.splitlines()
    assert json.loads(line) == {"error": "lap count 4144788 exceeds cap 4000000",
                                "kind": "LapOverflowError"}


def test_memory_error_is_one_json_error_line(monkeypatch):
    # a grid too large for the process's memory raises MemoryError, which
    # carries no text of its own
    from skewtent import curves

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(curves, "counterexample_scan", exhausted)
    rc, out, err = run_cli(["counterexample", "--preset", "thex", "--samples", "300000000"])
    assert (rc, out) == (1, "")
    line, = err.splitlines()
    assert json.loads(line) == {"error": "out of memory", "kind": "MemoryError"}


def test_missing_spec_is_an_error():
    rc, _, err = run_cli(["theta", "--alpha", "0.6", "--beta", "0.8"])
    assert rc == 1
    assert "seq" in json.loads(err)["error"] or "gaps" in json.loads(err)["error"]


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["knead", "--alpha", "0.6", "--beta", "0.8", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_help_lists_every_subcommand():
    parser = build_parser()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parser.parse_args(["--help"])
    assert exc.value.code == 0
    text = out.getvalue()
    for name in ["knead", "theta", "grad", "hessian", "isentrope", "diagonal",
                 "counterexample", "raster", "entropy"]:
        assert name in text


def test_bad_sequence_text():
    rc, _, err = run_cli(["theta", "--seq", "RLX", "--alpha", "0.6", "--beta", "0.8"])
    assert rc == 1
    assert "parse" in json.loads(err)["error"]


# Runs one command through ``main`` (a bare ``import skewtent`` for an empty
# list, every module of the library for ``None``) and prints whether numpy and
# which skewtent modules loaded, then every module loaded.
IMPORT_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv:
    from skewtent.cli import main
    main(argv)
elif argv is None:
    import skewtent.algebraic, skewtent.cli, skewtent.curves
else:
    import skewtent
print(json.dumps(["numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("skewtent.")),
                  sorted(sys.modules)]))
"""

POINT = ["--alpha", "0.6", "--beta", "0.8"]
SPECS = [["--seq", "RLC"], ["--gaps", "gaps=6,5,0;tail=R"], ["--preset", "thex"],
         ["--preset", "exceptional"]]
CURVES = {"symbolic", "tentmap", "theta", "curves"}

# the library modules each command loads (``cli`` itself aside)
IMPORT_CASES = [
    ([], set()),
    (None, {"symbolic", "tentmap", "theta", "algebraic", "curves"}),
    (["knead", *POINT], {"symbolic", "tentmap"}),
    (["entropy", *POINT], {"symbolic", "tentmap"}),
    *[([cmd, *spec, *POINT], {"symbolic", "theta"})
      for cmd in ("theta", "grad", "hessian") for spec in SPECS],
    (["diagonal", "--seq", "RLC"], {"symbolic", "theta", "algebraic"}),
    (["isentrope", "--seq", "RLC", "--alpha-from", "0.55", "--alpha-to", "0.65", "--steps", "2"], CURVES),
    (["counterexample", "--seq", "RLC", "--alpha0", "0.6", "--beta-lo", "0.7", "--beta-hi", "0.95",
      "--samples", "8"], CURVES),
]


def test_import_leaves_numpy_out(tmp_path):
    # numpy would add about 12 MB of RSS and 165 ms of start-up to every run;
    # each library module a command does not run costs a scalar command's
    # process a few ms of import
    raster = ["raster", "--field", "kneading_class", "--window", "0.5,0.6,0.7,0.8", "--size", "2x2",
              "--out", str(tmp_path / "k")]
    # dataclasses and the inspect, ast, dis and tokenize it pulls in cost
    # about a third of the library's import; site hooks may preload modules,
    # so only what a command adds to a bare interpreter counts
    bare = subprocess.run([sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
                          env=_src_env(), capture_output=True, text=True, check=True)
    baseline = set(json.loads(bare.stdout.splitlines()[-1]))
    for argv, loaded in [*IMPORT_CASES, (raster, CURVES)]:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)], env=_src_env(),
                             capture_output=True, text=True, check=True)
        numpy, modules, everything = json.loads(out.stdout.splitlines()[-1])
        assert not numpy, argv
        assert {m.split(".")[1] for m in modules} - {"cli"} == loaded, (argv, modules)
        assert not {"dataclasses", "inspect"} & (set(everything) - baseline), argv


# SHA-256 of ``--help`` at COLUMNS=80, top parser first, taken before the
# command modules were imported lazily: moving imports leaves the parser as
# it was.
HELP_SHA256 = {
    "": "f7a463b6d304340fbb89c378ef9ebdef44784ee6acda54cfe77a820b6809aba4",
    "knead": "904534b9678e0db7255ec9f413c762a60850cd8134142e5241002fcb1004f039",
    "theta": "f9aec0f4415fb77ad95c8f7f1a15dba5656d57e9bc426a80159340d5907a56a3",
    "grad": "7073243780116665879f1610f246ddee731aaae6e5f230305bd9be30f814cc89",
    "hessian": "a5cef466a6165f7bcaeeae31e64ec4fb83d0d6e44fac02940650fd7bc3e31dc8",
    "isentrope": "e4127e39902a627c4b666589e62d268a1a84cef67593a101746679c371fadf9f",
    "diagonal": "d5902daa83e2897919e21cc27c79aaf4edd17229510f5772ca0f58a76f8795fa",
    "counterexample": "67a95be831777182e740a02488940dc6bae9fdd6cecc10d7cef40c57f41728c7",
    "raster": "2c2d2faed1721089282faa685a0e02cc1b0c4395fccdce2cc365533bcacef7f6",
    "entropy": "472c2afd61d1951f436071eb1dd13f4412c723f656032603a0c6d3188cdfe792",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="digests of the help text as CPython 3.11's argparse lays it out")
@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_text_is_pinned(command):
    done = subprocess.run([sys.executable, "-m", "skewtent.cli", *command.split(), "--help"],
                          env=dict(_src_env(), COLUMNS="80"), capture_output=True, check=True)
    assert hashlib.sha256(done.stdout).hexdigest() == HELP_SHA256[command]
