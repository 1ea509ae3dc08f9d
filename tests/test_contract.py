"""The library's contract at its edges.

``theta_eval``, ``theta_row``, ``theta_grad`` and ``theta_hessian`` take
any point: float, Fraction or mixed, at 0 and 1, at negative beta, at
1e+-300 and subnormals, at inf and NaN, over gaps up to 2000.  Each call
gives finite numbers or raises ``ConvergenceError`` or ``ValueError``;
``theta_row`` gives NaN, and exactly where ``theta_eval`` refuses.  Where
the chain rule of the derivatives would divide by 0 (x = 0 at alpha = 1,
y = 0 at alpha = 0, or an x^2 that underflows) or leave float range, they
refuse too.  A mixed point whose Fraction lies past float range, or rounds
to 0, is refused as an infinite series ratio.

``cli.main`` takes any command line of its nine commands: hostile numbers,
words, gap specs, windows and sizes.  Each run exits 0 with its output, or
1 with one JSON error line and nothing on stdout, or 2 with argparse's
usage.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtent import ConvergenceError, GapSeq, ThetaSpec, theta_eval, theta_grad, theta_hessian
from skewtent.cli import main
from skewtent.theta import theta_row

from test_theta import THEX, float_points


@st.composite
def large_gap_specs(draw):
    """A spec whose first gap is small or up to 2000, with up to six more
    head gaps and a period of one to three gaps, zeros among them."""
    m1 = draw(st.one_of(st.integers(1, 8), st.sampled_from([60, 500, 2000])))
    gap = st.one_of(st.just(0), st.integers(0, m1))
    head = draw(st.lists(gap, max_size=6))
    return ThetaSpec(GapSeq((m1, *head), tuple(draw(st.lists(gap, min_size=1, max_size=3)))))


_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
          2.2250738585072014e-308, 1.7976931348623157e308, 1 - 2 ** -53, 1 + 2 ** -52]
_FLOATS = st.one_of(st.sampled_from(_EDGES + [math.inf, -math.inf, math.nan]), st.floats(-2.0, 2.0),
                    st.floats(allow_nan=True, allow_infinity=True))
# rationals: small ones, and every finite edge as an exact Fraction
_SMALL = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=97))
_RATIONALS = st.one_of(_SMALL, st.sampled_from([Fraction(v) for v in _EDGES]))
# Fractions past float range and Fractions that round to 0, for mixed points
_BIG, _TINY = Fraction(10 ** 400), Fraction(1, 10 ** 400)
_PAST_RANGE = st.sampled_from([_BIG, -_BIG, _TINY, -_TINY])


@st.composite
def points(draw, spec):
    """A float, rational or mixed point.  A rational point with a gap past
    60 keeps small denominators, as the integer kernel's numbers grow with
    the gaps times the digits of the point.  A mixed point's Fraction may
    also lie past float range or round to 0."""
    kind = draw(st.sampled_from(["float", "U", "rational", "mixed alpha", "mixed beta"]))
    if kind == "float":
        return draw(_FLOATS), draw(_FLOATS)
    if kind == "U":
        return draw(float_points())
    rationals = _SMALL if spec.m1 > 60 else _RATIONALS
    if kind == "rational":
        return draw(rationals), draw(rationals)
    mixed = st.one_of(rationals, _PAST_RANGE)
    if kind == "mixed alpha":
        return draw(mixed), draw(_FLOATS)
    return draw(_FLOATS), draw(mixed)


def _finite(*values):
    return all(type(v) is Fraction or (type(v) is float and math.isfinite(v)) for v in values)


def _check_contract(spec, alpha, beta):
    try:
        tv = theta_eval(spec, alpha, beta)
    except ValueError:  # ConvergenceError among them
        tv = None
    else:
        assert _finite(tv.value, tv.error_bound) and tv.error_bound <= 1e-12
    (value,) = theta_row(spec, [alpha], beta)
    if tv is None:
        assert type(value) is float and math.isnan(value)
    else:  # an int row divides int by int, into floats: only its NaN is the kernel's
        assert _finite(value) and (value == tv.value or type(alpha) is type(beta) is int)
    try:
        assert _finite(*theta_grad(spec, alpha, beta))
    except ValueError:
        pass
    try:
        q = theta_hessian(spec, alpha, beta)
    except ValueError:
        pass
    else:
        assert _finite(q.a, q.b, q.c)


_ONE = ThetaSpec.from_text("gaps=1;tail=R")
_LARGE = ThetaSpec(GapSeq((2000,), (0,)))


@st.composite
def spec_points(draw):
    spec = draw(st.one_of(st.just(THEX), large_gap_specs()))
    return spec, draw(points(spec))


@given(spec_points())
@example((_ONE, (1.0, 0.8)))  # x = 0
@example((_ONE, (0.0, 2.0)))  # y = 0
@example((_ONE, (Fraction(1), Fraction(4, 5))))  # x = 0, exactly
@example((_ONE, (-0.7388911319378004, 1e300)))  # x^2 underflows
@example((_LARGE, (1.106372018049441, -0.7767373643270155)))  # the moments overflow
@example((THEX, (0.5, math.inf)))  # 1 - beta = -inf
@example((THEX, (1e300, Fraction(1.7976931348623157e308))))  # a Fraction beta^2 past float range
@example((THEX, (0.5, _BIG)))  # x = (alpha - 1)/beta: the Fraction overflows a float
@example((THEX, (0.5, _TINY)))  # the Fraction rounds to 0.0, a divisor
@example((THEX, (_BIG, 0.8)))  # alpha - 1 overflows a float
@settings(max_examples=400, deadline=None)
def test_every_call_is_finite_or_refused(case):
    spec, (alpha, beta) = case
    _check_contract(spec, alpha, beta)


def _refused(f, spec, alpha, beta, text):
    with pytest.raises(ConvergenceError) as exc:
        f(spec, alpha, beta)
    assert str(exc.value) == text


@pytest.mark.parametrize("alpha, beta, name", [
    (1.0, 0.8, "x = (alpha - 1)/beta"),
    (0.0, 2.0, "y = alpha/beta"),
    (Fraction(1), Fraction(4, 5), "x = (alpha - 1)/beta"),
    (1, 0.8, "x = (alpha - 1)/beta"),
])
def test_derivatives_refuse_a_zero_divisor_by_name(alpha, beta, name):
    # the chain rule divides by x = (alpha - 1)/beta and y = alpha/beta;
    # Theta itself is defined there
    assert math.isfinite(theta_eval(_ONE, alpha, beta).value)
    for f in (theta_grad, theta_hessian):
        _refused(f, _ONE, alpha, beta,
                 f"derivatives divide by {name} = 0 at alpha={alpha}, beta={beta}")


def test_hessian_refuses_an_underflowing_square():
    # x is about -1.7e-300, so x^2 underflows while x does not
    alpha, beta = -0.7388911319378004, 1e300
    assert theta_grad(_ONE, alpha, beta) == (-0.0, -1.0)
    _refused(theta_hessian, _ONE, alpha, beta,
             f"derivatives divide by x^2 = 0 at alpha={alpha}, beta={beta}")


def test_derivatives_past_float_range_are_refused():
    # at y < -1 the guards admit |u| = |x y^2000| near 1e306, which the
    # roundoff bound refuses for the value; the moments overflow
    alpha, beta = 1.106372018049441, -0.7767373643270155
    with pytest.raises(ConvergenceError, match="roundoff bound"):
        theta_eval(_LARGE, alpha, beta)
    assert math.isnan(theta_row(_LARGE, [alpha], beta)[0])
    for f in (theta_grad, theta_hessian):
        _refused(f, _LARGE, alpha, beta, f"derivatives past float range at alpha={alpha}, beta={beta}")


@pytest.mark.parametrize("beta", [math.inf, -math.inf])
def test_infinite_beta_is_refused(beta):
    # 1 - beta would be -inf or inf: the series is undefined there, as at beta = 0
    row = theta_row(THEX, [0.5, Fraction(1, 2)], beta)
    assert all(math.isnan(v) for v in row)
    for f in (theta_eval, theta_grad, theta_hessian):
        _refused(f, THEX, 0.5, beta, f"series undefined at infinite beta, got beta={beta}")


# -- the library past float range ------------------------------------------


@pytest.mark.parametrize("alpha, beta, text", [
    (0.5, _BIG, "series ratio inf >= 0.999 at alpha=0.5, beta=inf"),
    (0.5, _TINY, "series ratio inf >= 0.999 at alpha=0.5, beta=0.0"),
    (_BIG, 0.8, "series ratio inf >= 0.999 at alpha=inf, beta=0.8"),
], ids=["float alpha, beta 10^400", "float alpha, beta 10^-400", "alpha 10^400, float beta"])
def test_mixed_points_past_float_range_are_refused(alpha, beta, text):
    # the Fraction leaves float range, or rounds to 0, in x = (alpha - 1)/beta
    for f in (theta_eval, theta_grad, theta_hessian):
        _refused(f, THEX, alpha, beta, text)
    assert math.isnan(theta_row(THEX, [alpha], beta)[0])


# -- the command line ------------------------------------------------------

# Every run of ``cli.main`` exits 0 with its output (strict JSON of finite
# numbers, plain text for knead, CSV for isentrope, files for raster), or 1
# with one {"error", "kind"} line on stderr and nothing on stdout; argparse's
# usage exit 2 stays allowed.  Sizes stay at 16x16 and depths at 500 or
# less: no draw asks for unbounded work.

_HOSTILE_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "2", "1e-300", "-1e-300", "5e-324", "1e300", "1e999", "-1e999",
                     "nan", "inf", "-inf", "1.0000000000000002", "0.9999999999999999", "abc", ""]),
    st.floats(-2.0, 2.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_HOSTILE_COUNTS = st.one_of(st.integers(-1, 500).map(str), st.sampled_from(["x", "1.5", ""]))
_HOSTILE_WORDS = st.one_of(st.sampled_from(["RLRRRLRC", "RLRRRLRRRLRC", "C", "", "RLX", "RL(", "(R)"]),
                           st.text(alphabet="LRC()X ", max_size=10))
_GAP_LISTS = st.lists(st.one_of(st.integers(-1, 8), st.sampled_from([2000, 10 ** 9])), max_size=4)
_HOSTILE_GAPS = st.one_of(
    st.sampled_from(["gaps=;tail=R", "gaps=1;period=", "gaps=2;tail=L", "junk", "gaps=2000;tail=R"]),
    st.builds(lambda head, tail: "gaps=" + ",".join(map(str, head)) + tail, _GAP_LISTS,
              st.one_of(st.just(";tail=R"), _GAP_LISTS.map(lambda p: ";period=" + ",".join(map(str, p))))))
_HOSTILE_WINDOWS = st.lists(st.one_of(_HOSTILE_NUMBERS, st.floats(0, 1).map(repr)),
                            min_size=3, max_size=5).map(",".join)
_HOSTILE_SIZES = st.one_of(st.builds("{}x{}".format, st.integers(-1, 16), st.integers(-1, 16)),
                           st.sampled_from(["16", "4x4x4", "ax4", ""]))


def _texts(*values):
    return st.sampled_from([str(v) for v in values])


# each flag's values where the command has work to do, then its hostile ones
_FLAGS = {
    "alpha": (st.one_of(_texts(0.4875, 0.5, 0.6, 0.65), st.floats(0.3, 0.7).map(repr)), _HOSTILE_NUMBERS),
    "beta": (st.one_of(_texts(0.535, 0.7, 0.8, 0.995), st.floats(0.55, 0.999).map(repr)), _HOSTILE_NUMBERS),
    "tol": (_texts(1e-12, 1e-9), _HOSTILE_NUMBERS),
    "eps-c": (_texts(0, 1e-9, 0.5), _HOSTILE_NUMBERS),
    "depth": (st.one_of(st.integers(1, 24).map(str), _texts(500)), _HOSTILE_COUNTS),
    "steps": (st.integers(1, 12).map(str), _HOSTILE_COUNTS),
    "samples": (st.one_of(st.integers(1, 60).map(str), _texts(400)), _HOSTILE_COUNTS),
    "alpha0": (_texts(0.4875, 0.58, 0.6), _HOSTILE_NUMBERS),
    "beta-lo": (_texts(0.505, 0.535, 0.6), _HOSTILE_NUMBERS),
    "beta-hi": (_texts(0.9, 0.995, 1), _HOSTILE_NUMBERS),
    "seq": (_texts("RLC", "RLLRC", "RLLLRC", "RLRRRC", "RL(R)", "RLL(RL)", "(RL)"), _HOSTILE_WORDS),
    "gaps": (_texts("gaps=6,5,0;tail=R", "gaps=1;period=0,1", "gaps=3,1;tail=R", "gaps=1000000000;tail=R"),
             _HOSTILE_GAPS),
    "preset": (_texts("thex", "exceptional"), _texts("other")),
    "field": (_texts("theta_value", "theta_sign", "kneading_class"), _texts("other")),
    "window": (_texts("0.3,0.9,0.55,0.99", "0.05,0.95,0.505,0.995", "0.5,0.6,-0.9,-0.1"), _HOSTILE_WINDOWS),
    "size": (st.builds("{}x{}".format, st.integers(2, 16), st.integers(2, 16)), _HOSTILE_SIZES),
    "format": (_texts("pgm", "csv"), _texts("png")),
}


@st.composite
def cli_runs(draw):
    """A command line of one of the nine commands.  In a hostile run every
    flag may take a hostile value, and any optional flag is dropped or kept
    at random; an output path starts with ``out/``, which the test points
    at a scratch directory."""
    command = draw(st.sampled_from(["knead", "theta", "grad", "hessian", "isentrope", "diagonal",
                                    "counterexample", "raster", "entropy"]))
    hostile = draw(st.booleans())

    def flag(name, values=None):  # values: the key of the flag's values, when not its name
        plausible, bad = _FLAGS[values or name]
        return [f"--{name}={draw(st.one_of(plausible, bad) if hostile else plausible)}"]

    def maybe(name):
        return flag(name) if draw(st.booleans()) else []

    args = [command]
    if command in ("theta", "grad", "hessian", "counterexample", "raster"):
        spec = draw(st.sampled_from(["seq", "gaps", "preset", "none"] if hostile else ["seq", "gaps", "preset"]))
        args += [] if spec == "none" else flag(spec)
    if command in ("knead", "theta", "grad", "hessian", "entropy"):
        args += flag("alpha") + flag("beta")
    if command == "knead":
        args += maybe("depth") + maybe("eps-c")
    elif command == "theta":
        args += maybe("tol")
    elif command == "entropy":
        args += maybe("depth")
    elif command == "isentrope":
        args += flag("seq") + flag("alpha-from", "alpha") + flag("alpha-to", "alpha") + flag("steps")
        args += maybe("tol") + (["--out=out/trace.csv"] if draw(st.booleans()) else [])
    elif command == "diagonal":
        args += flag("seq")
    elif command == "counterexample":
        args += maybe("alpha0") + maybe("beta-lo") + maybe("beta-hi") + maybe("samples")
    elif command == "raster":
        args += flag("field") + flag("window") + flag("size") + ["--out=out/r"]
        args += maybe("depth") + maybe("format")
    return args


def _strict_json(line):
    """The object of one JSON line whose every number is finite."""
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    doc = json.loads(line, parse_constant=refuse)

    def walk(v):
        if isinstance(v, dict):
            for w in v.values():
                walk(w)
        elif isinstance(v, list):
            for w in v:
                walk(w)
        else:
            assert not isinstance(v, float) or math.isfinite(v), v
    walk(doc)
    return doc


def _check_success(command, out, scratch):
    if command == "knead":
        assert re.fullmatch(r"[LRC]*\n", out), out
    elif command == "isentrope":
        text = out or (scratch / "trace.csv").read_text()
        header, *rows = text.splitlines()
        assert header == "alpha,beta,value" and text.endswith("\n")
        for row in rows:
            assert len([float(v) for v in row.split(",")]) == 3, row
    else:
        (line,) = out.splitlines()
        doc = _strict_json(line)
        if command == "raster":
            for key in ("pgm", "sidecar", "csv"):
                assert key not in doc or Path(doc[key]).is_file()


@given(cli_runs())
@example(["counterexample", "--gaps=gaps=1000000000;tail=R", "--alpha0=0.7", "--samples=40"])
@example(["theta", "--gaps=gaps=2000;tail=R", "--alpha=0.9", "--beta=-0.6"])
@example(["theta", "--seq=RLC", "--alpha=1", "--beta=-5e-324"])
@example(["raster", "--field=theta_value", "--preset=thex", "--window=0.1,0.9,1e-60,2e-60", "--size=4x4",
          "--out=out/r", "--format=csv"])
@example(["diagonal", "--seq=RL(R)"])
@settings(max_examples=300, deadline=None)
def test_every_command_exits_with_output_or_one_error_line(args):
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        args = [a.replace("=out/", f"={tmp}/") for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(args)
            except SystemExit as exc:  # argparse's usage error
                rc = exc.code
        out, err = out.getvalue(), err.getvalue()
        if rc == 2:
            assert out == ""
        elif rc == 1:
            assert out == ""
            (line,) = err.splitlines()
            assert set(json.loads(line)) == {"error", "kind"}
        else:
            assert rc == 0 and err == "", (rc, err)
            _check_success(args[0], out, scratch)
