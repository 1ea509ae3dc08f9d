"""The package's public names: which they are, where each lives, and that
``import skewtent`` loads them on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewtent

# the names the package exported before it loaded them lazily, by home module
PUBLIC = {
    "symbolic": [
        "C", "EQUAL", "GREATER", "GapSeq", "KneadingSeq", "L", "LESS", "R", "RL_INFINITY",
        "compare", "compare_prefix", "doubling_limit_prefix", "format_seq", "gap_decomposition",
        "in_class_M", "is_maximal", "minus_variant", "parse_seq", "parse_word", "shift",
        "star_product",
    ],
    "tentmap": [
        "LambdaMu", "LapOverflowError", "TentParams", "branch", "entropy_lap", "extended_itinerary",
        "from_lambda_mu", "kneading_prefix", "lap_counts", "orbit", "tent_eval", "to_lambda_mu",
    ],
    "theta": [
        "ConvergenceError", "Quadratic2D", "ThetaSpec", "ThetaValue", "diagonal_stationary_beta",
        "m1_first_return", "theta_eval", "theta_grad", "theta_hessian", "theta_partial_sum",
        "thex_spec", "exceptional_spec",
    ],
    "algebraic": [
        "BivarPoly", "compose_branch_condition", "diagonal_critical_points", "isolate_real_roots",
        "slope_at_diagonal",
    ],
    "curves": [
        "BracketError", "IsentropePoint", "KneadingClassField", "RasterGrid", "ScanRoot",
        "ThetaSignField", "ThetaValueField", "counterexample_scan", "kneading_bisect_beta",
        "raster", "trace_isentrope", "write_csv", "write_pgm",
    ],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_all_lists_the_public_names():
    assert len(NAMES) == 63
    assert sorted(skewtent.__all__) == sorted(NAMES)
    assert len(set(skewtent.__all__)) == len(skewtent.__all__)
    assert skewtent.__version__ == "0.1.0"


@pytest.mark.parametrize("module", list(PUBLIC))
def test_each_name_is_its_home_modules_object(module):
    home = getattr(skewtent, module)
    for name in PUBLIC[module]:
        assert getattr(skewtent, name) is getattr(home, name), name


def test_presets_still_resolve_from_curves():
    assert skewtent.curves.thex_spec is skewtent.theta.thex_spec
    assert skewtent.curves.exceptional_spec is skewtent.theta.exceptional_spec


def test_star_import_binds_every_name():
    namespace = {}
    exec("from skewtent import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_submodules_resolve_after_a_bare_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, skewtent\n"
            "before = sorted(m for m in sys.modules if m.startswith('skewtent.'))\n"
            f"names = [getattr(skewtent, m).__name__ for m in {list(PUBLIC)!r}]\n"
            "print(json.dumps([before, names]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    before, names = json.loads(out.stdout)
    assert before == []
    assert names == [f"skewtent.{m}" for m in PUBLIC]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        skewtent.no_such_name
    assert not hasattr(skewtent, "lap_count")
