"""The package's public names: which they are, where each lives, and that
``import skewtent`` loads them on first use."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewtent

# the public names, by home module
PUBLIC = {
    "symbolic": [
        "C", "EQUAL", "GREATER", "GapSeq", "KneadingSeq", "L", "LESS", "R", "RL_INFINITY",
        "compare", "compare_prefix", "doubling_limit_prefix", "format_seq", "gap_decomposition",
        "in_class_M", "is_maximal", "minus_variant", "parse_seq", "parse_word", "star_product",
    ],
    "tentmap": [
        "LapOverflowError", "TentParams", "entropy_lap", "kneading_prefix", "lap_counts", "orbit",
        "tent_eval",
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
    assert len(NAMES) == 57
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
    for removed in ("LambdaMu", "shift", "extended_itinerary"):
        with pytest.raises(AttributeError, match=removed):
            getattr(skewtent, removed)


# the signature of every public function: a parameter added or removed shows here
SIGNATURES = {
    "compare": "(a: 'KneadingSeq', b: 'KneadingSeq') -> 'int'",
    "compare_prefix": "(symbols: 'str', target: 'KneadingSeq') -> 'int'",
    "doubling_limit_prefix": "(n: 'int') -> 'str'",
    "format_seq": "(seq: 'KneadingSeq') -> 'str'",
    "gap_decomposition": "(m: 'KneadingSeq') -> 'GapSeq'",
    "in_class_M": "(m: 'KneadingSeq') -> 'str'",
    "is_maximal": "(a: 'KneadingSeq') -> 'bool'",
    "minus_variant": "(m: 'KneadingSeq') -> 'KneadingSeq'",
    "parse_seq": "(text: 'str') -> 'KneadingSeq'",
    "parse_word": "(text: 'str') -> 'str'",
    "star_product": "(word: 'str', b: 'KneadingSeq') -> 'KneadingSeq'",
    "entropy_lap": "(p: 'TentParams', n: 'int' = 16) -> 'float'",
    "kneading_prefix": "(p: 'TentParams', n: 'int', eps_c=0) -> 'str'",
    "lap_counts": "(p: 'TentParams', n: 'int') -> 'list[int]'",
    "orbit": "(p: 'TentParams', x, n: 'int') -> 'list'",
    "tent_eval": "(p: 'TentParams', x)",
    "diagonal_stationary_beta": "(spec: 'ThetaSpec') -> 'float'",
    "m1_first_return": "(alpha, beta) -> 'int'",
    "theta_eval": "(spec: 'ThetaSpec', alpha, beta, tol: 'float' = 1e-12) -> 'ThetaValue'",
    "theta_grad": "(spec: 'ThetaSpec', alpha, beta)",
    "theta_hessian": "(spec: 'ThetaSpec', alpha, beta) -> 'Quadratic2D'",
    "theta_partial_sum": "(spec: 'ThetaSpec', alpha, beta, k: 'int')",
    "thex_spec": "() -> 'ThetaSpec'",
    "exceptional_spec": "() -> 'ThetaSpec'",
    "compose_branch_condition": "(word: 'str') -> 'BivarPoly'",
    "diagonal_critical_points": "(p: 'BivarPoly') -> 'list'",
    "isolate_real_roots": "(coeffs: 'Sequence[Fraction]', lo, hi)",
    "slope_at_diagonal": "(p: 'BivarPoly', beta0)",
    "counterexample_scan":
        "(spec: 'ThetaSpec', alpha0: 'float', beta_lo: 'float', beta_hi: 'float', "
        "samples: 'int' = 400) -> 'list[ScanRoot]'",
    "kneading_bisect_beta":
        "(m: 'KneadingSeq', alpha: 'float') -> 'IsentropePoint'",
    "raster": "(field, window, width: 'int', height: 'int') -> 'RasterGrid'",
    "trace_isentrope": "(m: 'KneadingSeq', alphas, tol: 'float' = 1e-12)",
    "write_csv": "(grid: 'RasterGrid', path: 'str | Path') -> 'None'",
    "write_pgm": "(grid: 'RasterGrid', path: 'str | Path') -> 'dict'",
}


def test_public_function_signatures_are_pinned():
    functions = {name for name in NAMES if inspect.isfunction(getattr(skewtent, name))}
    assert functions == set(SIGNATURES)
    for name, signature in SIGNATURES.items():
        assert str(inspect.signature(getattr(skewtent, name))) == signature, name
