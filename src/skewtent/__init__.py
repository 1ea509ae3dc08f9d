"""Kneading calculus and isentrope geometry for skew tent maps.

Importing the package loads none of its modules: each public name, and
each submodule, is imported on first access (PEP 562), so a command line
process pays only for the modules its command runs.
"""

import importlib

_EXPORTS = {
    "symbolic": "C EQUAL GREATER GapSeq KneadingSeq L LESS R RL_INFINITY compare compare_prefix "
                "doubling_limit_prefix format_seq gap_decomposition in_class_M is_maximal "
                "minus_variant parse_seq parse_word star_product",
    "tentmap": "LapOverflowError TentParams entropy_lap kneading_prefix lap_counts orbit tent_eval",
    "theta": "ConvergenceError Quadratic2D ThetaSpec ThetaValue diagonal_stationary_beta "
             "m1_first_return theta_eval theta_grad theta_hessian theta_partial_sum thex_spec "
             "exceptional_spec",
    "algebraic": "BivarPoly compose_branch_condition diagonal_critical_points isolate_real_roots "
                 "slope_at_diagonal",
    "curves": "BracketError IsentropePoint KneadingClassField RasterGrid ScanRoot ThetaSignField "
              "ThetaValueField counterexample_scan kneading_bisect_beta raster trace_isentrope "
              "write_csv write_pgm",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
