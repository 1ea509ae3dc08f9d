"""Command line front end.

Scalar results are printed as single-line JSON with sorted keys; traces and
rasters go to CSV or PGM files.  Every run is deterministic given its flags;
failures exit nonzero after printing one machine-readable error line to
stderr.

``import skewtent`` loads none of the library's modules.  A command loads
``argparse``, the library modules it runs and the standard modules they
import (``fractions`` for ``diagonal``), and no more: the records are
plain classes, so no command loads ``dataclasses`` or ``inspect``.
``python -X importtime -m skewtent.cli knead ...`` shows which modules load.
"""

import argparse
import json
import math
import sys


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


def _spec_from_args(args):
    from .symbolic import parse_seq
    from .theta import ThetaSpec, exceptional_spec, thex_spec
    if getattr(args, "preset", None) == "thex":
        return thex_spec()
    if getattr(args, "preset", None) == "exceptional":
        return exceptional_spec()
    if getattr(args, "seq", None):
        return ThetaSpec.from_seq(parse_seq(args.seq))
    if getattr(args, "gaps", None):
        return ThetaSpec.from_text(args.gaps)
    raise ValueError("provide --seq, --gaps or a preset")


def _kneading_word(text: str):
    from .symbolic import NO, in_class_M, is_maximal, parse_seq
    m = parse_seq(text)
    if not is_maximal(m):
        raise ValueError(f"{text} is not maximal, so it is not a kneading sequence")
    if in_class_M(m) == NO:
        raise ValueError(f"{text} is maximal but in_class_M says no: not a kneading sequence")
    return m


def _maybe_exact(x):
    from fractions import Fraction
    return str(x) if isinstance(x, Fraction) else None


def cmd_knead(args) -> None:
    from .tentmap import TentParams, kneading_prefix
    if not 0 <= args.eps_c < 1:
        raise ValueError(f"--eps-c must lie in [0, 1), got {args.eps_c}")
    p = TentParams(args.alpha, args.beta)
    print(kneading_prefix(p, args.depth, eps_c=args.eps_c))


def cmd_theta(args) -> None:
    from .theta import theta_eval
    if args.tol <= 0:
        raise ValueError(f"--tol must be positive, got {args.tol}")
    spec = _spec_from_args(args)
    tv = theta_eval(spec, args.alpha, args.beta, tol=args.tol)
    _emit({
        "alpha": args.alpha,
        "beta": args.beta,
        "spec": spec.gaps.to_text(),
        "value": tv.value,
        "error_bound": tv.error_bound,
        "terms_used": tv.terms_used,
    })


def cmd_grad(args) -> None:
    from .theta import theta_grad
    spec = _spec_from_args(args)
    da, db = theta_grad(spec, args.alpha, args.beta)
    _emit({"alpha": args.alpha, "beta": args.beta, "d_alpha": da, "d_beta": db})


def cmd_hessian(args) -> None:
    from .theta import theta_hessian
    spec = _spec_from_args(args)
    q = theta_hessian(spec, args.alpha, args.beta)
    _emit({"alpha": args.alpha, "beta": args.beta, "a": q.a, "b": q.b, "c": q.c})


def cmd_isentrope(args) -> None:
    from .curves import trace_csv, trace_isentrope
    from .theta import _nodes
    if args.tol <= 0:
        raise ValueError(f"--tol must be positive, got {args.tol}")
    m = _kneading_word(args.seq)
    n = args.steps
    alphas = _nodes(args.alpha_from, args.alpha_to, n - 1) if n > 1 else [args.alpha_from]
    points = trace_isentrope(m, alphas, tol=args.tol)
    text = trace_csv(points)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_diagonal(args) -> None:
    from .algebraic import compose_branch_condition, diagonal_critical_points, slope_at_diagonal
    if not _kneading_word(args.seq).is_finite:
        raise ValueError(f"{args.seq} is periodic: diagonal needs a finite, C-terminated word "
                         "such as RLC")
    poly = compose_branch_condition(args.seq)
    roots = diagonal_critical_points(poly)
    cands = []
    for b0 in roots:
        (one, other), quad = slope_at_diagonal(poly, b0)
        cands.append({
            "beta0": float(b0),
            "beta0_exact": _maybe_exact(b0),
            "slopes": [float(one), float(other)],
            "tangent_slope_exact": _maybe_exact(other),
            "quadratic": {"a": float(quad.a), "b": float(quad.b), "c": float(quad.c)},
        })
    _emit({"seq": args.seq, "polynomial": poly.to_text(), "candidates": cands})


def cmd_counterexample(args) -> None:
    from .curves import THEX_ALPHA0, THEX_BETAS, counterexample_scan
    spec = _spec_from_args(args)
    alpha0 = args.alpha0 if args.alpha0 is not None else THEX_ALPHA0
    beta_lo = args.beta_lo if args.beta_lo is not None else THEX_BETAS[0]
    beta_hi = args.beta_hi if args.beta_hi is not None else THEX_BETAS[-1]
    roots = counterexample_scan(spec, alpha0, beta_lo, beta_hi, samples=args.samples)
    _emit({
        "alpha0": alpha0,
        "beta_lo": beta_lo,
        "beta_hi": beta_hi,
        "spec": spec.gaps.to_text(),
        "roots": [{"beta": r.beta, "relation": r.relation} for r in roots],
    })


def cmd_raster(args) -> None:
    from .curves import KneadingClassField, ThetaSignField, ThetaValueField, raster, write_csv, write_pgm
    window = tuple(float(t) for t in args.window.split(","))
    if len(window) != 4 or not all(map(math.isfinite, window)):
        raise ValueError("--window needs four finite numbers a0,a1,b0,b1")
    try:
        width, height = (int(t) for t in args.size.split("x"))
    except ValueError:
        raise ValueError(f"--size needs WIDTHxHEIGHT, got {args.size!r}") from None
    if args.field == "kneading_class":
        field = KneadingClassField(args.depth)
    else:
        spec = _spec_from_args(args)
        field = ThetaValueField(spec) if args.field == "theta_value" else ThetaSignField(spec)
    grid = raster(field, window, width, height)
    if args.format == "csv":
        out = args.out if args.out.endswith(".csv") else args.out + ".csv"
        write_csv(grid, out)
        _emit({"csv": out, "width": width, "height": height})
    else:
        out = args.out if args.out.endswith(".pgm") else args.out + ".pgm"
        sidecar = write_pgm(grid, out)
        _emit({"pgm": out, "sidecar": out[: -len(".pgm")] + ".json",
               "min": sidecar["min"], "max": sidecar["max"]})


def cmd_entropy(args) -> None:
    from .tentmap import TentParams, entropy_lap
    p = TentParams(args.alpha, args.beta)
    _emit({"alpha": args.alpha, "beta": args.beta, "depth": args.depth,
           "entropy_nats": entropy_lap(p, args.depth)})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewtent",
        description="Kneading calculus, Theta series and isentrope geometry for skew tent maps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_point(sp, betas=True):
        sp.add_argument("--alpha", type=float, required=True)
        if betas:
            sp.add_argument("--beta", type=float, required=True)

    def add_spec(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--seq", help="kneading sequence, e.g. RLC or RLL(RL)")
        g.add_argument("--gaps", help="gap spec, e.g. 'gaps=6,5,0;tail=R' or 'gaps=1;period=0,1'")
        g.add_argument("--preset", choices=["thex", "exceptional"],
                       help="bundled counterexample gap data, or the exceptional diagonal demo")

    sp = sub.add_parser("knead", help="kneading prefix at a parameter point")
    add_point(sp)
    sp.add_argument("--depth", type=int, default=32)
    sp.add_argument("--eps-c", dest="eps_c", type=float, default=0.0)
    sp.set_defaults(func=cmd_knead)

    sp = sub.add_parser("theta", help="Theta value with error bound")
    add_spec(sp)
    add_point(sp)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("grad", help="first partials of Theta")
    add_spec(sp)
    add_point(sp)
    sp.set_defaults(func=cmd_grad)

    sp = sub.add_parser("hessian", help="second differential of Theta")
    add_spec(sp)
    add_point(sp)
    sp.set_defaults(func=cmd_hessian)

    sp = sub.add_parser("isentrope", help="trace an equi-kneading curve (CSV)")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--alpha-from", dest="alpha_from", type=float, required=True)
    sp.add_argument("--alpha-to", dest="alpha_to", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_isentrope)

    sp = sub.add_parser("diagonal", help="diagonal meet point and tangent slopes of a finite word")
    sp.add_argument("--seq", required=True)
    sp.set_defaults(func=cmd_diagonal)

    sp = sub.add_parser("counterexample", help="roots of Theta along a vertical with kneading labels")
    add_spec(sp)
    sp.add_argument("--alpha0", type=float)
    sp.add_argument("--beta-lo", dest="beta_lo", type=float)
    sp.add_argument("--beta-hi", dest="beta_hi", type=float)
    sp.add_argument("--samples", type=int, default=400)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("raster", help="level-set raster (PGM + sidecar JSON, or CSV)")
    sp.add_argument("--field", choices=["theta_value", "theta_sign", "kneading_class"], required=True)
    add_spec(sp)
    sp.add_argument("--depth", type=int, default=8, help="prefix depth for kneading_class")
    sp.add_argument("--window", required=True, help="a0,a1,b0,b1")
    sp.add_argument("--size", required=True, help="WIDTHxHEIGHT")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=["pgm", "csv"], default="pgm")
    sp.set_defaults(func=cmd_raster)

    sp = sub.add_parser("entropy", help="lap-count entropy estimate (nats)")
    add_point(sp)
    sp.add_argument("--depth", type=int, default=16)
    sp.set_defaults(func=cmd_entropy)

    return ap


def _check_numbers(args) -> None:
    """Every float flag must be finite and every integer flag (a depth, a
    step or sample count) positive."""
    for name, v in vars(args).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{flag} must be finite, got {v}")
        if isinstance(v, int) and v < 1:
            raise ValueError(f"{flag} must be positive, got {v}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_numbers(args)
        args.func(args)
    except (ValueError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
        text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(json.dumps({"error": text, "kind": type(exc).__name__}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
