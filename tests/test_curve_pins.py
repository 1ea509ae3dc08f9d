"""Outputs of the curve layer and the lap counter, pinned by SHA-256.

The digests cover every node of isentrope traces over a seeded corpus of
kneading sequences, every root and label of counterexample scans, and the
lap counts (or the overflow message) at seeded points of U, so any change
in a located beta, a residual, a verification verdict, a label or a count
shows up here.  One more digest covers the diagonal stationary point (or
its refusal) over a corpus of words, presets and seeded gap specs.
"""

import hashlib
import random

from skewtent import tentmap
from skewtent import (
    LapOverflowError,
    TentParams,
    ThetaSpec,
    counterexample_scan,
    diagonal_stationary_beta,
    exceptional_spec,
    in_class_M,
    is_maximal,
    lap_counts,
    parse_seq,
    thex_spec,
    trace_isentrope,
)

ALPHAS = [0.05 + 0.9 * i / 79 for i in range(80)]
LAP_DEPTHS = (1, 2, 8, 16, 20)
LAP_CAP = 20_000  # set as tentmap._LAP_CAP for the pinned lap counts


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _trace_words(seed: int = 11, n_seeded: int = 12):
    """RLC, RLLRC, R L^k R C for k = 2-11, seeded maximal class-M words of
    5-16 symbols and a few periodic sequences."""
    words = ["RLC"] + ["R" + "L" * k + "RC" for k in range(2, 12)]
    rng = random.Random(seed)
    seeded: list[str] = []
    while len(seeded) < n_seeded:
        n = rng.randint(5, 16)
        w = "R" + "".join(rng.choice("LR") for _ in range(n - 2)) + "C"
        m = parse_seq(w)
        if w not in words + seeded and is_maximal(m) and in_class_M(m) == "yes":
            seeded.append(w)
    return words + seeded + ["RL(R)", "RLRRRL(RL)", "RLL(RL)"]


def _trace_lines():
    lines = []
    for w in _trace_words():
        for pt in trace_isentrope(parse_seq(w), ALPHAS):
            lines.append(f"{w} {pt.alpha!r} {pt.beta!r} {pt.residual_theta!r} {pt.kneading_ok!r}")
    return lines


def _scan_lines():
    """The thex scan at 30 values of alpha0, plus verticals of three
    C-terminated words, whose labels stop at the word's C."""
    cases = [("thex", thex_spec(), 0.475 + 0.045 * i / 29, 0.535, 0.995) for i in range(30)]
    cases += [(w, ThetaSpec.from_seq(parse_seq(w)), a, 0.62, 0.98)
              for w in ("RLC", "RLLRC", "RLLLRC") for a in (0.58, 0.6, 0.62)]
    lines = []
    for name, spec, a0, lo, hi in cases:
        try:
            roots = counterexample_scan(spec, a0, lo, hi)
        except ValueError as exc:
            lines.append(f"{name} {a0!r} ValueError: {exc}")
            continue
        lines.extend(f"{name} {a0!r} {r.beta!r} {r.relation}" for r in roots)
    return lines


def _lap_points(seed: int = 3, n: int = 400):
    rng = random.Random(seed)
    points = [TentParams(0.5, 1.0), TentParams(0.5, 0.999), TentParams(0.5, 0.75)]
    while len(points) < n:
        b = rng.uniform(0.5, 1.0)
        p = TentParams(rng.uniform(1 - b, b), b)
        if p.in_u:
            points.append(p)
    return points


def _lap_lines():
    lines = []
    for p in _lap_points():
        for depth in LAP_DEPTHS:
            try:
                got = repr(lap_counts(p, depth))
            except LapOverflowError as exc:
                got = f"LapOverflowError: {exc}"
            lines.append(f"{p.alpha!r} {p.beta!r} {depth} {got}")
    return lines


def _stationary_cases(seed: int = 5, n_gaps: int = 60):
    """The trace words, thex and exceptional presets, seeded R^inf-tail gap
    specs, two gap specs with a second root in the m1 bracket and one whose
    bracket lies above the last grid node."""
    cases = [(w, lambda w=w: ThetaSpec.from_seq(parse_seq(w))) for w in _trace_words()]
    cases += [("thex", thex_spec), ("exceptional", exceptional_spec)]
    rng = random.Random(seed)
    for _ in range(n_gaps):
        m1 = rng.randint(1, 9)
        gaps = [m1] + [rng.randint(0, m1) for _ in range(rng.randint(0, 7))]
        text = "gaps=" + ",".join(map(str, gaps)) + ";tail=R"
        cases.append((text, lambda text=text: ThetaSpec.from_text(text)))
    for text in ("gaps=2,1,0,0,1,2;tail=R", "gaps=2,2,2,1,0,2,0;tail=R", "gaps=700;tail=R"):
        cases.append((text, lambda text=text: ThetaSpec.from_text(text)))
    return cases


def _stationary_lines():
    lines = []
    for name, make in _stationary_cases():
        try:
            got = repr(diagonal_stationary_beta(make()))
        except ValueError as exc:
            got = f"{type(exc).__name__}: {exc}"
        lines.append(f"{name} {got}")
    return lines


def test_trace_nodes_pinned():
    lines = _trace_lines()
    assert len(lines) == 26 * 80
    assert _digest(lines) == TRACE_DIGEST


def test_scan_roots_and_labels_pinned():
    assert _digest(_scan_lines()) == SCAN_DIGEST


def test_stationary_points_pinned():
    lines = _stationary_lines()
    assert sum("consistent with m1" in line for line in lines) == STATIONARY_NONE
    assert sum("ambiguous" in line for line in lines) == STATIONARY_AMBIGUOUS
    assert _digest(lines) == STATIONARY_DIGEST


def test_lap_counts_pinned(monkeypatch):
    monkeypatch.setattr(tentmap, "_LAP_CAP", LAP_CAP)
    lines = _lap_lines()
    assert sum("LapOverflowError" in line for line in lines) == LAP_OVERFLOWS
    assert _digest(lines) == LAP_DIGEST


# computed by running the piece-list lap counter and the full-depth probes
# that preceded the merged counter and the capped probes
TRACE_DIGEST = "0211e60db9c91a4fe8fb827fdc07c798d92301c6c0e1b50d9ef3a9cf3c4ca552"
SCAN_DIGEST = "518da624231c8e62a4243d73b6d87d904855b184841fca40ac913ff3476af166"
LAP_DIGEST = "8dd27ce0ce78fbe0191e54f7639927a6a6f347b114fe55d8374e94f30be56133"
LAP_OVERFLOWS = 258
# computed by the stationary search that evaluated d_alpha at every grid
# node and took its range and grid as arguments, over the same 91 cases
STATIONARY_DIGEST = "00a0f0ed8d139000e4aefd7e94802f049a1b3550a9b56ce6c7cb3ff2d28aee6b"
STATIONARY_NONE = 6
STATIONARY_AMBIGUOUS = 2
