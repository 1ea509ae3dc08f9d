"""Isentrope tracing, counterexample scanning and level-set rasters.

Curve points are located by bisection in beta using the parity order of
kneading sequences, which is monotone along verticals; the halvings run
inside the orbit walker (``tentmap.kneading_bisect_at``), and each probe
reads the orbit only up to the first symbol that decides it.  For a finite
word, a Newton prediction and two probes around it prove a bracket, and
the walker walks only the midpoints inside it: by the same monotonicity
every point is the plain bisection's, bit for bit.
Counterexample scans bisect the sign changes of Theta on a grid along a
vertical.  Theta need not be monotone there, but every magnitude term of
its series falls as beta rises, so the magnitude moments at a node bound
the error and the curvature of Theta above it.  With them the grid walk
proves the sign of a whole interval from its two evaluated ends and skips
its inner nodes, and the bisection proves a midpoint's sign from the
chord of the nearest evaluated points; Theta is evaluated only where no
sign is proven.  Rasters evaluate a scalar field on an inclusive
rectangular grid in deterministic row-major order (top row = largest
beta) so identical inputs give bit-identical output files.
Their rows are dealt round-robin into one share per usable CPU; forked
children compute every share but the caller's, and the shares are merged
back in row order.  Small rasters, one CPU or a live thread keep the rows
in process.
Kneading-class ids are assigned after the merge, so the bytes never
depend on the share count.
Every grid here is ``theta._nodes``, which ends at its own ends.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import sys
from itertools import chain, cycle, islice
from pathlib import Path

from .symbolic import C, EQUAL, GREATER, KneadingSeq, L, LESS, R, RL_INFINITY, Record
from .tentmap import TentParams, _word_gap, kneading_bisect_at, kneading_order_at, kneading_prefix_at
from .theta import ThetaSpec, _curvature_bound, _nodes, sign_change_roots, theta_row
from .theta import exceptional_spec, thex_spec  # noqa: F401  (presets)

NAN = float("nan")


class BracketError(RuntimeError):
    """The target curve does not cross the admissible beta range."""


class IsentropePoint(Record):
    __slots__ = _fields = ("alpha", "beta", "residual_theta", "kneading_ok")


class ScanRoot(Record):
    __slots__ = _fields = ("beta", "relation")  # relation: "less", "equal" (within depth) or "greater"


# -- presets -------------------------------------------------------------

THEX_ALPHA0 = 0.4875
THEX_BETAS = (0.535, 0.7, 0.995)


# -- curve location -------------------------------------------------------


def _residual(spec: ThetaSpec, alpha: float, beta: float) -> float:
    """Theta at (alpha, beta), NaN where it is refused.

    It reads only the value, so it runs ``theta_row``, which skips the
    roundoff sum where a closed-form majorant already admits the point; the
    value, and the NaN at each refused point, are ``theta_eval``'s."""
    return theta_row(spec, (alpha,), beta)[0]


def _label_text(spec: ThetaSpec) -> str:
    """The first ``_LABEL_DEPTH`` symbols of the spec's reference sequence
    (``ThetaSpec.to_kneading``), made without spelling out a longer L-run."""
    if spec.source is not None:
        return spec.source.text(_LABEL_DEPTH)
    gaps = islice(chain(spec.gaps.head, cycle(spec.gaps.period)), _LABEL_DEPTH)
    return "".join(R + L * min(g, _LABEL_DEPTH) for g in gaps)[:_LABEL_DEPTH]


def _spec(m: KneadingSeq) -> ThetaSpec | None:
    """The spec of m's residuals; RL^inf has no gap data and needs none."""
    return None if m == RL_INFINITY else ThetaSpec.from_seq(m)


# symbols read by a bisection probe, and by a verification or scan label
_BISECT_DEPTH = 64
_LABEL_DEPTH = 48


def kneading_bisect_beta(m: KneadingSeq, alpha: float) -> IsentropePoint:
    """Locate beta with K(alpha, beta) = m by bisection on the kneading order.

    The bracket starts at (max(1-alpha, alpha, 1/2) + 1e-9, 1) and halves
    until it is no wider than 1e-12 or its ends are adjacent floats.  The
    returned point carries the Theta residual of m's spec and a prefix
    verification: the 48 symbols of ``tentmap.kneading_prefix_at``, whose
    C band is 1e-6 for a finite m, must be m's first 48.  A probe reads the
    orbit only up to the first symbol that decides its order against m (a
    difference or a shared C), so 64 symbols per probe is an upper bound.

    Probes: the bracket ends and the halvings, which run in
    ``tentmap.kneading_bisect_at``, one loop for every probe's orbit.
    For m = wC with its C within 64 symbols, ``_newton`` predicts the root
    b of g(beta) = x_n - alpha, x_0 = beta following w's branches, from a
    trace's previous node or else the bracket halved to 1e-3.  Where probes
    at b -+ 2e-13 read LESS and GREATER, the walker replays the halvings
    but walks only the midpoints between them.  This relies on the order
    being monotone in beta along a vertical, the bisection's own premise:
    the other midpoints' orders are then known, so the point is the plain
    bisection's, bit for bit.  Periodic words and failed proofs run the
    plain bisection.  (alpha, beta) is checked once, as a ``TentParams`` at
    the bracket bottom, since every probe lies on the same vertical between
    it and beta = 1; a bad alpha gets the ``TentParams`` refusal.
    """
    return _bisector(m, _spec(m), 1e-12)(alpha)


def _bisector(m: KneadingSeq, spec, tol):
    """``kneading_bisect_beta`` at a given alpha for this m, its spec and
    the tolerance given by the caller, as a function of alpha: m's two
    target texts and its RL^inf test are made once."""
    label, eps_c = m.text(_LABEL_DEPTH), 1e-6 if m.is_finite else 0  # the verification's label and C band
    if m == RL_INFINITY:
        def boundary(alpha) -> IsentropePoint:  # the top boundary curve: K(alpha, 1) = RL^inf
            TentParams(alpha, 1.0)  # raises outside the parameter square
            ok = kneading_prefix_at(alpha, 1.0, len(label), eps_c) == label
            return IsentropePoint(alpha, 1.0, NAN, ok)
        return boundary
    target = m.text(_BISECT_DEPTH)
    word = m.pre if target[-1:] == C else None  # finite and spelled out to its C
    prev = NAN  # the last node's beta: the next node's Newton start

    def bisect(alpha) -> IsentropePoint:
        nonlocal prev
        lo = max(1 - alpha, alpha, 0.5) + 1e-9
        hi = 1.0
        if lo >= hi:
            raise BracketError(f"empty beta range at alpha={alpha}")
        TentParams(alpha, lo)  # the one (alpha, beta) check: every probe lies in [lo, 1]
        if kneading_order_at(alpha, lo, target) >= 0:
            raise BracketError(
                f"no valid bracket at alpha={alpha}: kneading at beta={lo:.6g} is not below target"
            )
        if kneading_order_at(alpha, hi, target) < 0:
            raise BracketError(f"no valid bracket at alpha={alpha}: top of range is below target")
        below, above = lo, hi  # no known ends: every midpoint is walked
        if word is not None:
            if not lo < prev < hi:  # no start yet, or not in this bracket: halve to 1e-3
                _, lo, hi = kneading_bisect_at(alpha, target, lo, hi, max(tol, 1e-3))
            b = _newton(alpha, word, prev if lo < prev < hi else 0.5 * (lo + hi))
            if (lo < b - 2e-13 and b + 2e-13 < hi
                    and kneading_order_at(alpha, b - 2e-13, target) == LESS
                    and kneading_order_at(alpha, b + 2e-13, target) == GREATER):
                below, above = b - 2e-13, b + 2e-13
        _, lo, hi = kneading_bisect_at(alpha, target, lo, hi, tol, below=below, above=above)
        beta = prev = 0.5 * (lo + hi)
        ok = kneading_prefix_at(alpha, beta, len(label), eps_c) == label
        return IsentropePoint(alpha, beta, _residual(spec, alpha, beta), ok)

    return bisect


def _newton(alpha, word: str, b: float) -> float:
    """At most four Newton steps on ``tentmap._word_gap`` from b; NaN at a zero slope."""
    for _ in range(4):
        g, dg = _word_gap(alpha, b, word)
        step = g / dg if dg else NAN
        b -= step
        if not abs(step) >= 1e-14:  # converged, or NaN
            break
    return b


def trace_isentrope(m: KneadingSeq, alphas, tol: float = 1e-12):
    """Bisect per grid node; failed nodes are reported with beta = NaN
    rather than aborting the trace.

    Each node runs the probes of ``kneading_bisect_beta``, and its Newton
    start is the previous node's beta where that lies in its bracket.  m's
    spec, which only sets the residuals, its target texts and its RL^inf
    test are functions of m alone and are made once per trace.  A sequence
    without a spec fails every node; RL^inf needs none and gives its beta = 1
    boundary points.  A NaN ``tol`` is refused.
    """
    if math.isnan(tol):
        raise ValueError(f"tol must not be NaN, got {tol}")
    try:
        bisect = _bisector(m, _spec(m), tol)
    except ValueError:
        return [IsentropePoint(a, NAN, NAN, False) for a in alphas]
    points: list[IsentropePoint] = []
    for a in alphas:
        try:
            points.append(bisect(a))
        except (BracketError, ValueError):
            points.append(IsentropePoint(a, NAN, NAN, False))
    return points


def counterexample_scan(
    spec: ThetaSpec,
    alpha0: float,
    beta_lo: float,
    beta_hi: float,
    samples: int = 400,
) -> list[ScanRoot]:
    """Roots of t -> Theta(alpha0, t) on [beta_lo, beta_hi] with the kneading
    relation of each root against the spec's sequence.

    A label is read from the float orbit at the float root, so a root on the
    curve of a C-terminated word can read less or greater (RLLRC at
    alpha0 = 0.58 reads greater): only a certified label could flag a root
    where the sequence lies strictly above the spec's own, where Theta
    cannot vanish.  The label depth stays a little below the bisection
    depth: a root located to double precision drifts off a curve orbit by
    about e^(depth * entropy), which must remain small against the orbit
    scale for the equal-within-depth label.  A label reads the orbit only
    up to the first symbol that decides it, so 48 is an upper bound.
    alpha0 must lie in (0, 1), the beta range in (0, 1] and samples be at
    least 1; other input is refused before anything is evaluated.

    The roots are those of ``sign_change_roots`` over the ``samples + 1``
    nodes ``theta._nodes(beta_lo, beta_hi, samples)``, with the bounds of
    ``theta._curvature_bound``.  On the vertical |x| and y fall as beta
    rises, and a term of the series is a constant times beta^-n, so the
    magnitude moments at a node bound the error of every point above it
    by E and |d^2 Theta/dbeta^2| there by M2.  The search walks the grid
    by subdivision and skips the inner nodes of an interval whose two
    evaluated ends prove their sign at every point between them, and its
    bisection takes a midpoint's sign from the chord of the nearest
    evaluated points where that proves it.  It reads only signs, a skipped
    node is never 0, NaN or next to a sign change, and a proven midpoint is
    never 0, so the roots are those of the search that evaluates every
    node and midpoint.
    """
    if not beta_lo < beta_hi:
        raise ValueError(f"need beta_lo < beta_hi, got {beta_lo} and {beta_hi}")
    if not (0 < alpha0 < 1 and 0 < beta_lo and beta_hi <= 1):
        raise ValueError(f"the scan needs alpha0 in (0,1) and beta in (0,1], "
                         f"got alpha0={alpha0} and beta range [{beta_lo}, {beta_hi}]")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    target = _label_text(spec)
    roots = sign_change_roots(lambda t: _residual(spec, alpha0, t), _nodes(beta_lo, beta_hi, samples),
                              lambda t: _curvature_bound(spec, alpha0, t))
    if not roots:
        raise ValueError("no sign change of Theta found on the requested range")

    # the checks above put each (alpha0, r) in the parameter square
    labels = {LESS: "less", EQUAL: "equal", GREATER: "greater"}
    return [ScanRoot(r, labels[kneading_order_at(alpha0, r, target)]) for r in roots]


# -- rasters ---------------------------------------------------------------


class ThetaValueField(Record):
    __slots__ = _fields = ("spec",)

    def describe(self) -> str:
        return f"theta_value[{self.spec.gaps.to_text()}]"


class ThetaSignField(Record):
    __slots__ = _fields = ("spec",)

    def describe(self) -> str:
        return f"theta_sign[{self.spec.gaps.to_text()}]"


class KneadingClassField(Record):
    __slots__ = _fields = ("depth",)

    def __init__(self, depth: int = 8) -> None:
        super().__init__(depth)

    def describe(self) -> str:
        return f"kneading_class[depth={self.depth}]"


class RasterGrid(Record):
    # values: row-major, top row = beta_range[1]
    __slots__ = _fields = ("alpha_range", "beta_range", "width", "height", "values", "field")

    def node(self, col: int, row: int) -> tuple[float, float]:
        """The node at (col, row), read off ``axes``."""
        alphas, betas = self.axes()
        return alphas[col], betas[row]

    def axes(self) -> tuple[list[float], list[float]]:
        """Node alphas by column, betas by row (top first): ``_nodes`` end to end."""
        (a0, a1), (b0, b1) = self.alpha_range, self.beta_range
        return _nodes(a0, a1, self.width - 1), _nodes(b1, b0, self.height - 1)


def raster(field, window, width: int, height: int) -> RasterGrid:
    """Evaluate a field on an inclusive grid over window = (a0, a1, b0, b1).

    Theta fields run one ``theta_row`` per row; its values are NaN where
    the convergence guard refuses evaluation or beta = 0.  ``theta_row`` is
    value-only: it skips the roundoff sum where a closed-form majorant
    already admits the pixel, and every value and refused pixel is the full
    fold's, so no pixel moves.  The kneading-class field emits -1 outside U
    and otherwise an integer id assigned per distinct prefix in scan order,
    building no ``TentParams`` per pixel: the beta half of the U test
    (0.5 < beta <= 1, and 1 - beta) is made once per row, and a row outside
    it is all -1.  Each prefix is one ``kneading_prefix_at`` walk, which
    classifies each iterate with one comparison chain.

    Rows are independent, so they are dealt round-robin into one share per
    CPU that the process may run on; the calling process computes share 0
    and a forked child each other share, and the shares are merged in row
    order (``_shared_rows``).  A raster runs serially, in process, where
    there is no ``os.fork``, one usable CPU or another live thread, or
    where a share would hold fewer than ``_MIN_SHARE_PIXELS`` pixels.
    Class ids are assigned after the merge, in scan order, so the grid and
    every file written from it are the same bytes on either path.
    """
    a0, a1, b0, b1 = window
    if width < 2 or height < 2:
        raise ValueError("raster needs width, height >= 2")
    if not all(map(math.isfinite, window)):
        raise ValueError(f"window ends must be finite, got {tuple(window)}")
    if a1 <= a0 or b1 <= b0:
        raise ValueError("zero-area window")
    if not isinstance(field, (ThetaValueField, ThetaSignField, KneadingClassField)):
        raise TypeError(f"unknown raster field {field!r}")

    alphas, betas = RasterGrid((a0, a1), (b0, b1), width, height, (), "").axes()
    values = _shared_rows(field, alphas, betas)
    if isinstance(field, KneadingClassField):
        class_ids: dict[str, int] = {}
        values = [-1.0 if key is None else float(class_ids.setdefault(key, len(class_ids)))
                  for key in values]
    return RasterGrid((a0, a1), (b0, b1), width, height, tuple(values), field.describe())


def _rows(field, alphas, betas) -> list:
    """The pixels of these rows, row-major: Theta values (signs for a sign
    field), or for kneading classes each pixel's prefix key, None outside U.
    The field's pixel loop is chosen once per call."""
    pixels: list = []
    if isinstance(field, KneadingClassField):
        depth, outside = field.depth, [None] * len(alphas)
        for b in betas:
            if not (2 * b > 1 and b <= 1):  # the row's half of TentParams(a, b).in_u
                pixels.extend(outside)
                continue
            lo = 1 - b
            pixels.extend([kneading_prefix_at(a, b, depth) if lo < a < b else None for a in alphas])
    else:
        spec, sign = field.spec, isinstance(field, ThetaSignField)
        for b in betas:
            row = theta_row(spec, alphas, b)
            pixels.extend(row if not sign else [v if v != v else 0.0 if v == 0.0  # v != v: NaN
                                                else math.copysign(1.0, v) for v in row])
    return pixels


# The fewest pixels that a forked share must hold to pay for itself.  A
# fork, an 80 KB pipe and the reap took 2.1-2.6 ms (median) from a 27 MB
# process on a 2-vCPU x86-64 host under Python 3.11: the time of about
# 600-1300 pixels at 2-4.3 us each (kneading classes to thex signs).
_MIN_SHARE_PIXELS = 1000


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where rows are not forked: no
    ``os.fork`` or affinity call, or another live thread, which a forked
    child would not hold.  ``threading`` is looked up, not imported: a
    process that never loaded it has one thread."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _shared_rows(field, alphas, betas) -> list:
    """``_rows`` of every row, computed in shares: one per usable CPU, at
    most one per row and at least ``_MIN_SHARE_PIXELS`` pixels each.  Rows
    are dealt round-robin; this process computes share 0, a forked child
    each other share, and the shares are merged in row order.

    A child sends its share down a pipe as ``marshal`` bytes and leaves by
    ``os._exit``, also on an exception, so it never unwinds into the
    caller.  A share whose child could not be forked, exited nonzero or
    sent short data is computed here instead, so every pixel is ``_rows``'
    own.  Every child is reaped before this returns; on an exception here,
    ``KeyboardInterrupt`` included, the unreaped ones are killed first."""
    width, height = len(alphas), len(betas)
    n = min(_usable_cpus(), height, width * height // _MIN_SHARE_PIXELS)
    if n < 2:
        return _rows(field, alphas, betas)
    dealt = [betas[i::n] for i in range(n)]
    parts: list = [None] * n
    children: dict[int, tuple[int, int]] = {}  # unreaped pid -> (read end, share)
    parent = os.getpid()
    try:
        for i in range(1, n):
            try:
                read_end, write_end = os.pipe()
            except OSError:
                break  # this share and the rest are computed here
            try:
                pid = os.fork()
            except OSError:
                pid = -1
            if pid == 0:
                with open(write_end, "wb") as pipe:
                    pipe.write(marshal.dumps(_rows(field, alphas, dealt[i])))
                os._exit(0)
            os.close(write_end)
            if pid < 0:
                os.close(read_end)
                break
            children[pid] = (read_end, i)
        parts[0] = _rows(field, alphas, dealt[0])
        for pid, (read_end, i) in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            os.close(read_end)
            try:
                part = marshal.loads(data) if status == 0 else None
            except (EOFError, ValueError, TypeError):
                part = None  # short or garbled data
            if type(part) is list and len(part) == len(dealt[i]) * width:
                parts[i] = part
    finally:
        if os.getpid() != parent:
            os._exit(1)  # a child's exception ends here
        if children:
            import signal  # only on the way out of an exception: its import is not free
        for pid, (read_end, _) in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pixels: list = []
    for row in range(height):
        part = parts[row % n]
        if part is None:  # recomputed here, once per share
            part = parts[row % n] = _rows(field, alphas, dealt[row % n])
        start = row // n * width
        pixels.extend(part[start:start + width])
    return pixels


SENTINEL_GRAY = 255


def write_pgm(grid: RasterGrid, path: str | Path) -> dict:
    """Binary P5 PGM, maxval 255.  Finite values map affinely onto 0..254;
    NaN pixels take the reserved sentinel gray.  The mapping is recorded in
    a sidecar JSON next to the image."""
    path = Path(path)
    finite = [v for v in grid.values if not math.isnan(v)]
    vmin = min(finite) if finite else 0.0
    vmax = max(finite) if finite else 0.0
    span = vmax - vmin
    data = bytes([SENTINEL_GRAY if math.isnan(v) else 127 if span == 0
                  else round((v - vmin) / span * 254) for v in grid.values])
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode()
    path.write_bytes(header + data)
    sidecar = {
        "field": grid.field,
        "window": [grid.alpha_range[0], grid.alpha_range[1], grid.beta_range[0], grid.beta_range[1]],
        "width": grid.width,
        "height": grid.height,
        "min": vmin,
        "max": vmax,
        "sentinel_gray": SENTINEL_GRAY,
    }
    sidecar_path = path.with_suffix(".json")
    sidecar_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
    return sidecar


def write_csv(grid: RasterGrid, path: str | Path) -> None:
    """``alpha,beta,value`` rows in raster order, round-trip float format."""
    path = Path(path)
    alphas, betas = grid.axes()
    alpha_texts = [repr(a) for a in alphas]  # each column's text, made once
    lines = ["alpha,beta,value"]
    for row, b in enumerate(betas):
        beta_text = f",{b!r},"
        values = grid.values[row * grid.width:(row + 1) * grid.width]
        lines.extend(f"{a}{beta_text}{v!r}" for a, v in zip(alpha_texts, values))
    path.write_text("\n".join(lines) + "\n")


def trace_csv(points) -> str:
    lines = ["alpha,beta,value"]
    for pt in points:
        lines.append(f"{pt.alpha!r},{pt.beta!r},{pt.residual_theta!r}")
    return "\n".join(lines) + "\n"
