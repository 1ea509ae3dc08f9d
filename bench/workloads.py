"""The four benchmark workloads.

Each workload is built from its seed alone: construction is the set-up
(import done, specs and presets built, seeded input pools filled), and
``tasks()`` then yields an endless, deterministic stream of tasks.  A task
is one user-level job (one raster, one isentrope trace, one diagonal
analysis, one CLI command).  ``run`` is the timed part; ``check`` is the
task's oracle, run untimed, and returns a list of problems (empty when the
output is correct).

Library calls go through module attributes (``curves.raster``, not a name
bound at import), so that the tracer's wrappers see them.

The round of slots in each workload is fixed and only the parameters are
seeded, so the mix of task kinds, and with it every rate and percentile,
stays the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from skewtent import algebraic, curves, symbolic, tentmap, theta

LOG_PHI = math.log((1 + 5 ** 0.5) / 2)
RLLRC_BETA0 = 0.7236067977499790  # 1/2 + sqrt(5)/10
RLLRC_SLOPE = -0.8090169943749474  # -(sqrt(5)+3)/(2 sqrt(5)+2)
THEX_SIGNS = (-1.0, 1.0, -1.0)  # at alpha = 0.4875, beta = THEX_BETAS


class Task:
    __slots__ = ("kind", "run", "check", "pixels")

    def __init__(self, kind, run, check, pixels=0):
        self.kind = kind
        self.run = run
        self.check = check
        self.pixels = pixels


def _sign(v: float) -> float:
    return 0.0 if v == 0 else math.copysign(1.0, v)


def _gap_text(rng: random.Random) -> str:
    m1 = rng.randint(1, 6)
    head = [m1] + [rng.randint(0, m1) for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.5:
        tail = "tail=R"
    else:
        tail = "period=" + ",".join(str(rng.randint(0, m1)) for _ in range(rng.randint(1, 3)))
    return "gaps=" + ",".join(map(str, head)) + ";" + tail


def _kneading_word(rng: random.Random, lo: int, hi: int) -> str:
    """A seeded finite word R...C of length lo..hi (C included), filtered
    with is_maximal and in_class_M so that it is an admissible kneading
    sequence with an isentrope in U."""
    while True:
        n = rng.randint(lo, hi)
        word = "R" + "".join(rng.choice("LR") for _ in range(n - 2)) + "C"
        m = symbolic.parse_seq(word)
        if symbolic.is_maximal(m) and symbolic.in_class_M(m) == "yes":
            return word


class Workload:
    name = ""
    trace_rounds = 1  # rounds of slots in each pass of a 20-second traced run

    def __init__(self, seed: int, scale: float = 1.0, out_dir: str = ".bench_out"):
        self.scale = scale
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        # oracle sampling draws from its own stream, so checks never shift
        # the task stream
        self.check_rng = random.Random(f"{self.name}:{seed}:check")
        self.inprocess = False
        self.slots = []
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def size(self, lo: int, hi: int) -> int:
        return max(2, round(self.rng.randint(lo, hi) * self.scale))

    def tasks(self):
        while True:
            for slot in self.slots:
                yield slot()


# -- raster ------------------------------------------------------------------


class RasterWorkload(Workload):
    """Level-set rasters of Theta and of kneading classes over seeded windows
    inside U, written as PGM with sidecar or as CSV."""

    name = "raster"
    trace_rounds = 7

    def setup(self):
        self.thex = curves.thex_spec()
        self.exceptional = curves.exceptional_spec()
        self.rllrc = theta.ThetaSpec.from_seq(symbolic.parse_seq("RLLRC"))
        self.counter = 0
        # side ranges are set so that every slot costs about the same, which
        # keeps the latency distribution unimodal and p50, p90 steady
        self.slots = [
            lambda: self.theta_task("theta_sign", self.thex, 64, 68, "pgm"),
            lambda: self.theta_task("theta_value", self.exceptional, 96, 120, "pgm"),
            lambda: self.theta_task("theta_sign", self.rllrc, 112, 136, "pgm"),
            lambda: self.theta_task("theta_value", self.gap_spec(), 88, 112, "csv"),
            lambda: self.class_task(128, 152, "pgm"),
            lambda: self.theta_task("theta_sign", self.exceptional, 88, 112, "csv"),
            lambda: self.theta_task("theta_value", self.thex, 64, 72, "pgm"),
            lambda: self.class_task(120, 144, "csv"),
        ]

    def gap_spec(self):
        return theta.ThetaSpec.from_text(_gap_text(self.rng))

    def window(self):
        """A seeded window inside the full thex window; it reaches the
        corner near alpha = 1 - beta where the convergence guard refuses."""
        r = self.rng
        a0 = r.uniform(0.05, 0.3)
        a1 = min(0.95, a0 + r.uniform(0.5, 0.65))
        b0 = r.uniform(0.505, 0.6)
        b1 = min(0.995, b0 + r.uniform(0.33, 0.39))
        return (a0, a1, b0, b1)

    def path(self, fmt: str) -> str:
        self.counter += 1
        return os.path.join(self.out_dir, f"raster{self.counter % 4}.{fmt}")

    def theta_task(self, field_name, spec, lo, hi, fmt):
        w = self.size(lo, hi)
        h = self.size(lo, hi)
        window = self.window()
        field = (curves.ThetaSignField if field_name == "theta_sign" else curves.ThetaValueField)(spec)
        path = self.path(fmt)

        def run():
            return _raster_and_write(field, window, w, h, fmt, path)

        def check(out):
            problems = _check_files(out, fmt, path)
            problems += self.check_theta_pixels(out[0], spec, field_name)
            if spec is self.thex:
                problems += _check_thex_signs(spec)
            return problems

        return Task(field_name, run, check, w * h)

    def class_task(self, lo, hi, fmt):
        w = self.size(lo, hi)
        h = self.size(lo, hi)
        depth = self.rng.randint(8, 16)
        window = self.window()
        field = curves.KneadingClassField(depth)
        path = self.path(fmt)

        def run():
            return _raster_and_write(field, window, w, h, fmt, path)

        def check(out):
            return _check_files(out, fmt, path) + self.check_classes(out[0], depth)

        return Task("kneading_class", run, check, w * h)

    def check_theta_pixels(self, grid, spec, field_name, samples: int = 4):
        """Sampled pixels agree with the exact Fraction evaluation wherever
        |Theta| exceeds the float evaluation's own error bound."""
        problems = []
        for _ in range(samples):
            idx = self.check_rng.randrange(len(grid.values))
            a, b = grid.node(idx % grid.width, idx // grid.width)
            v = grid.values[idx]
            try:
                tv = theta.theta_eval(spec, a, b)
            except (theta.ConvergenceError, ZeroDivisionError):
                if not math.isnan(v):
                    problems.append(f"pixel ({a!r}, {b!r}) = {v!r} where evaluation is refused")
                continue
            if math.isnan(v):
                problems.append(f"NaN pixel at ({a!r}, {b!r}) where evaluation is admitted")
                continue
            exact = theta.theta_eval(spec, Fraction(a), Fraction(b)).value
            if abs(Fraction(tv.value) - exact) > Fraction(tv.error_bound):
                problems.append(f"float Theta off exact by more than error_bound at ({a!r}, {b!r})")
            if field_name == "theta_value" and v != tv.value:
                problems.append(f"pixel {v!r} != theta_eval {tv.value!r}")
            if field_name == "theta_sign" and abs(exact) > tv.error_bound and v != _sign(exact):
                problems.append(f"sign pixel {v!r} disagrees with exact Theta at ({a!r}, {b!r})")
        return problems

    def check_classes(self, grid, depth, samples: int = 6):
        """Equal class ids mean equal recomputed prefixes, distinct ids
        distinct prefixes; -1 exactly outside U."""
        problems = []
        prefixes = {}
        for _ in range(samples):
            idx = self.check_rng.randrange(len(grid.values))
            a, b = grid.node(idx % grid.width, idx // grid.width)
            v = grid.values[idx]
            in_u = 0 < a < 1 and 0 < b <= 1 and tentmap.TentParams(a, b).in_u
            if v == -1.0:
                if in_u:
                    problems.append(f"class -1 inside U at ({a!r}, {b!r})")
                continue
            if not in_u:
                problems.append(f"class {v!r} outside U at ({a!r}, {b!r})")
                continue
            prefixes[idx] = (v, "".join(tentmap.kneading_prefix(tentmap.TentParams(a, b), depth)))
        seen = list(prefixes.values())
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                if (seen[i][0] == seen[j][0]) != (seen[i][1] == seen[j][1]):
                    problems.append(f"class ids {seen[i][0]}, {seen[j][0]} disagree with prefixes")
        return problems


def _raster_and_write(field, window, w, h, fmt, path):
    grid = curves.raster(field, window, w, h)
    if fmt == "pgm":
        return grid, curves.write_pgm(grid, path)
    curves.write_csv(grid, path)
    return grid, None


def _check_files(out, fmt, path):
    grid, sidecar = out
    problems = []
    n = grid.width * grid.height
    if len(grid.values) != n:
        problems.append(f"raster holds {len(grid.values)} values, expected {n}")
    nan = sum(math.isnan(v) for v in grid.values)
    if fmt == "pgm":
        with open(path, "rb") as fh:
            data = fh.read()
        header = f"P5\n{grid.width} {grid.height}\n255\n".encode()
        if not data.startswith(header) or len(data) != len(header) + n:
            problems.append("PGM header or size wrong")
        elif data.count(curves.SENTINEL_GRAY, len(header)) != nan:
            problems.append("sentinel gray count differs from NaN pixel count")
        with open(os.path.splitext(path)[0] + ".json") as fh:
            side = json.load(fh)
        if side != sidecar or set(side) != {"field", "window", "width", "height", "min", "max",
                                            "sentinel_gray"}:
            problems.append("sidecar differs from the returned mapping")
    else:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "alpha,beta,value" or len(lines) != n + 1:
            problems.append("CSV header or row count wrong")
    return problems


def _check_thex_signs(spec):
    got = tuple(_sign(theta.theta_eval(spec, curves.THEX_ALPHA0, b).value)
                for b in curves.THEX_BETAS)
    return [] if got == THEX_SIGNS else [f"thex signs {got} != {THEX_SIGNS}"]


# -- curves ------------------------------------------------------------------


class CurvesWorkload(Workload):
    """Kneading-order bisection: isentrope traces, counterexample scans, the
    diagonal stationary point and lap-count entropy.  No raster."""

    name = "curves"
    trace_rounds = 20

    def setup(self):
        self.thex = curves.thex_spec()
        self.rlc = symbolic.parse_seq("RLC")
        self.family = ["R" + "L" * k + "RC" for k in range(2, 9)]
        self.polys = {}
        # fixed-cost scans make up the middle of the latency distribution
        # and the fixed-cost stationary point and depth-16 entropy its top,
        # so that p50 and p90 fall inside tight clusters
        seeded_scan = lambda: self.scan_task(self.rng.uniform(0.475, 0.52), pinned=False)
        cheap_entropy = lambda: self.entropy_half_task(self.rng.uniform(0.7, 0.95))
        self.slots = [
            cheap_entropy,
            lambda: self.scan_task(curves.THEX_ALPHA0, pinned=True),
            lambda: self.trace_task(self.rng.choice(["RLC", "RLLRC"])),
            self.entropy_rlc_task,
            seeded_scan,
            lambda: self.trace_task(self.rng.choice(self.family)),
            cheap_entropy,
            seeded_scan,
            lambda: self.trace_task(_kneading_word(self.rng, 5, 12)),
            seeded_scan,
            lambda: self.entropy_half_task(0.999, depth=16),
            self.stationary_task,
            seeded_scan,
        ]

    def trace_task(self, word):
        m = symbolic.parse_seq(word)
        n = self.size(30, 60)
        a_lo = self.rng.uniform(0.2, 0.35)
        a_hi = self.rng.uniform(0.5, 0.6)
        alphas = [a_lo + (a_hi - a_lo) * i / (n - 1) for i in range(n)]

        def run():
            return curves.trace_isentrope(m, alphas)

        def check(points):
            if len(points) != n:
                return [f"trace of {word} returned {len(points)} nodes, expected {n}"]
            poly = self.polys.get(word)
            if poly is None:
                poly = self.polys[word] = algebraic.compose_branch_condition(word)
            scale = sum(abs(float(c)) for c in poly.coeffs.values())
            bad = [p.alpha for p in points
                   if p.kneading_ok and abs(poly.evaluate(p.alpha, p.beta)) > 1e-9 * scale]
            return [f"branch polynomial of {word} nonzero at ok nodes alpha={bad}"] if bad else []

        return Task("trace_isentrope", run, check)

    def scan_task(self, alpha0, pinned):
        lo, hi = curves.THEX_BETAS[0], curves.THEX_BETAS[-1]

        def run():
            return curves.counterexample_scan(self.thex, alpha0, lo, hi)

        def check(roots):
            labels = [r.relation for r in roots]
            problems = []
            if "greater" in labels:
                problems.append(f"scan at alpha0={alpha0!r} labels a root greater")
            if pinned and (len(roots) < 2 or "less" not in labels):
                problems.append(f"thex scan gave {labels}, expected >= 2 roots with a less label")
            for r in roots:
                v = theta.theta_eval(self.thex, alpha0, r.beta).value
                if not lo <= r.beta <= hi or abs(v) > 1e-9:
                    problems.append(f"scan root {r.beta!r} is not a root (Theta {v!r})")
            return problems

        return Task("counterexample_scan", run, check)

    def stationary_task(self):
        def run():
            return theta.diagonal_stationary_beta(self.thex)

        def check(b):
            da, db = theta.theta_grad(self.thex, b, b)
            return [] if math.hypot(da, db) <= 1e-9 else [f"|grad Theta| = {math.hypot(da, db)!r} at {b!r}"]

        return Task("diagonal_stationary_beta", run, check)

    def entropy_half_task(self, beta, depth=None):
        depth = depth or self.rng.randint(14, 16)
        p = tentmap.TentParams(0.5, beta)

        def run():
            return tentmap.entropy_lap(p, depth)

        def check(h):
            return [] if abs(h - math.log(2 * beta)) <= 0.03 else [f"entropy {h!r} at beta={beta!r}"]

        return Task("entropy_lap", run, check)

    def entropy_rlc_task(self):
        """Entropy at a node of the RLC isentrope, which is log(phi)."""
        alpha = self.rng.uniform(0.3, 0.6)
        depth = self.rng.randint(14, 16)

        def run():
            node = curves.kneading_bisect_beta(self.rlc, alpha)
            return node, tentmap.entropy_lap(tentmap.TentParams(node.alpha, node.beta), depth)

        def check(out):
            node, h = out
            if not node.kneading_ok or abs(h - LOG_PHI) > 0.03:
                return [f"entropy {h!r} on RLC node {node}"]
            return []

        return Task("entropy_lap", run, check)


# -- exact -------------------------------------------------------------------


class ExactWorkload(Workload):
    """Exact rational algebra: diagonal analyses of finite words, Theta and
    its derivatives on Fraction points, symbolic order and class tests."""

    name = "exact"
    trace_rounds = 200

    def setup(self):
        self.specs = {
            "thex": curves.thex_spec(),
            "RLC": theta.ThetaSpec.from_seq(symbolic.parse_seq("RLC")),
            "RLLRC": theta.ThetaSpec.from_seq(symbolic.parse_seq("RLLRC")),
        }
        self.trend = {}
        self.slots = [
            lambda: self.diagonal_task(self.rng.randint(2, 24)),
            lambda: self.theta_task("thex", diagonal=False),
            lambda: self.diagonal_task(None, _kneading_word(self.rng, 5, 19)),
            lambda: self.theta_task(self.rng.choice(["RLC", "RLLRC"]), diagonal=False),
            self.symbolic_task,
            lambda: self.diagonal_task(None, self.rng.choice(["RLC", "RLLRC"])),
            lambda: self.theta_task(self.rng.choice(sorted(self.specs)), diagonal=True),
            self.symbolic_task,
        ]

    def random_seq(self, maximal=False):
        """A seeded sequence starting with R, finite or eventually periodic,
        of at most 64 symbols."""
        r = self.rng
        while True:
            if r.random() < 0.5:
                seq = symbolic.KneadingSeq(("R",) + tuple(r.choice("LR") for _ in range(r.randint(3, 62))))
            else:
                pre = ("R",) + tuple(r.choice("LR") for _ in range(r.randint(0, 16)))
                per = tuple(r.choice("LR") for _ in range(r.randint(1, 64 - len(pre))))
                seq = symbolic.KneadingSeq(pre, per)
            if not maximal or symbolic.is_maximal(seq):
                return seq

    def diagonal_task(self, k, word=None):
        word = word or "R" + "L" * k + "RC"

        def run():
            poly = algebraic.compose_branch_condition(word)
            roots = algebraic.diagonal_critical_points(poly)
            return poly, [(b0,) + algebraic.slope_at_diagonal(poly, b0) for b0 in roots]

        def check(out):
            poly, rows = out
            problems = []
            dpoly = poly.partial("alpha")
            for b0, (one, slope), _quad in rows:
                if not 0.5 < b0 < 1 or one != 1:
                    problems.append(f"{word}: diagonal point {b0} or direction {one} wrong")
                if abs(float(dpoly.evaluate(float(b0), float(b0)))) > 1e-9 * sum(
                        abs(float(c)) for c in dpoly.coeffs.values()):
                    problems.append(f"{word}: d_alpha p does not vanish at {b0}")
            if word == "RLC" and [(r[0], r[1][1]) for r in rows] != [(Fraction(2, 3), Fraction(-1))]:
                problems.append(f"RLC gave {rows}, expected 2/3 and -1 exactly")
            if word == "RLLRC" and (len(rows) != 1 or abs(rows[0][0] - RLLRC_BETA0) > 1e-13
                                    or abs(rows[0][1][1] - RLLRC_SLOPE) > 1e-13):
                problems.append(f"RLLRC gave {rows}")
            if k is not None:
                if len(rows) != 1:
                    return problems + [f"R L^{k} R C has {len(rows)} diagonal points"]
                b0, slope = float(rows[0][0]), abs(float(rows[0][1][1]) + 1)
                self.trend[k] = (b0, slope)
                for k2, (b2, s2) in self.trend.items():
                    if (k2 < k and not (b2 < b0 and s2 > slope)) or (k2 > k and not (b2 > b0 and s2 < slope)):
                        problems.append(f"R L^k R C trend not monotone between k={k2} and k={k}")
            return problems

        return Task("diagonal_analysis", run, check)

    def dyadic_point(self, diagonal):
        r = self.rng
        while True:
            q = 2 ** r.randint(4, 10)
            b = Fraction(r.randint(q // 2 + 1, q - 1), q)
            if diagonal:
                return b, b
            lo = math.floor((1 - 0.99 * b) * q) + 1
            hi = b * q - 1
            if lo <= hi:
                return Fraction(r.randint(lo, int(hi)), q), b

    def theta_task(self, name, diagonal):
        spec = self.specs[name]
        a, b = self.dyadic_point(diagonal)

        def run():
            return (theta.theta_eval(spec, a, b), theta.theta_grad(spec, a, b),
                    theta.theta_hessian(spec, a, b))

        def check(out):
            tv, (da, db), _quad = out
            problems = []
            fv = theta.theta_eval(spec, float(a), float(b))
            if abs(Fraction(fv.value) - tv.value) > Fraction(fv.error_bound):
                problems.append(f"{name}: float Theta off exact by more than error_bound at ({a}, {b})")
            if diagonal and (tv.value != 0 or da + db != 0):
                problems.append(f"{name}: Theta or its diagonal derivative nonzero at ({a}, {b})")
            return problems

        return Task("theta_fraction", run, check)

    def symbolic_task(self):
        m = self.random_seq(maximal=True)
        other = self.random_seq()

        def run():
            return (symbolic.in_class_M(m), symbolic.is_maximal(other),
                    symbolic.compare(m, other), symbolic.compare(other, m))

        def check(out):
            verdict, other_max, c1, c2 = out
            problems = []
            if verdict not in ("yes", "no", "unknown"):
                problems.append(f"in_class_M verdict {verdict!r}")
            if c1 != -c2 or symbolic.compare(m, m) != 0:
                problems.append(f"compare not antisymmetric on {m}, {other}")
            if not other_max and symbolic.in_class_M(other) != "no":
                problems.append(f"non-maximal {other} not refused by in_class_M")
            return problems

        return Task("symbolic", run, check)


# -- cli ---------------------------------------------------------------------

JSON_KEYS = {
    "theta": {"alpha", "beta", "spec", "value", "error_bound", "terms_used"},
    "grad": {"alpha", "beta", "d_alpha", "d_beta"},
    "hessian": {"alpha", "beta", "a", "b", "c"},
    "diagonal": {"seq", "polynomial", "candidates"},
    "counterexample": {"alpha0", "beta_lo", "beta_hi", "spec", "roots"},
    "entropy": {"alpha", "beta", "depth", "entropy_nats"},
    "raster_pgm": {"pgm", "sidecar", "min", "max"},
    "raster_csv": {"csv", "width", "height"},
}
CANDIDATE_KEYS = {"beta0", "beta0_exact", "slopes", "tangent_slope_exact", "quadratic"}


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class CliWorkload(Workload):
    """Fresh ``python -m skewtent.cli`` processes over every subcommand."""

    name = "cli"
    trace_rounds = 20

    def setup(self):
        self.src = os.path.abspath("src")
        self.counter = 0
        self.slots = [
            self.knead_args, lambda: self.point_args("theta"), lambda: self.point_args("grad"),
            lambda: self.point_args("hessian"), self.isentrope_args, self.diagonal_args,
            self.counterexample_args, self.entropy_args,
            lambda: self.raster_args("theta_sign", "pgm", "--preset", "thex"),
            lambda: self.raster_args("theta_value", "csv", "--preset", "thex"),
            lambda: self.raster_args("kneading_class", "pgm"),
        ]
        self.slots = [self.as_task(make) for make in self.slots]

    # argv builders: each returns (argv, oracle over (rc, stdout))

    def spec_args(self):
        r = self.rng.random()
        if r < 0.3:
            return ["--preset", "thex"], curves.thex_spec()
        if r < 0.4:
            return ["--preset", "exceptional"], curves.exceptional_spec()
        if r < 0.7:
            word = _kneading_word(self.rng, 5, 12)
            return ["--seq", word], theta.ThetaSpec.from_seq(symbolic.parse_seq(word))
        text = _gap_text(self.rng)
        return ["--gaps", text], theta.ThetaSpec.from_text(text)

    def point(self):
        b = round(self.rng.uniform(0.6, 0.99), 6)
        a = round(self.rng.uniform(1.05 - b, b - 0.02), 6)
        return a, b

    def knead_args(self):
        a, b = self.point()
        depth = self.rng.randint(8, 48)

        def expect(out):
            return out.strip() == "".join(tentmap.kneading_prefix(tentmap.TentParams(a, b), depth))

        return ["knead", "--alpha", repr(a), "--beta", repr(b), "--depth", str(depth)], None, expect

    def point_args(self, cmd):
        flags, spec = self.spec_args()
        a, b = self.point()

        def expect(doc):
            if cmd == "theta":
                tv = theta.theta_eval(spec, a, b)
                return (doc["value"], doc["error_bound"], doc["terms_used"], doc["spec"]) == (
                    tv.value, tv.error_bound, tv.terms_used, spec.gaps.to_text())
            if cmd == "grad":
                return [doc["d_alpha"], doc["d_beta"]] == list(theta.theta_grad(spec, a, b))
            q = theta.theta_hessian(spec, a, b)
            return (doc["a"], doc["b"], doc["c"]) == (q.a, q.b, q.c)

        return [cmd, *flags, "--alpha", repr(a), "--beta", repr(b)], cmd, expect

    def isentrope_args(self):
        word = self.rng.choice(["RLC", "RLLRC", _kneading_word(self.rng, 5, 12)])
        a0 = round(self.rng.uniform(0.2, 0.35), 6)
        a1 = round(self.rng.uniform(0.5, 0.6), 6)
        steps = self.rng.randint(5, 20)
        m = symbolic.parse_seq(word)

        def expect(out):
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            # the grid's last node is a0 + (a1 - a0), which may round off a1
            if len(rows) != steps or float(rows[0][0]) != a0 or abs(float(rows[-1][0]) - a1) > 1e-12:
                return False
            for row in rows:
                pt = curves.trace_isentrope(m, [float(row[0])])[0]
                if row[1:] != [repr(pt.beta), repr(pt.residual_theta)]:
                    return False
            return True

        return ["isentrope", "--seq", word, "--alpha-from", repr(a0), "--alpha-to", repr(a1),
                "--steps", str(steps)], None, expect

    def diagonal_args(self):
        word = self.rng.choice(["RLC", "RLLRC", _kneading_word(self.rng, 5, 12)])

        def expect(doc):
            poly = algebraic.compose_branch_condition(word)
            roots = algebraic.diagonal_critical_points(poly)
            if doc["polynomial"] != poly.to_text() or len(doc["candidates"]) != len(roots):
                return False
            for cand, b0 in zip(doc["candidates"], roots):
                (one, other), quad = algebraic.slope_at_diagonal(poly, b0)
                exact = isinstance(b0, Fraction)
                if set(cand) != CANDIDATE_KEYS or cand["beta0"] != float(b0) or cand["slopes"] != [
                        float(one), float(other)] or cand["quadratic"] != {
                        "a": float(quad.a), "b": float(quad.b), "c": float(quad.c)}:
                    return False
                if cand["beta0_exact"] != (str(b0) if exact else None):
                    return False
            return True

        return ["diagonal", "--seq", word], "diagonal", expect

    def counterexample_args(self):
        a0 = round(self.rng.uniform(0.475, 0.52), 6)
        samples = self.rng.randint(200, 400)

        def expect(doc):
            roots = curves.counterexample_scan(curves.thex_spec(), a0, curves.THEX_BETAS[0],
                                               curves.THEX_BETAS[-1], samples=samples)
            return doc["roots"] == [{"beta": r.beta, "relation": r.relation} for r in roots]

        return ["counterexample", "--preset", "thex", "--alpha0", repr(a0), "--samples",
                str(samples)], "counterexample", expect

    def entropy_args(self):
        a, b = self.point()
        depth = self.rng.randint(10, 12)  # deeper lap counts would set the peak RSS

        def expect(doc):
            return doc["entropy_nats"] == tentmap.entropy_lap(tentmap.TentParams(a, b), depth)

        return ["entropy", "--alpha", repr(a), "--beta", repr(b), "--depth", str(depth)], "entropy", expect

    def raster_args(self, field, fmt, *spec_flags):
        a0 = round(self.rng.uniform(0.05, 0.3), 4)
        b0 = round(self.rng.uniform(0.505, 0.6), 4)
        window = (a0, round(a0 + self.rng.uniform(0.5, 0.65), 4), b0,
                  round(min(0.995, b0 + self.rng.uniform(0.33, 0.39)), 4))
        side = self.size(64, 64)
        depth = self.rng.randint(8, 16)
        self.counter += 1
        out = os.path.join(self.out_dir, f"cli{self.counter % 4}")
        argv = ["raster", "--field", field, *spec_flags, "--window", ",".join(map(repr, window)),
                "--size", f"{side}x{side}", "--out", out, "--format", fmt, "--depth", str(depth)]

        def expect(doc):
            if field == "kneading_class":
                fobj = curves.KneadingClassField(depth)
            else:
                fobj = (curves.ThetaSignField if field == "theta_sign" else curves.ThetaValueField)(
                    curves.thex_spec())
            grid = curves.raster(fobj, window, side, side)
            ref = out + "_ref." + fmt
            got = out + "." + fmt
            if fmt == "pgm":
                side_doc = curves.write_pgm(grid, ref)
                if (doc["min"], doc["max"]) != (side_doc["min"], side_doc["max"]):
                    return False
                with open(out + ".json") as f1, open(out + "_ref.json") as f2:
                    if f1.read() != f2.read():
                        return False
            else:
                curves.write_csv(grid, ref)
            with open(got, "rb") as f1, open(ref, "rb") as f2:
                return f1.read() == f2.read()

        return argv, f"raster_{fmt}", expect, side * side

    def as_task(self, make):
        def slot():
            argv, keys, expect, *pixels = make()

            def run():
                if self.inprocess:
                    return _main_inprocess(argv)
                proc = subprocess.run([sys.executable, "-m", "skewtent.cli", *argv],
                                      capture_output=True, text=True, timeout=120,
                                      env=dict(os.environ, PYTHONPATH=self.src))
                return proc.returncode, proc.stdout, proc.stderr

            def check(out):
                rc, stdout, stderr = out
                if rc != 0:
                    return [f"{argv[0]} exited {rc}: {stderr.strip()[:200]}"]
                if keys is None:
                    return [] if expect(stdout) else [f"{argv} output differs from the library"]
                doc = _strict_json(stdout)
                if set(doc) != JSON_KEYS[keys]:
                    return [f"{argv[0]} JSON keys {sorted(doc)}"]
                return [] if expect(doc) else [f"{argv} output differs from the library"]

            return Task(argv[0], run, check, sum(pixels))

        return slot


def _main_inprocess(argv):
    """The traced run calls ``cli.main`` in this process instead."""
    from skewtent import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (RasterWorkload, CurvesWorkload, ExactWorkload, CliWorkload)}
