"""Rasters agree pixel for pixel with the scalar path.

Each Theta pixel must equal ``theta_eval`` at ``grid.node(col, row)``, bit
for bit (its sign, for the sign field), and be NaN exactly where the scalar
call raises ``ConvergenceError`` or ``ZeroDivisionError``.  Class ids must
partition the pixels of U as ``kneading_prefix`` does, numbered in scan
order, with -1 outside U.  The windows cross beta = 0, leave (0, 1) in
alpha and reach the refused corner near alpha = 1 - beta.
"""

import math
import random

import pytest

from skewtent import (
    GapSeq,
    KneadingClassField,
    TentParams,
    ThetaSignField,
    ThetaSpec,
    ThetaValueField,
    kneading_prefix,
    parse_seq,
    raster,
    thex_spec,
)
from skewtent.theta import ConvergenceError, exceptional_spec, theta_eval

# (window, width, height); the first has an exact beta = 0 row
WINDOWS = [
    ((0.05, 0.95, -0.5, 0.5), 9, 5),
    ((-0.25, 1.25, 0.505, 0.995), 13, 9),
    ((0.05, 0.95, 0.505, 0.995), 12, 10),
    ((0.3, 0.7, -0.9, 1.1), 7, 11),
]


def _windows(seed, count: int = 3):
    """The fixed windows, then ``count`` seeded ones."""
    yield from WINDOWS
    rng = random.Random(seed)
    for _ in range(count):
        a0 = rng.uniform(-0.3, 0.6)
        b0 = rng.uniform(0.3, 0.7)
        window = (a0, a0 + rng.uniform(0.2, 0.9), b0, b0 + rng.uniform(0.1, 0.4))
        yield window, rng.randint(2, 14), rng.randint(2, 14)


def _gap_spec(rng: random.Random) -> ThetaSpec:
    m1 = rng.randint(1, 7)
    head = (m1, *(rng.randint(0, m1) for _ in range(rng.randint(0, 6))))
    period = tuple(rng.randint(0, m1) for _ in range(rng.randint(1, 3)))
    return ThetaSpec(GapSeq(head, period))


SPECS = {
    "thex": thex_spec,
    "exceptional": exceptional_spec,
    "rllrc": lambda: ThetaSpec.from_seq(parse_seq("RLLRC")),
    **{f"gaps{seed}": (lambda seed=seed: _gap_spec(random.Random(seed))) for seed in range(4)},
}


def _sign(v: float) -> float:
    return 0.0 if v == 0 else math.copysign(1.0, v)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("field_type", [ThetaValueField, ThetaSignField])
def test_theta_raster_matches_theta_eval(name, field_type):
    spec = SPECS[name]()
    refused = 0
    for window, width, height in _windows(name):
        grid = raster(field_type(spec), window, width, height)
        assert len(grid.values) == width * height
        for idx, v in enumerate(grid.values):
            a, b = grid.node(idx % width, idx // width)
            try:
                want = theta_eval(spec, a, b).value
            except (ConvergenceError, ZeroDivisionError):
                refused += 1
                assert math.isnan(v), (a, b, v)
                continue
            if field_type is ThetaSignField:
                want = _sign(want)
            assert repr(v) == repr(want), (a, b)
    assert refused  # the windows do reach refused points


@pytest.mark.parametrize("depth", [1, 5, 12])
def test_class_raster_matches_kneading_prefix(depth):
    for window, width, height in _windows(depth):
        grid = raster(KneadingClassField(depth), window, width, height)
        ids: dict[str, int] = {}
        for idx, v in enumerate(grid.values):
            a, b = grid.node(idx % width, idx // width)
            if not (0 < a < 1 and 0 < b <= 1 and TentParams(a, b).in_u):
                assert v == -1.0, (a, b)
                continue
            key = "".join(kneading_prefix(TentParams(a, b), depth))
            assert v == ids.setdefault(key, len(ids)), (a, b)


def test_unknown_field_is_a_type_error():
    with pytest.raises(TypeError, match="unknown raster field"):
        raster(object(), (0.3, 0.7, 0.55, 0.95), 4, 4)
