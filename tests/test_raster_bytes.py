"""Raster output pinned byte for byte.

The SHA-256 digests of the PGM, its sidecar and the CSV were taken from the
straightforward per-pixel implementation; any change to the raster hot path
(Theta evaluation, kneading prefixes, the raster loop, the writers) must
leave every byte in place.  The CSV digests were retaken once, when the
last column and bottom row became the window's own ends (0.95 and 0.505,
where the interior formula gave 0.9500000000000001 and 0.5049999999999999).  The window reaches the refused corner near
alpha = 1 - beta, so sentinel pixels and NaN CSV values are covered.
"""

import hashlib
import math

import pytest

from skewtent import (
    KneadingClassField,
    ThetaSignField,
    ThetaSpec,
    ThetaValueField,
    parse_seq,
    raster,
    thex_spec,
    write_csv,
    write_pgm,
)
from skewtent.curves import exceptional_spec

WINDOW = (0.05, 0.95, 0.505, 0.995)
WIDTH, HEIGHT = 24, 20

# field builder, NaN pixels, sha256 of (.pgm, .json sidecar, .csv)
PINS = {
    "thex_sign": (
        lambda: ThetaSignField(thex_spec()), 171,
        "bfed2f392fdf77aa5fd8961d152ddbdb3bc9c6f25814e0a631bfd332745ba4f8",
        "72c439798f251b9a0308360ca61728a619f684ac14372ec777f0a58fefea265e",
        "bef57bb8eda084a88927ea491e35d0cc6375ccd7df4c5afd8a2245e8654dcb9a",
    ),
    "exceptional_value": (
        lambda: ThetaValueField(exceptional_spec()), 171,
        "d3b6a9a4ca8e86b5f77714052ca5a684b8a94a28e49e05c75d147c196f076f3b",
        "911336f7419943b3103de7b60bb07860ae610eae0b73c34bf32a3c8d4f803795",
        "36985aee89a56633d676981cebb38e90abdd87d1e06a694ee90a9b90ae23dcfc",
    ),
    "rllrc_sign": (
        lambda: ThetaSignField(ThetaSpec.from_seq(parse_seq("RLLRC"))), 122,
        "cd78556d8164d8e8a22ca2299b0933a70fe97866697f2b35b5fd06e83f293b1d",
        "14a0dfa32bef07e7b903f167a895021b353ab7f369e5cf8ca24ce8d65caee53d",
        "b1225b877cf876fb5275956a3924fa2ca9d28dffd8617ef9d3e4fd00bc7e43d2",
    ),
    "kneading_class_12": (
        lambda: KneadingClassField(12), 0,
        "d36b9bb4e2683b746f93eb09d8bd87a288f1714037b9ddb51d46998b3fdc8fbe",
        "4845fb36388996638f4acd4933e066c3403006bc2156227d07267044d13ca799",
        "ffbe903a547f71948349062a9881adcff6f3ccb621f4651b23290ecc6ef73bd0",
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_raster_files_are_byte_stable(name, tmp_path):
    make_field, nan_pixels, pgm_sha, sidecar_sha, csv_sha = PINS[name]
    grid = raster(make_field(), WINDOW, WIDTH, HEIGHT)
    assert sum(math.isnan(v) for v in grid.values) == nan_pixels
    write_pgm(grid, tmp_path / "r.pgm")
    write_csv(grid, tmp_path / "r.csv")
    assert _sha(tmp_path / "r.pgm") == pgm_sha
    assert _sha(tmp_path / "r.json") == sidecar_sha
    assert _sha(tmp_path / "r.csv") == csv_sha
