"""Raster output pinned byte for byte.

The SHA-256 digests of the PGM, its sidecar and the CSV were taken from the
straightforward per-pixel implementation; any change to the raster hot path
(Theta evaluation, kneading prefixes, the raster loop, the writers) must
leave every byte in place.  The window reaches the refused corner near
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
        "dc92ebf6c4fba4c71ebde636e5f4c543a3061302e4bf6ec6aa42352014a5773c",
    ),
    "exceptional_value": (
        lambda: ThetaValueField(exceptional_spec()), 171,
        "d3b6a9a4ca8e86b5f77714052ca5a684b8a94a28e49e05c75d147c196f076f3b",
        "911336f7419943b3103de7b60bb07860ae610eae0b73c34bf32a3c8d4f803795",
        "716596e169d12cc63c7551422f2926854a119d8a80662710e4163337dbd117fc",
    ),
    "rllrc_sign": (
        lambda: ThetaSignField(ThetaSpec.from_seq(parse_seq("RLLRC"))), 122,
        "cd78556d8164d8e8a22ca2299b0933a70fe97866697f2b35b5fd06e83f293b1d",
        "14a0dfa32bef07e7b903f167a895021b353ab7f369e5cf8ca24ce8d65caee53d",
        "7f5b84cb3661cabfa87b788ceb018dd53c157da66f0b826c413e7416d6baf5de",
    ),
    "kneading_class_12": (
        lambda: KneadingClassField(12), 0,
        "d36b9bb4e2683b746f93eb09d8bd87a288f1714037b9ddb51d46998b3fdc8fbe",
        "4845fb36388996638f4acd4933e066c3403006bc2156227d07267044d13ca799",
        "e8580225aafbad2caf627f422818cfd85917fe7752261db1b5917eae46de1199",
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
