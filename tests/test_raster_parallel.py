"""Rasters computed in forked shares.

``curves.raster`` deals its rows round-robin into one share per usable CPU
and forks a child for each share but the first.  These tests force that
path on small rasters by patching the CPU count and the per-share pixel
floor, and check that the grid, and so every file byte, is the serial
one, that a failed child's share is recomputed, and that no child is left
behind.
"""

import marshal
import math
import os
import threading
import types
from contextlib import contextmanager

import pytest
from test_raster_bytes import HEIGHT, PINS, WIDTH, WINDOW, _sha

from skewtent import (
    KneadingClassField,
    ThetaSignField,
    ThetaSpec,
    ThetaValueField,
    curves,
    parse_seq,
    raster,
    thex_spec,
    write_csv,
    write_pgm,
)
from skewtent.curves import exceptional_spec


@pytest.fixture
def forks(monkeypatch):
    """Force ``shares`` shares per raster and count the children forked."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def force(shares):
        monkeypatch.setattr(curves, "_usable_cpus", lambda: shares)
        monkeypatch.setattr(curves, "_MIN_SHARE_PIXELS", 1)
        return pids

    monkeypatch.setattr(os, "fork", counting_fork)
    return force


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _no_child_returns(tmp_path):
    """Fail if a forked child gets back out of ``raster`` into this test."""
    parent, marker = os.getpid(), tmp_path / "unwound"
    try:
        yield
    finally:
        if os.getpid() != parent:
            marker.write_text("a child left raster")
            os._exit(0)
    assert not marker.exists()


def _serial(field, window, width, height, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(curves, "_usable_cpus", lambda: 1)
        return raster(field, window, width, height)


def _same(a, b):
    assert (a.width, a.height, a.field) == (b.width, b.height, b.field)
    assert [repr(v) for v in a.values] == [repr(v) for v in b.values]  # NaN == NaN, -0.0 != 0.0


@pytest.mark.parametrize("shares", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_rasters_keep_their_digests_in_shares(name, shares, forks, tmp_path):
    pids = forks(shares)
    make_field, nan_pixels, pgm_sha, sidecar_sha, csv_sha = PINS[name]
    grid = raster(make_field(), WINDOW, WIDTH, HEIGHT)
    assert len(pids) == shares - 1
    _assert_no_child_left()
    assert sum(math.isnan(v) for v in grid.values) == nan_pixels
    write_pgm(grid, tmp_path / "r.pgm")
    write_csv(grid, tmp_path / "r.csv")
    assert _sha(tmp_path / "r.pgm") == pgm_sha
    assert _sha(tmp_path / "r.json") == sidecar_sha
    assert _sha(tmp_path / "r.csv") == csv_sha


FIELDS = {
    "thex_value": lambda: ThetaValueField(thex_spec()),
    "thex_sign": lambda: ThetaSignField(thex_spec()),
    "exceptional_value": lambda: ThetaValueField(exceptional_spec()),
    "rllrc_sign": lambda: ThetaSignField(ThetaSpec.from_seq(parse_seq("RLLRC"))),
    "class_8": lambda: KneadingClassField(8),
}

# (window, width, height): a window whose bottom row is beta = 0 (a row
# of NaN, and for classes a row outside U), one that is mostly outside U,
# one at the refused corner, and heights 2, 5 and 7 against 2-4 shares
GRIDS = [
    ((0.1, 0.9, 0.0, 0.9), 6, 7),
    ((0.1, 0.9, 0.2, 0.7), 5, 5),
    ((0.05, 0.95, 0.505, 0.995), 9, 2),
    ((0.6, 0.99, 0.52, 0.6), 4, 7),
]


@pytest.mark.parametrize("shares", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_forked_grids_equal_serial_grids(name, shares, forks, monkeypatch):
    for window, width, height in GRIDS:
        field = FIELDS[name]()
        want = _serial(field, window, width, height, monkeypatch)
        pids = forks(shares)
        got = raster(field, window, width, height)
        _same(got, want)
        assert len(pids) == min(shares, height) - 1
        pids.clear()
    _assert_no_child_left()


def test_the_grids_reach_nan_rows_and_rows_outside_u(monkeypatch):
    window, width, height = GRIDS[0]
    values = _serial(ThetaValueField(thex_spec()), window, width, height, monkeypatch).values
    assert all(math.isnan(v) for v in values[-width:])  # beta = 0
    classes = _serial(KneadingClassField(8), window, width, height, monkeypatch).values
    assert classes[-width:] == (-1.0,) * width


def test_a_child_that_exits_nonzero_has_its_share_recomputed(forks, monkeypatch):
    field = ThetaSignField(thex_spec())
    want = _serial(field, WINDOW, WIDTH, HEIGHT, monkeypatch)
    parent, rows = os.getpid(), curves._rows

    def failing_rows(f, alphas, betas):
        if os.getpid() != parent and betas[0] == want.axes()[1][1]:  # share 1's child
            os._exit(3)
        return rows(f, alphas, betas)

    pids = forks(3)
    monkeypatch.setattr(curves, "_rows", failing_rows)
    _same(raster(field, WINDOW, WIDTH, HEIGHT), want)
    assert len(pids) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, SystemExit])
def test_a_child_that_raises_has_its_share_recomputed(error, forks, monkeypatch, tmp_path):
    field = KneadingClassField(12)
    want = _serial(field, WINDOW, WIDTH, HEIGHT, monkeypatch)
    parent, rows = os.getpid(), curves._rows

    def raising_rows(f, alphas, betas):
        if os.getpid() != parent:
            raise error("a child's exception")
        return rows(f, alphas, betas)

    forks(4)
    monkeypatch.setattr(curves, "_rows", raising_rows)
    with _no_child_returns(tmp_path):
        got = raster(field, WINDOW, WIDTH, HEIGHT)
    _same(got, want)
    _assert_no_child_left()


def test_complete_data_with_a_nonzero_exit_is_recomputed(forks, monkeypatch):
    field = ThetaSignField(thex_spec())
    want = _serial(field, WINDOW, WIDTH, HEIGHT, monkeypatch)
    parent, rows, exit_ = os.getpid(), curves._rows, os._exit
    calls = []

    def counting_rows(f, alphas, betas):
        if os.getpid() == parent:
            calls.append(len(betas))
        return rows(f, alphas, betas)

    forks(2)
    monkeypatch.setattr(curves, "_rows", counting_rows)
    monkeypatch.setattr(os, "_exit", lambda code: exit_(5 if os.getpid() != parent else code))
    _same(raster(field, WINDOW, WIDTH, HEIGHT), want)
    assert calls == [HEIGHT // 2, HEIGHT // 2]  # share 0, then share 1 again here
    _assert_no_child_left()


def test_healthy_children_are_trusted_and_never_return_into_the_caller(forks, monkeypatch, tmp_path):
    parent, rows = os.getpid(), curves._rows
    calls = []

    def counting_rows(f, alphas, betas):
        if os.getpid() == parent:
            calls.append(len(betas))
        return rows(f, alphas, betas)

    forks(3)
    monkeypatch.setattr(curves, "_rows", counting_rows)
    with _no_child_returns(tmp_path):
        raster(ThetaValueField(thex_spec()), WINDOW, WIDTH, HEIGHT)
    assert calls == [7]  # share 0 of rows 0, 3, ..., 18; no share is recomputed
    _assert_no_child_left()


@pytest.mark.parametrize("cut", [lambda data: data[:-3], lambda data: marshal.dumps([])])
def test_short_data_from_a_child_is_recomputed(cut, forks, monkeypatch):
    field = ThetaValueField(exceptional_spec())
    want = _serial(field, WINDOW, WIDTH, HEIGHT, monkeypatch)
    forks(2)
    monkeypatch.setattr(curves, "marshal", types.SimpleNamespace(
        dumps=lambda obj: cut(marshal.dumps(obj)), loads=marshal.loads))
    _same(raster(field, WINDOW, WIDTH, HEIGHT), want)
    _assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_exception_in_the_parents_share_leaves_no_child(error, forks, monkeypatch):
    parent, rows = os.getpid(), curves._rows

    def raising_rows(f, alphas, betas):
        if os.getpid() == parent:
            raise error("the parent's share")
        return rows(f, alphas, betas)

    pids = forks(4)
    monkeypatch.setattr(curves, "_rows", raising_rows)
    with pytest.raises(error, match="the parent's share"):
        raster(KneadingClassField(16), WINDOW, WIDTH, HEIGHT)
    assert len(pids) == 3
    _assert_no_child_left()


def test_a_raster_below_the_pixel_floor_is_not_forked(forks, monkeypatch):
    pids = forks(4)
    monkeypatch.setattr(curves, "_MIN_SHARE_PIXELS", 1000)
    raster(ThetaSignField(thex_spec()), WINDOW, 40, 49)  # 1960 pixels: under two shares' floor
    assert pids == []
    raster(ThetaSignField(thex_spec()), WINDOW, 40, 50)
    assert len(pids) == 1
    _assert_no_child_left()


def test_a_live_thread_keeps_the_raster_in_process(monkeypatch):
    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(1) or fork())
    monkeypatch.setattr(curves, "_MIN_SHARE_PIXELS", 1)
    done = threading.Event()
    worker = threading.Thread(target=done.wait)
    worker.start()
    try:
        assert curves._usable_cpus() == 1
        raster(ThetaSignField(thex_spec()), WINDOW, WIDTH, HEIGHT)
    finally:
        done.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert pids == []
