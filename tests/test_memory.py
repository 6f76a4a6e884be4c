"""Simulation memory is bounded by the window and the replicate tile, not by
the lag depth, the block or the replicate count; ``verify`` counts
exceedances without storing the replicate matrix, the ``simulate``
command writes each tile a block of rows at a time as it is summed and
``hill --sample`` reads one column of the sample's binary companion.
The order-j tuple sum walks and integrates its tuples a chunk at a time;
the order-0 sum reads the spike-image table a block at a time."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import matails.cli
import matails.limit_measures
import matails.ma_process as ma
import matails.sample_file
from matails import (INFINITE, ExplicitFinite, Geometric, Polynomial, TailModel, UnsupportedError,
                     UpperRect, hrv_scan, nu_m0_rect, nu_m_j_rect, simulate, spike_cover_number,
                     truncation_diagnostic)

ROOT = Path(__file__).resolve().parent.parent
PARETO1 = TailModel.standard_pareto(1.0)


def traced_peak(fn, *args, **kwargs):
    """Peak bytes allocated while ``fn`` runs, numpy buffers included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peak_does_not_grow_with_depth():
    args = (Geometric(0.5), INFINITE, PARETO1, (0, 1), 1 << 15, 3)
    shallow, shallow_peak = traced_peak(simulate, *args, trunc_eps=1e-2)
    deep, deep_peak = traced_peak(simulate, *args, trunc_eps=1e-14)
    assert deep.truncation_order >= 5 * shallow.truncation_order
    assert deep_peak <= 1.2 * shallow_peak


def test_counted_simulate_peak_does_not_grow_with_the_block():
    # 2^18 replicates fill a quarter block, 2^20 a whole one; either way a
    # task holds one tile's lag row and sums.
    sets = [((0, 5.0), (1, 5.0))]
    peaks = {}
    for n in (1 << 18, 1 << 20):
        args = (ExplicitFinite([1.0, 0.5]), 1, PARETO1, (0, 1), n, 3)
        batch, peaks[n] = traced_peak(simulate, *args, count=sets)
        assert 0 < batch.count(sets[0]) < n
    assert peaks[1 << 20] <= 1.2 * peaks[1 << 18]


def test_truncation_diagnostic_peak_does_not_grow_with_the_reference_depth():
    # The deep reference of Geometric(0.8) is 123 lags: whole-block tail
    # draws of 2^16 replicates held 64 MB.
    value, peak = traced_peak(truncation_diagnostic, Geometric(0.8), PARETO1, 0, 100.0, 1.0,
                              1 << 16, 5)
    assert value > 0.0
    assert peak < 8 * 2**20


def test_hrv_scan_stores_no_replicate_matrix(monkeypatch):
    monkeypatch.setattr(ma, "BLOCK_ROWS", 1 << 12)
    n, width = 1 << 16, 3
    rows = [(0, UpperRect({0: 1.0})), (1, UpperRect({0: 1.0, 2: 1.0}))]
    scan, peak = traced_peak(hrv_scan, ExplicitFinite([1.0, 0.5]), 1, PARETO1, rows, n, 20.0, seed=4)
    assert all(row.error is None for row in scan)
    assert peak < n * width * 8


def test_simulate_command_builds_rows_a_slice_at_a_time(tmp_path, monkeypatch):
    # The command holds no more than the 8 B/cell matrix that simulate
    # returns (it holds a few tiles) plus one block of ROW_SLICE cells as
    # index arrays, Python rows and text (well under 1 kB a cell).
    # Whole-matrix nonzero index arrays cost another 16 B/cell, 6 MB here.
    monkeypatch.setattr(matails.sample_file, "ROW_SLICE", 1024)
    n = 1 << 17
    cfg = tmp_path / "c.ini"
    cfg.write_text("[coefficients]\nfamily = explicit\nvalues = 1, 0.5\nm = 1\n"
                   "[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                   f"[run]\nn = {n}\nseed = 4\nwindow = 0:2\n")
    args = (ExplicitFinite([1.0, 0.5]), 1, PARETO1, (0, 2), n, 4)
    traced_peak(simulate, *args)  # one-time allocations (caches, lazy imports)
    _, simulate_peak = traced_peak(simulate, *args)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
    code, peak = traced_peak(matails.cli.main, argv)
    assert code == 0
    assert peak < simulate_peak + 1024 * 1024


def test_simulate_command_peak_at_the_default_row_slice(tmp_path):
    # At the default block of 2^14 cells the renderer's temporaries (int64
    # digit vectors, the uint8 text matrix, the compacted bytes) stay within
    # 4 MiB of what simulate itself holds.
    assert matails.sample_file.ROW_SLICE == 1 << 14
    n = 1 << 17
    cfg = tmp_path / "c.ini"
    cfg.write_text("[coefficients]\nfamily = explicit\nvalues = 1, 0.5\nm = 1\n"
                   "[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                   f"[run]\nn = {n}\nseed = 4\nwindow = 0:2\n")
    args = (ExplicitFinite([1.0, 0.5]), 1, PARETO1, (0, 2), n, 4)
    traced_peak(simulate, *args)  # one-time allocations (caches, lazy imports)
    _, simulate_peak = traced_peak(simulate, *args)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
    code, peak = traced_peak(matails.cli.main, argv)
    assert code == 0
    assert peak < simulate_peak + 4 * 1024 * 1024


def test_simulate_command_peak_does_not_grow_with_n(tmp_path):
    # The command renders each tile as it comes, so at any n it holds at most:
    # - while a tile renders: that tile, the `threads` tiles in flight, their
    #   lag rows and what the renderer holds for one block of ROW_SLICE cells
    #   (240 B a cell allowed: the block's cut, its temporaries for half a
    #   block at a time and the block's text, about 130 B a cell measured);
    # - at a hand-off: threads + 2 tiles (the one just rendered, the next and
    #   the one the freed worker starts), its lag rows and the last block's
    #   text and index arrays (about 1 MiB, 64 B a cell).
    # That is 7.75 MiB at 2^16-row tiles of width 3; 2^18 and 2^20 read 6.0
    # MiB, by which tiles are alive at once (6.6 to 7.4 MiB when the renderer
    # took a whole block at once).  Holding the 8 B/cell matrix took 6 and 24
    # MiB at these sizes.
    assert ma.TILE_ROWS == 1 << 16
    threads, tile, lag_rows = 1, 3 * ma.TILE_ROWS * 8, 2 * ma.TILE_ROWS * 8
    rendering = (threads + 1) * tile + lag_rows + 240 * matails.sample_file.ROW_SLICE
    handoff = (threads + 2) * tile + lag_rows + 64 * matails.sample_file.ROW_SLICE
    bound = max(rendering, handoff)
    peaks = {}
    for n in (1 << 10, 1 << 18, 1 << 20):  # the first run takes the one-time allocations
        cfg = tmp_path / f"n{n}.ini"
        cfg.write_text("[coefficients]\nfamily = explicit\nvalues = 1, 0.5\nm = 1\n"
                       "[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                       f"[run]\nn = {n}\nseed = 4\nwindow = 0:2\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        code, peaks[n] = traced_peak(matails.cli.main, argv)
        assert code == 0
    assert peaks[1 << 18] <= bound and peaks[1 << 20] <= bound
    assert peaks[1 << 20] < 8 * 2**20


def test_simulate_json_peak_does_not_grow_with_n(tmp_path, monkeypatch):
    # The JSON document is written a row at a time, so beyond the tiles and
    # one block of rows the command holds nothing per replicate: 0.22 to
    # 0.27 MiB at 2^11 to 2^15, by which tiles are in flight and what ran
    # before.  Both sizes run more than threads + 2 = 3 tiles.  Building its
    # rows list first took 0.8 and 3.0 MiB at 2^11 and 2^13, about 120 B per row.
    monkeypatch.setattr(ma, "TILE_ROWS", 1 << 10)
    monkeypatch.setattr(matails.sample_file, "ROW_SLICE", 1 << 10)
    peaks = {}
    for n in (1 << 8, 1 << 12, 1 << 14):  # the first run takes the one-time allocations
        cfg = tmp_path / f"n{n}.ini"
        cfg.write_text("[coefficients]\nfamily = explicit\nvalues = 1, 0.5\nm = 1\n"
                       "[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                       f"[run]\nn = {n}\nseed = 4\nwindow = 0:2\n")
        argv = ["simulate", "--config", str(cfg), "--format", "json", "--out", str(tmp_path / "s.json")]
        code, peaks[n] = traced_peak(matails.cli.main, argv)
        assert code == 0
    assert peaks[1 << 14] <= 1.5 * peaks[1 << 12]
    assert peaks[1 << 14] < 2**19


def test_sample_reader_peak_does_not_grow_with_the_width(tmp_path):
    # n replicates of index 0, alone or among four indices: either way the
    # reader holds the length-n vector and a header, about 8 kB beyond it.
    # The CSV parser held a block of 2^14 * 16 bytes and its parse arrays,
    # about 2.8 MB.
    n = 1 << 15
    for width in (1, 4):
        path = tmp_path / f"w{width}.csv"
        np.save(f"{path}.npy", np.asfortranarray(np.arange(1.0, 1.0 + n * width).reshape(width, n).T))
        (tmp_path / f"w{width}.csv.meta.json").write_text(f'{{"n": {n}, "window": [0, {width - 1}]}}')
        values, peak = traced_peak(matails.sample_file._values_from_sample_file, str(path), 0)
        assert values[-1] == n
        assert peak < values.nbytes + 64 * 1024


def test_hill_peak_is_its_column_and_one_copy(tmp_path):
    # hill holds the column it reads and the copy np.partition makes of it
    # for the top k + 1 values: two vectors of n doubles, whatever n and
    # the window's width, where the CSV parser added about 2.8 MB.
    for n in (1 << 15, 1 << 17):
        path = str(tmp_path / f"n{n}.csv")
        argv = ["simulate", "--config", str(ROOT / "demos" / "experiment.ini"),
                "--set", f"run.n={n}", "--set", "run.window=-2:1", "--out", path]
        assert matails.cli.main(argv) == 0
        code, peak = traced_peak(matails.cli.main, ["hill", "--sample", path, "--k", "100"])
        assert code == 0
        assert peak < 2 * 8 * n + 256 * 1024


def test_tuple_sum_peak_does_not_grow_with_the_tuple_count():
    # K constraints 5 apart under five nonzero lags: 5^K covering K-tuples,
    # all exact.  One (5^7, 7, 7) float array of them alone is 30 MB.
    psi = ExplicitFinite([1.0, 0.8, 0.6, 0.4, 0.2])
    peaks = {}
    for size in (6, 7):
        rect = UpperRect({5 * i: 1.0 for i in range(size)})
        value, peaks[size] = traced_peak(nu_m_j_rect, psi, 4, 1.0, size - 1, rect)
        assert value.value == pytest.approx(3.0**size, rel=1e-12)
        assert value.stderr is None
    assert max(peaks.values()) < 8 * 2**20
    # Five times the tuples, one more member and constraint per tuple.
    assert peaks[7] < 1.5 * peaks[6]


def test_refused_and_zero_hidden_rows_hold_one_table_block(monkeypatch):
    # Ten constraints m + 10 apart have cover number 10: the j = 9 row has
    # (m + 1)^10 covering tuples, over the budget, and the j = 1 row none.
    # The covering sweep reads the spike-image table a block at a time, and
    # neither row joins it: joined, it held 10 (m + 1) positions of 11
    # floats, 9.4 MB at m = 4000 (725 MB at m = 3 * 10^5, full-size blocks).
    monkeypatch.setattr(matails.limit_measures, "CHUNK_CELLS", 1 << 12)
    for m in (1000, 4000):
        rect = UpperRect({i * (m + 10): 1.0 for i in range(10)})

        def refused():
            with pytest.raises(UnsupportedError, match="tuple budget"):
                nu_m_j_rect(Polynomial(2.0), m, 1.0, 9, rect)

        _, refused_peak = traced_peak(refused)
        zero, zero_peak = traced_peak(nu_m_j_rect, Polynomial(2.0), m, 1.0, 1, rect)
        assert zero.value == 0.0
        assert max(refused_peak, zero_peak) < 256 * 1024


# Runs its arguments as a child and prints the child's exit code and peak RSS
# (kB).  A child's ru_maxrss starts from the high-water mark of the process
# that spawned it, so the measured run is spawned by this fresh interpreter,
# not by the test process.
RSS_PROBE = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def cli_peak_rss_kb(*argv: str) -> int:
    """Peak RSS (kB) of a child ``matails`` run with ``argv``, which must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "matails.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    code, maxrss_kb = map(int, probe.stdout.split())
    assert code == 0, probe.stderr
    return maxrss_kb


def test_order_zero_peak_does_not_grow_with_the_constraints():
    # nu_m0_rect reads the spike-image table a block of CHUNK_CELLS cells at
    # a time and stops right of min K, so it holds about one psi vector; the
    # whole table would hold |K| floats a position: 800 MB for ten constraints
    # further apart than the depth 10^6 (value 0), 48 MB for thirty adjacent
    # ones at depth 2 * 10^5.
    far = UpperRect({i * 3 * 10**6: 1.0 for i in range(10)})
    value, peak = traced_peak(nu_m0_rect, Polynomial(2.0), 10**6, 1.0, far)
    assert value.value == 0.0 and peak < 16 * 2**20
    near = UpperRect({k: 1.0 for k in range(30)})
    value, peak = traced_peak(nu_m0_rect, Polynomial(2.0), 2 * 10**5, 1.0, near)
    assert value.value > 0.0 and peak < 8 * 2**20


def test_spike_table_stops_at_the_last_nonzero_lag():
    # Geometric(0.5) underflows to 0 after about 1075 lags, so at depth 10^6
    # the table of ten far-apart constraints has about 10^4 positions, not
    # 10^7 (800 MB).
    rect = UpperRect({i * 3 * 10**6: 1.0 for i in range(10)})
    cover, peak = traced_peak(spike_cover_number, Geometric(0.5), 10**6, rect)
    assert cover == 10 and peak < 12 * 2**20


def test_verify_demo_peak_rss(tmp_path):
    # One million replicates at depth 27: whole-block draws peaked near
    # 500 MB, whole-block lag rows near 92 MB.
    peak = cli_peak_rss_kb("verify", "--config", str(ROOT / "demos" / "experiment.ini"),
                           "--out", str(tmp_path / "verify.csv"))
    assert peak < 64 * 1024


def test_multi_block_verify_peak_rss(tmp_path):
    # Four 2^20-replicate blocks on two threads: whole-block lag rows held
    # about 64 MB per worker.
    cfg = tmp_path / "hidden.ini"
    cfg.write_text("[coefficients]\nfamily = explicit\nvalues = 1, 0.5\nm = 1\n"
                   "[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                   "[rows]\nrow0 = 0; 0:1\nrow1 = 1; 0:1, 2:1\n"
                   f"[run]\nn = {4 << 20}\nt_grid = 1000, 10000\nseed = 42\n")
    peak = cli_peak_rss_kb("verify", "--config", str(cfg), "--out", str(tmp_path / "verify.csv"),
                           "--threads", "2")
    assert peak < 64 * 1024


def test_sample_round_trip_peak_rss(tmp_path):
    # The demo at 200,000 replicates of a width-2 window peaked at 63 MB
    # (simulate, whole-matrix nonzero index arrays) and 53 MB (hill, the
    # whole file parsed at once); blocks bring them to about 46 and 36 MB.
    samples = str(tmp_path / "samples.csv")
    simulate_peak = cli_peak_rss_kb("simulate", "--config", str(ROOT / "demos" / "experiment.ini"),
                                    "--set", "run.n=200000", "--out", samples)
    hill_peak = cli_peak_rss_kb("hill", "--sample", samples, "--k", "1000",
                                "--out", str(tmp_path / "hill.json"))
    assert simulate_peak < 52 * 1024
    assert hill_peak < 44 * 1024


def test_simulate_demo_peak_rss(tmp_path):
    # The demo as shipped, 10^6 replicates: holding the matrix peaked at
    # 57 MB; rendering each tile as it comes holds about 43.5 MB at any n.
    peak = cli_peak_rss_kb("simulate", "--config", str(ROOT / "demos" / "experiment.ini"),
                           "--out", str(tmp_path / "samples.csv"))
    assert peak < 48 * 1024
