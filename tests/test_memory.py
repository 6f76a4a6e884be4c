"""Simulation memory is bounded by the window and the replicate tile, not by
the lag depth, the block or the replicate count; ``verify`` counts
exceedances without storing the replicate matrix, and ``simulate`` writes
its rows a slice at a time.  The order-j tuple sum walks and integrates its
tuples a chunk at a time."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import matails.cli
import matails.ma_process as ma
from matails import (INFINITE, ExplicitFinite, Geometric, TailModel, UpperRect, hrv_scan,
                     nu_m_j_rect, simulate, truncation_diagnostic)

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
    # Whole Python columns cost about 120 bytes per nonzero cell at this
    # size; slices leave the matrix and the nonzero index arrays (32 bytes).
    monkeypatch.setattr(matails.cli, "ROW_SLICE", 1024)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[coefficients]\nfamily = explicit\nvalues = 1, 0.5\nm = 1\n"
                   "[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                   "[run]\nn = 32768\nseed = 4\nwindow = 0:2\n")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
    code, peak = traced_peak(matails.cli.main, argv)
    assert code == 0
    assert peak < 64 * 32768 * 3


def test_tuple_sum_peak_does_not_grow_with_the_tuple_count():
    # K constraints 5 apart under five nonzero lags: 5^K covering K-tuples,
    # all exact.  One (5^7, 7, 7) float array of them alone is 30 MB.
    psi = ExplicitFinite([1.0, 0.8, 0.6, 0.4, 0.2])
    peaks = {}
    for size in (6, 7):
        rect = UpperRect({5 * i: 1.0 for i in range(size)})
        value, peaks[size] = traced_peak(nu_m_j_rect, psi, 4, 1.0, size - 1, rect, 64, seed=1)
        assert value.value == pytest.approx(3.0**size, rel=1e-12)
        assert value.stderr == 0.0
    assert max(peaks.values()) < 8 * 2**20
    # Five times the tuples, one more member and constraint per tuple.
    assert peaks[7] < 1.5 * peaks[6]


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


def verify_peak_rss_kb(config: Path, out: Path, *flags: str) -> int:
    """Peak RSS (kB) of a child ``matails verify`` run, which must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "matails.cli", "verify",
         "--config", str(config), "--out", str(out), *flags],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    code, maxrss_kb = map(int, probe.stdout.split())
    assert code == 0, probe.stderr
    return maxrss_kb


def test_verify_demo_peak_rss(tmp_path):
    # One million replicates at depth 27: whole-block draws peaked near
    # 500 MB, whole-block lag rows near 92 MB.
    peak = verify_peak_rss_kb(ROOT / "demos" / "experiment.ini", tmp_path / "verify.csv")
    assert peak < 64 * 1024


def test_multi_block_verify_peak_rss(tmp_path):
    # Four 2^20-replicate blocks on two threads: whole-block lag rows held
    # about 64 MB per worker.
    cfg = tmp_path / "hidden.ini"
    cfg.write_text("[coefficients]\nfamily = explicit\nvalues = 1, 0.5\nm = 1\n"
                   "[tail]\nfamily = standard_pareto\nalpha = 1.0\n"
                   "[rows]\nrow0 = 0; 0:1\nrow1 = 1; 0:1, 2:1\n"
                   f"[run]\nn = {4 << 20}\nt_grid = 1000, 10000\nseed = 42\n")
    peak = verify_peak_rss_kb(cfg, tmp_path / "verify.csv", "--threads", "2")
    assert peak < 64 * 1024
