import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matails.cli
import matails.ma_process as ma
import matails.sample_file
from matails import (ExplicitFinite, TailModel, block_generator, draw, estimation, hill, limit_measures,
                     simulate)
from matails.ma_process import MAX_DEPTH, MAX_DRAWS, MAX_LAG_TERMS, SimulationBatch
from matails.cli import _write_output, build_parser, load_experiment, main
from matails.sample_file import (_sample_slices, _sample_text, _shortest_digits,
                                 _values_from_sample_file)
from oracles import sample_text_reference

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = explicit
    values = 1, 0.5
    m = 1

    [tail]
    family = standard_pareto
    alpha = 1.0

    [rows]
    row0 = 0; 0:1.0
    row1 = 1; 0:1.0, 2:1.0

    [run]
    n = 2000
    t_grid = 50
    seed = 42
    window = 0:2

    [output]
    format = csv
    """
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ROW_SLICE values for the sample-file tests: 1, 2 and 7 cells per slice
# cut tiles into single rows or a few; the default holds them whole.
SAMPLE_BLOCKS = [1, 2, 7, matails.sample_file.ROW_SLICE]


# The sidecar simulate writes for 3 replicates on the window 0:2, as far as hill reads it.
SIDECAR = {"n": 3, "window": [0, 2]}


def one_column(*values):
    """The 3 x 3 sample matrix whose index 0 holds ``values``, the rest 0."""
    return np.array([[v, 0.0, 0.0] for v in values])


WELL_FORMED = one_column(2.0, 3.0, 4.0)


def write_sample(tmp_path, matrix, meta=SIDECAR):
    """A simulate-style sample at ``sample.csv``: the companion of ``matrix``
    and, unless ``meta`` is None, the JSON sidecar ``meta`` (bytes are
    written as they are).  No CSV is written, as hill does not read it."""
    path = tmp_path / "sample.csv"
    np.save(f"{path}.npy", np.asfortranarray(matrix))
    sidecar = tmp_path / "sample.csv.meta.json"
    if isinstance(meta, bytes):
        sidecar.write_bytes(meta)
    elif meta is not None:
        sidecar.write_text(json.dumps(meta))
    return str(path)


class TestSimulateCommand:
    @pytest.mark.parametrize("window", ["10000000000000000:10000000000000000",
                                        "-10000000000000000:-9999999999999999",
                                        "9223372036854775808:9223372036854775809"])
    def test_window_past_the_sample_file_index_exits_2_before_writing(
            self, tmp_path, config_path, capsys, window):
        # 17 digits are outside the sample grammar; past 2^63 numpy overflows.
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--set", "run.n=3", "--set", f"run.window={window}"]) == 2
        err = capsys.readouterr().err
        assert f"window {window} reaches past the 16-digit indices" in err
        assert f"at most {matails.sample_file.MAX_INDEX}" in err
        assert not out.exists() and not (tmp_path / "s.csv.meta.json").exists()

    def test_largest_index_round_trips(self, tmp_path, config_path):
        index = matails.sample_file.MAX_INDEX
        assert index == 10**16 - 1
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out), "--set", "run.n=50",
                     "--set", f"run.window={-index}:{-index + 1}"]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(tmp_path / "t.csv"),
                     "--set", "run.n=50", "--set", f"run.window={index - 1}:{index}"]) == 0
        for path, lo in ((out, -index), (tmp_path / "t.csv", index - 1)):
            batch = simulate(ExplicitFinite([1.0, 0.5]), 1, TailModel.standard_pareto(1.0),
                             (lo, lo + 1), 50, 42)
            for c in range(2):
                assert np.array_equal(_values_from_sample_file(str(path), lo + c), batch.matrix[:, c])
            cells = [(r, lo + c, v) for r, row in enumerate(batch.matrix.tolist()) for c, v in enumerate(row) if v]
            assert path.read_text() == "replicate_id,index,value\n" + sample_text_reference(*zip(*cells))

    def test_writes_one_row_per_nonzero_value(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "s.csv"
        code = main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--set", "run.n=2", "--set", "run.window=0:0",
            "--set", "coefficients.values=1",
            "--set", "coefficients.m=0",
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["replicate_id", "index", "value"]
        assert len(rows) == 3
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["truncation_order"] == 0
        assert meta["config"]["run"]["n"] == "2"

    def test_assumption_violation_exits_2_without_file(self, tmp_path, config_path):
        out = tmp_path / "bad.csv"
        code = main([
            "simulate", "--config", config_path, "--out", str(out),
            "--set", "coefficients.values=0, 1",
        ])
        assert code == 2
        assert not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        meta_a = (tmp_path / "a.csv.meta.json").read_text()
        meta_b = (tmp_path / "b.csv.meta.json").read_text()
        assert meta_a == meta_b

    def test_json_format_single_document(self, tmp_path, config_path):
        out = tmp_path / "s.json"
        code = main([
            "simulate", "--config", config_path, "--out", str(out), "--format", "json",
            "--set", "run.n=3",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["replicate_id", "index", "value"]
        assert doc["meta"]["command"] == "simulate"
        assert all(len(r) == 3 for r in doc["rows"])

    def test_json_output_has_no_companion_and_hill_refuses_it(self, tmp_path, config_path, capsys):
        # Only a CSV sample has the sidecar and the companion that hill reads.
        out = tmp_path / "s.json"
        assert main(["simulate", "--config", config_path, "--out", str(out), "--format", "json"]) == 0
        assert [p.name for p in tmp_path.glob("s.json*")] == ["s.json"]
        capsys.readouterr()
        assert main(["hill", "--sample", str(out), "--k", "10"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}.meta.json: unreadable sidecar (")

    def test_thread_flag_does_not_change_bytes(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        main(["simulate", "--config", config_path, "--out", str(out_a), "--threads", "1"])
        main(["simulate", "--config", config_path, "--out", str(out_b), "--threads", "4"])
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_slices_do_not_change_bytes(self, tmp_path, config_path, monkeypatch, fmt):
        # 2000 replicates x 3 indices: one block by default, 1000 blocks of 2 rows.
        whole, sliced = tmp_path / f"whole.{fmt}", tmp_path / f"sliced.{fmt}"
        assert main(["simulate", "--config", config_path, "--out", str(whole), "--format", fmt]) == 0
        monkeypatch.setattr(matails.sample_file, "ROW_SLICE", 7)
        assert main(["simulate", "--config", config_path, "--out", str(sliced), "--format", fmt]) == 0
        assert whole.read_bytes() == sliced.read_bytes()
        assert len(whole.read_text().splitlines()) > 6000

    def test_streamed_tiles_write_the_stored_matrix_bytes(self, tmp_path, config_path, monkeypatch):
        # 61 replicates of width 3 in blocks of 12, tiles of 5 (5, 5, 2 per
        # block) and slices of 7 // 3 = 2 rows: blocks, tiles and slices cut
        # one another, and every thread count writes the stored matrix's rows.
        monkeypatch.setattr(ma, "BLOCK_ROWS", 12)
        monkeypatch.setattr(ma, "TILE_ROWS", 5)
        monkeypatch.setattr(matails.sample_file, "ROW_SLICE", 7)
        batch = simulate(ExplicitFinite([1.0, 0.5]), 1, TailModel.standard_pareto(1.0), (0, 2), 61, 42)
        rows = [[r, w, v] for r, row in enumerate(batch.matrix.tolist()) for w, v in enumerate(row) if v]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([["replicate_id", "index", "value"], *rows])
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}.csv"
            argv = ["simulate", "--config", config_path, "--set", "run.n=61", "--threads", str(threads)]
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == expected.getvalue().encode()
            assert main([*argv, "--out", str(out.with_suffix(".json")), "--format", "json"]) == 0
            assert json.loads(out.with_suffix(".json").read_text())["rows"] == rows
        assert out.with_suffix(".json").read_bytes() == (tmp_path / "t1.json").read_bytes()

    @pytest.mark.parametrize("case", ["draws", "depth", "no-n", "seed"])
    def test_refusal_leaves_an_existing_output_untouched(self, tmp_path, config_path, capsys, case):
        # Every simulation check runs before the output file is opened.
        settings, message = {
            "draws": (["coefficients.m=1000000", "run.n=1000000"], f"above the limit of {MAX_DRAWS}"),
            "depth": ([f"coefficients.m={MAX_DEPTH + 1}"], f"depth budget of {MAX_DEPTH} lags"),
            "no-n": ([], "simulate needs [run] n"),
            "seed": (["run.seed=-1"], "[run] seed must be nonnegative"),
        }[case]
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG.replace("n = 2000\n", "" if case == "no-n" else "n = 2000\n"))
        out, sidecar = tmp_path / "s.csv", tmp_path / "s.csv.meta.json"
        out.write_bytes(b"replicate_id,index,value\n0,0,1.5\n")
        sidecar.write_bytes(b'{"n": 1}\n')
        before = threading.active_count()
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--set", "coefficients.family=geometric", "--set", "coefficients.rho=0.5",
                     *(arg for item in settings for arg in ("--set", item))]) == 2
        assert message in capsys.readouterr().err
        assert out.read_bytes() == b"replicate_id,index,value\n0,0,1.5\n"
        assert sidecar.read_bytes() == b'{"n": 1}\n'
        assert threading.active_count() == before

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_law_whose_sums_overflow_writes_nothing(self, tmp_path, config_path, capsys, fmt):
        # A draw is at most inverse_survival(2^-53): (2^-53)^-100 = inf at
        # alpha = 0.01, but 2^883 at alpha = 0.06, whose sums over psi =
        # (1, 0.5) stay finite, so the file is written and hill reads it.
        out = tmp_path / f"s.{fmt}"
        argv = ["simulate", "--config", config_path, "--out", str(out), "--format", fmt,
                "--set", "run.n=20000", "--set", "run.window=0:1", "--set", "run.seed=3"]
        assert main([*argv, "--set", "tail.alpha=0.01"]) == 2
        err = capsys.readouterr().err
        assert all(part in err for part in ("alpha = 0.01", "scale = 1.0", "lag depth 1", "reach inf"))
        assert not any(tmp_path.glob(f"s.{fmt}*"))
        assert main([*argv, "--set", "tail.alpha=0.06"]) == 0
        if fmt == "csv":
            assert main(["hill", "--sample", str(out), "--k", "100"]) == 0
        else:
            assert all(math.isfinite(row[2]) for row in json.loads(out.read_text())["rows"])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_failed_write_exits_3_and_stops_the_workers(self, tmp_path, config_path, monkeypatch,
                                                        capsys, threads):
        # 2000 replicates in tiles of 50, slices of 30 // 3 = 10 rows: the
        # third slice fails while workers still have tiles to sum.
        monkeypatch.setattr(ma, "TILE_ROWS", 50)
        monkeypatch.setattr(matails.sample_file, "ROW_SLICE", 30)
        render, cuts = matails.sample_file._sample_text, []

        def failing(*cut):
            cuts.append(cut)
            if len(cuts) == 3:
                raise OSError("no space left on the test device")
            return render(*cut)

        monkeypatch.setattr(matails.sample_file, "_sample_text", failing)
        argv = ["simulate", "--config", config_path, "--out", str(tmp_path / "s.csv"),
                "--threads", str(threads)]
        codes = []
        runner = threading.Thread(target=lambda: codes.append(main(argv)))
        before = threading.active_count()
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive() and codes == [3]
        assert "no space left on the test device" in capsys.readouterr().err
        assert len(cuts) == 3
        assert threading.active_count() == before
        # The workers stop before the error leaves the command, not when its
        # traceback is dropped.
        cuts.clear()
        exp = load_experiment(config_path, [])
        exp.out_path = str(tmp_path / "s.csv")
        with pytest.raises(OSError) as failure:  # holds the command's frames
            matails.cli.cmd_simulate(exp, threads)
        assert threading.active_count() == before
        assert len(cuts) == 3 and failure.traceback


def pinned_sample_values():
    """Edge cases of the sample renderer: powers of two (asymmetric rounding
    intervals), decade edges and the neighbours of the fast path's bounds,
    the extreme doubles, values whose shortest form has 14 digits or fewer,
    and values within a hair of a 16- or 17-digit rounding tie."""
    rng = np.random.default_rng(5)
    values = [2.0**e for e in range(-30, 61)]
    values += [10.0**k * (1 + j * 2.0**-52) for k in range(-6, 18) for j in (-4, -2, -1, 1, 2, 4)]
    values += [np.nextafter(x, to) for x in (1e-4, 1e15, 1e16) for to in (0.0, np.inf)]
    values += [1e-4, 1e15, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [1.5, 0.1, 0.3, 2.675, 123.456, 1e-3, 99999999999999.0, 123456789012345.0,
               12345678901234.5, 0.00012345678901234, 9007199254740993.0]
    for digits in (16, 17):
        for d, e in zip(rng.integers(10 ** (digits - 1), 10**digits, 40).tolist(),
                        rng.integers(-4, 16, 40).tolist()):
            values.append(float(f"{d}5e{e - digits - 1}"))
    values = np.array(values)
    return np.concatenate((values, -values))


# Every double, and, in either sign, the renderer's certified range [1e-4,
# 1e15), 16-digit whole parts, exponent forms and subnormals.
finite_nonzero = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.copysign, st.floats(1e-4, 1e15) | st.floats(1e15, 1e16) | st.floats(1e16, 1e300)
              | st.floats(1e-300, 1e-4) | st.floats(0.0, 2.2250738585072014e-308), st.sampled_from([1.0, -1.0])),
).filter(bool)


class TestSampleWriter:
    def test_template_matches_csv_writer_across_slices(self, monkeypatch):
        # Extreme doubles and negated shifted-Pareto draws, one zero cell
        # skipped, 15 nonzero cells cut into blocks of 4 // 4 = 1 replicate row.
        draws = draw(TailModel.shifted_pareto(0.7), block_generator(3), 11)
        values = [1e16, 1e-5, 5e-324, 1.7976931348623157e308, 0.0, *(-draws).tolist()]
        batch = SimulationBatch(-1, np.array(values).reshape(4, 4), 0)
        monkeypatch.setattr(matails.sample_file, "ROW_SLICE", 4)
        cuts = list(_sample_slices(batch.lo, [(0, batch.matrix.T)]))
        assert [len(ids) for ids, _, _ in cuts] == [4, 3, 4, 4]
        rows = [(r, w - 1, values[4 * r + w]) for r in range(4) for w in range(4) if values[4 * r + w]]
        assert [row for cut in cuts for row in zip(*(a.tolist() for a in cut))] == rows
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert b"".join(_sample_text(*cut) for cut in cuts).decode() == expected.getvalue()
        assert "5e-324" in expected.getvalue() and "1.7976931348623157e+308" in expected.getvalue()

    @settings(max_examples=400)
    @given(st.lists(st.tuples(st.integers(0, 2**53 - 1), st.integers(-(2**53), 2**53), finite_nonzero),
                    min_size=1, max_size=30))
    def test_renderer_writes_the_template_bytes(self, cells):
        ids, indices, values = (np.array(column) for column in zip(*cells))
        assert _sample_text(ids, indices, values) == sample_text_reference(ids, indices, values).encode()

    def test_pinned_edge_cases_write_the_template_bytes(self):
        values = pinned_sample_values()
        ids = np.arange(len(values)) * 7919
        indices = np.arange(len(values)) % 7 - 3
        assert _sample_text(ids, indices, values) == sample_text_reference(ids, indices, values).encode()
        # a slice with no nonzero cell writes nothing
        assert _sample_text(ids[:0], indices[:0], values[:0]) == b""
        # each on its own line too, so no field width is set by another value
        for v in values:
            one = np.array([v])
            assert _sample_text(ids[:1], indices[:1], one) == sample_text_reference([0], [-3], one).encode()

    def test_certified_digits_read_back_as_the_value(self):
        rng = np.random.default_rng(9)
        values = np.concatenate((10.0 ** rng.uniform(-4, 15, 20000), pinned_sample_values()))
        digits, fraction, certified = _shortest_digits(values)
        assert certified.mean() > 0.9
        for v, d, f in zip(values[certified].tolist(), digits[certified].tolist(),
                           fraction[certified].tolist()):
            assert float(f"{d}e-{f}") == abs(v) and len(str(d)) in (15, 16, 17) and d % 10

    def test_repr_fallback_is_rare_on_the_demo_config(self):
        # A renderer that sends every value to repr writes the same bytes but
        # runs at repr's speed; on demo samples fewer than 2% may fall back.
        exp = load_experiment(str(ROOT / "demos" / "experiment.ini"), ["run.n=20000"])
        batch = simulate(exp.coeffs, exp.m, exp.model, exp.window, exp.n, exp.seed, exp.trunc_eps)
        ids, indices, values = next(_sample_slices(batch.lo, [(0, batch.matrix.T)]))
        assert len(values) == matails.sample_file.ROW_SLICE
        slow = int(np.count_nonzero(~_shortest_digits(values)[2]))
        assert 0 < slow < 0.02 * len(values)


class TestLimitsCommand:
    def test_values_and_infeasible_flag(self, tmp_path, config_path):
        out = tmp_path / "lim.csv"
        code = main([
            "limits", "--config", config_path, "--out", str(out),
            "--set", "rows.row2=1; 0:1.0, 1:1.0",
        ])
        assert code == 0
        rows = read_csv(out)
        header = rows[0]
        by_rect = {r[header.index("rect")]: r for r in rows[1:]}
        assert float(by_rect["0:1.0"][header.index("value")]) == 1.5
        assert float(by_rect["0:1.0,2:1.0"][header.index("value")]) == 2.25
        assert "+inf" in by_rect["0:1.0,1:1.0"][header.index("value")]

    def test_singleton_coefficient_three_constraints_zero(self, tmp_path, config_path):
        out = tmp_path / "lim0.csv"
        code = main([
            "limits", "--config", config_path, "--out", str(out),
            "--set", "coefficients.values=1", "--set", "coefficients.m=0",
            "--set", "rows.row0=1; 0:1.0, 1:1.0, 2:1.0",
            "--set", "rows.row1=1; 0:1.0, 1:1.0",
        ])
        assert code == 0
        rows = read_csv(out)
        header = rows[0]
        values = {r[header.index("rect")]: r[header.index("value")] for r in rows[1:]}
        assert float(values["0:1.0,1:1.0,2:1.0"]) == 0.0
        assert float(values["0:1.0,1:1.0"]) == 1.0

    def test_order_deeper_than_the_recursion_limit(self, tmp_path, config_path):
        # 2400 adjacent constraints at 0.5 on psi = (1, 0.5): the one covering
        # 1200-tuple spikes every other index, each member's floor is 0.5 and
        # no shared constraint is left open, so the value is exactly 1.0.
        out = tmp_path / "deep.csv"
        rect = ", ".join(f"{k}:0.5" for k in range(2400))
        assert main(["limits", "--config", config_path, "--out", str(out),
                     "--set", f"rows.row0=1199; {rect}"]) == 0
        header, row, _ = read_csv(out)
        assert (row[header.index("value")], row[header.index("method")]) == ("1.0", "enumeration")

    def test_theory_bits_are_verify_s(self, tmp_path, config_path):
        # One config, rows of each kind: order 0, exact pairs, a drawn pair and
        # drawn triples.  verify writes each row's theory once per tail level;
        # limits writes the same value and stderr bits.
        rows = ["0; 0:1.0", "1; 0:1.0, 2:1.0", "1; 0:1.0, 1:5.0, 2:1.0",
                "2; 0:1.0, 1:5.0, 2:1.0, 3:5.0, 4:1.0"]
        argv = ["--config", config_path, "--set", "run.integration_budget=4096",
                "--set", "run.t_grid=10, 100", "--set", "run.n=200"]
        argv += [arg for r, row in enumerate(rows) for arg in ("--set", f"rows.row{r}={row}")]
        lim, ver = tmp_path / "lim.csv", tmp_path / "ver.csv"
        assert main(["limits", *argv, "--out", str(lim)]) == 0
        assert main(["verify", *argv, "--out", str(ver)]) == 0
        (lh, *lim_rows), (vh, *ver_rows) = read_csv(lim), read_csv(ver)
        theory = {r[lh.index("rect")]: (r[lh.index("value")], r[lh.index("stderr")]) for r in lim_rows}
        assert len(theory) == len(rows) and theory["0:1.0,1:5.0,2:1.0"][1]
        assert len(ver_rows) == 2 * len(rows)
        for r in ver_rows:
            want = theory[r[vh.index("rect")]]
            assert (r[vh.index("theoretical")], r[vh.index("theoretical_stderr")]) == want


class TestVerifyCommand:
    def test_comparison_table(self, tmp_path, config_path):
        out = tmp_path / "v.csv"
        code = main([
            "verify", "--config", config_path, "--out", str(out),
            "--set", "run.n=100000", "--set", "run.t_grid=100",
            "--set", "rows.row1=0; 0:2.0",
        ])
        assert code == 0
        rows = read_csv(out)
        header = rows[0]
        assert {"t", "empirical", "theoretical", "z_score", "degenerate"} <= set(header)
        for r in rows[1:]:
            assert r[header.index("error")] == ""
            assert abs(float(r[header.index("z_score")])) < 4.0

    def test_singleton_grid_and_degenerate_cell(self, tmp_path, config_path):
        out = tmp_path / "v2.csv"
        code = main([
            "verify", "--config", config_path, "--out", str(out),
            "--set", "run.n=50", "--set", "run.t_grid=40",
            "--set", "rows.row0=0; 0:1000000.0",
            "--set", "rows.row1=0; 0:1.0",
        ])
        assert code == 0
        rows = read_csv(out)
        header = rows[0]
        degenerate = {r[header.index("rect")]: r[header.index("degenerate")] for r in rows[1:]}
        assert degenerate["0:1000000.0"] == "true"
        assert degenerate["0:1.0"] == "false"

    def test_default_tail_level_targets_thousand_exceedances(self, tmp_path):
        cfg = tmp_path / "nt.ini"
        cfg.write_text(BASE_CONFIG.replace("t_grid = 50\n", ""))
        out = tmp_path / "vd.csv"
        code = main([
            "verify", "--config", str(cfg), "--out", str(out),
            "--set", "run.n=100000", "--set", "rows.row1=0; 0:2.0",
        ])
        assert code == 0
        rows = read_csv(out)
        header = rows[0]
        assert all(float(r[header.index("t")]) == 100.0 for r in rows[1:])

    def test_infeasible_row_is_reported_not_fatal(self, tmp_path, config_path):
        out = tmp_path / "v3.csv"
        code = main([
            "verify", "--config", config_path, "--out", str(out),
            "--set", "rows.row1=1; 0:1.0, 1:1.0",
        ])
        assert code == 0
        rows = read_csv(out)
        header = rows[0]
        errors = [r[header.index("error")] for r in rows[1:]]
        assert any("not bounded away" in e for e in errors)


class TestHillCommand:
    def test_round_trip_matches_in_memory(self, tmp_path, config_path, capsys):
        out = tmp_path / "s.csv"
        assert main([
            "simulate", "--config", config_path, "--out", str(out),
            "--set", "run.n=5000",
        ]) == 0
        assert main(["hill", "--sample", str(out), "--k", "200", "--index", "1"]) == 0
        printed = capsys.readouterr().out
        from_file = float(printed.split("=")[1].split()[0])
        batch = simulate(
            ExplicitFinite([1.0, 0.5]), 1, TailModel.standard_pareto(1.0), (0, 2), 5000, 42
        )
        in_memory = hill(batch.matrix[:, 1], 200)
        assert from_file == in_memory

    def test_sample_with_report_file(self, tmp_path, config_path):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--config", config_path, "--out", str(samples)]) == 0
        out = tmp_path / "hill.json"
        assert main(["hill", "--sample", str(samples), "--k", "100", "--index", "0",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert out.read_text() == json_reference(out)
        assert report == {"alpha_hat": report["alpha_hat"], "index": 0, "k": 100, "n": 2000,
                          "source": str(samples)}
        assert 0.5 < report["alpha_hat"] < 2.0

    def test_needs_some_source(self):
        with pytest.raises(SystemExit) as exit_:
            main(["hill", "--k", "10"])
        assert exit_.value.code == 2

    def test_sample_order_count_below_2_exits_before_reading(self, tmp_path, capsys):
        # The file does not exist: opening it would exit 3.
        assert main(["hill", "--sample", str(tmp_path / "missing.csv"), "--k", "1"]) == 2
        assert "order count must satisfy 2 <= k < n, got k=1" in capsys.readouterr().err

    def test_tied_top_values_exit_2(self, tmp_path, capsys):
        # Three equal cells: the log spacings sum to 0, an error, not a traceback.
        path = write_sample(tmp_path, one_column(1.5, 1.5, 1.5))
        assert main(["hill", "--sample", path, "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hill's log spacings sum to 0")

    def test_order_count_not_below_n_exits_2(self, tmp_path, capsys):
        path = write_sample(tmp_path, WELL_FORMED)
        assert main(["hill", "--sample", path, "--k", "3"]) == 2
        assert "2 <= k < n" in capsys.readouterr().err

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_the_sample_window_exits_2_before_reading(
            self, tmp_path, config_path, capsys, index):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--config", config_path, "--out", str(samples)]) == 0
        Path(f"{samples}.npy").unlink()  # opening the companion would name it
        assert main(["hill", "--sample", str(samples), "--k", "10", "--index", str(index)]) == 2
        err = capsys.readouterr().err
        assert f"index {index} is outside the sample's window 0:2" in err
        assert f"{samples}.meta.json" in err

    @pytest.mark.parametrize("row_slice", SAMPLE_BLOCKS)
    def test_sample_file_is_bitwise_round_trip(self, tmp_path, config_path, monkeypatch, row_slice):
        # 150 replicates in tiles of 64 (64, 64, 22): the companion's bytes are
        # np.save's of the Fortran-ordered matrix at every row slice and
        # thread count, and hill reads each column of it bit for bit.
        monkeypatch.setattr(matails.sample_file, "ROW_SLICE", row_slice)
        monkeypatch.setattr(ma, "TILE_ROWS", 64)
        argv = ["simulate", "--config", config_path, "--set", "run.n=150", "--set", "tail.family=shifted_pareto",
                "--set", "coefficients.values=1, 0.3, 0.7", "--set", "coefficients.m=2",
                "--set", "run.window=-2:1"]
        batch = simulate(
            ExplicitFinite([1.0, 0.3, 0.7]), 2, TailModel.shifted_pareto(1.0), (-2, 1), 150, 42
        )
        expected = io.BytesIO()
        np.save(expected, np.asfortranarray(batch.matrix))
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            assert main([*argv, "--out", str(out), "--threads", str(threads)]) == 0
            assert Path(f"{out}.npy").read_bytes() == expected.getvalue()
        for c in range(batch.matrix.shape[1]):
            got = _values_from_sample_file(str(out), batch.lo + c)
            assert got.view(np.uint64).tolist() == batch.matrix[:, c].view(np.uint64).tolist()

    def test_report_reads_only_the_sidecar_and_the_companion(self, tmp_path, config_path):
        # The CSV is an export: with it deleted hill writes the same report.
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--config", config_path, "--out", str(samples)]) == 0
        argv = ["hill", "--sample", str(samples), "--k", "100", "--index", "1"]
        assert main([*argv, "--out", str(tmp_path / "with.json")]) == 0
        samples.unlink()
        assert main([*argv, "--out", str(tmp_path / "without.json")]) == 0
        assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()

    @pytest.mark.parametrize("row_slice", SAMPLE_BLOCKS)
    def test_csv_export_holds_the_companions_doubles(self, tmp_path, config_path, monkeypatch, row_slice):
        # The export and the companion agree: every CSV line is a nonzero cell
        # of the companion, bit for bit, and every nonzero cell has its line.
        monkeypatch.setattr(matails.sample_file, "ROW_SLICE", row_slice)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out), "--set", "run.n=200",
                     "--set", "run.window=-1:2"]) == 0
        matrix = np.load(f"{out}.npy")
        assert matrix.shape == (200, 4) and matrix.flags.f_contiguous
        header, *lines = read_csv(out)
        assert header == ["replicate_id", "index", "value"]
        exported = np.zeros_like(matrix)
        for rid, index, value in lines:
            exported[int(rid), int(index) + 1] = float(value)
        assert len(lines) == np.count_nonzero(matrix)
        assert exported.view(np.uint64).tolist() == matrix.view(np.uint64).tolist()

    @pytest.mark.parametrize("window", [(0, 0), (-3, -1), (5, 8), (-1, 1)])
    def test_each_index_reads_its_column_of_the_companion(self, tmp_path, window):
        # Column index - lo, bit for bit: signed zeros, subnormals and the
        # extremes included, whatever the window's offset.
        lo, hi = window
        specials = [-0.0, 5e-324, -1.7976931348623157e308, 2.5, 0.0, 1e-300, -7.25]
        matrix = np.array([np.roll(specials, c) for c in range(hi - lo + 1)]).T  # each column its own
        path = tmp_path / "sample.csv"
        np.save(f"{path}.npy", np.asfortranarray(matrix))
        (tmp_path / "sample.csv.meta.json").write_text(json.dumps({"n": len(specials), "window": [lo, hi]}))
        for c in range(hi - lo + 1):
            got = _values_from_sample_file(str(path), lo + c)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.view(np.uint64).tolist() == matrix[:, c].view(np.uint64).tolist()


@pytest.mark.parametrize("shape", [(0, 1), (0, 3), (1, 1), (1, 4), (5, 1), (3, 3), (2, 5), (7, 2)])
def test_stored_tiles_write_np_saves_bytes(tmp_path, shape):
    # One row or one column is C-contiguous too, and np.save marks it C
    # order: the companion's header follows at every edge shape, with tiles
    # of 2 rows stored out of order.
    n, width = shape
    matrix = np.arange(1.0, 1.0 + n * width).reshape(n, width)
    path = tmp_path / "c.npy"
    with open(path, "wb") as fh:
        store = matails.sample_file._companion(fh, n, width)
        for start in reversed(range(0, n, 2)):
            store(start, matrix[start:start + 2].T.copy())
    expected = io.BytesIO()
    np.save(expected, np.asfortranarray(matrix))
    assert path.read_bytes() == expected.getvalue()


# Malformed sidecars: (companion matrix, sidecar document or None for no
# sidecar, what the message names: "sidecar" for the sidecar's path, None
# for no path).  An all-zero sample is well formed but holds no positive
# value to estimate on.
MALFORMED_SAMPLES = {
    "all-zero": (np.zeros((3, 3)), SIDECAR, None),
    "missing-sidecar": (WELL_FORMED, None, "sidecar"),
    "sidecar-n-null": (WELL_FORMED, {"n": None, "window": [0, 2]}, "sidecar"),
    "sidecar-n-missing": (WELL_FORMED, {"window": [0, 2]}, "sidecar"),
    "sidecar-n-string": (WELL_FORMED, {"n": "abc"}, "sidecar"),
    "sidecar-n-float": (WELL_FORMED, {"n": 2.5}, "sidecar"),
    "sidecar-n-bool": (WELL_FORMED, {"n": True}, "sidecar"),
    "sidecar-n-negative": (WELL_FORMED, {"n": -3}, "sidecar"),
    "sidecar-list": (WELL_FORMED, [1], "sidecar"),
    "sidecar-string": (WELL_FORMED, "x", "sidecar"),
    "sidecar-not-json": (WELL_FORMED, b"{", "sidecar"),
    "sidecar-n-over-limit": (WELL_FORMED, {"n": 10**12}, "sidecar"),
    "sidecar-window-missing": (WELL_FORMED, {"n": 3}, "sidecar"),
    "sidecar-window-string": (WELL_FORMED, {"n": 3, "window": "0:1"}, "sidecar"),
    "sidecar-window-short": (WELL_FORMED, {"n": 3, "window": [0]}, "sidecar"),
    "sidecar-window-float": (WELL_FORMED, {"n": 3, "window": [0, 1.5]}, "sidecar"),
    "sidecar-window-bool": (WELL_FORMED, {"n": 3, "window": [False, True]}, "sidecar"),
    "sidecar-window-empty": (WELL_FORMED, {"n": 3, "window": [1, 0]}, "sidecar"),
    "index-outside-sidecar-window": (WELL_FORMED, {"n": 3, "window": [1, 2]}, "sidecar"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_SAMPLES))
def test_malformed_sample_file_exits_2(tmp_path, capsys, case):
    matrix, meta, names = MALFORMED_SAMPLES[case]
    path = write_sample(tmp_path, matrix, meta)
    assert main(["hill", "--sample", path, "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (path in err) == (names is not None)
    if names == "sidecar":
        assert err.startswith(f"error: {path}.meta.json: ")


def saved(matrix, **kwargs) -> bytes:
    """``np.save``'s bytes of ``matrix`` (``format.write_array`` with ``kwargs``)."""
    fh = io.BytesIO()
    np.lib.format.write_array(fh, np.asanyarray(matrix), **kwargs)
    return fh.getvalue()


# Companions that do not hold the 3 x 3 matrix of SIDECAR as simulate writes
# it (None: no companion), each refused before its body is read.
GOOD_COMPANION = saved(np.asfortranarray(WELL_FORMED))
BODY = GOOD_COMPANION.index(b"\n") + 1  # where the header ends
MALFORMED_COMPANIONS = {
    "missing": None,
    "empty": b"",
    "truncated": GOOD_COMPANION[:-8],
    "trailing-bytes": GOOD_COMPANION + bytes(8),
    "wrong-shape": saved(np.asfortranarray(np.ones((4, 3)))),
    "window-width-mismatch": saved(np.asfortranarray(np.ones((3, 2)))),
    "wrong-dtype": saved(np.asfortranarray(WELL_FORMED, dtype=np.float32)),
    "big-endian": saved(np.asfortranarray(WELL_FORMED, dtype=">f8")),
    "c-order": saved(np.ascontiguousarray(WELL_FORMED)),
    "format-2.0": saved(np.asfortranarray(WELL_FORMED), version=(2, 0)),
    "garbage-header": GOOD_COMPANION[:10] + b"{'descr': <f8".ljust(BODY - 11) + b"\n" + GOOD_COMPANION[BODY:],
    "not-npy": b"replicate_id,index,value\n0,0,2.0\n1,0,3.0\n2,0,4.0\n",
    "header-only": GOOD_COMPANION[:BODY],
    "short-header": GOOD_COMPANION[:5],
    "wrong-magic": b"\x93NUMPZ" + GOOD_COMPANION[6:],
    "format-3.0": saved(np.asfortranarray(WELL_FORMED), version=(3, 0)),
    "int64-dtype": saved(np.asfortranarray(WELL_FORMED, dtype="<i8")),
    "complex-dtype": saved(np.asfortranarray(WELL_FORMED, dtype="<c16")),
    "one-dimensional": saved(WELL_FORMED.T.ravel()),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_COMPANIONS))
def test_malformed_companion_exits_2(tmp_path, capsys, case):
    path = write_sample(tmp_path, WELL_FORMED)
    companion = Path(f"{path}.npy")
    if MALFORMED_COMPANIONS[case] is None:
        companion.unlink()
    else:
        companion.write_bytes(MALFORMED_COMPANIONS[case])
    assert main(["hill", "--sample", path, "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {companion}: unreadable companion (")
    assert err.endswith("; re-run simulate to write the sample with it\n")


def test_sample_over_the_replicate_limit_exits_2_within_a_second(tmp_path, capsys):
    # The sidecar's n is refused before the vector is allocated.
    path = write_sample(tmp_path, WELL_FORMED, {"n": 10**12, "window": [0, 2]})
    start = time.perf_counter()
    assert main(["hill", "--sample", path, "--k", "2"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert path in err and f" {10**12} replicates" in err and str(MAX_DRAWS) in err


GEOMETRIC_INFINITE = [
    "--set", "coefficients.family=geometric", "--set", "coefficients.rho=0.5",
    "--set", "coefficients.m=infinite",
]

# Out-of-range inputs.  NaN compares false with every bound, so a "<= 0"
# check lets it through.
INVALID_INPUTS = {
    "missing-alpha-limits": (True, ["limits"]),
    "missing-alpha-verify": (True, ["verify"]),
    "nan-beta": (False, ["limits", "--set", "coefficients.family=polynomial",
                         "--set", "coefficients.beta=nan"]),
    "nan-coefficient": (False, ["simulate", "--set", "coefficients.values=1, nan"]),
    "inf-coefficient": (False, ["limits", "--set", "coefficients.values=1, inf"]),
    "nan-trunc-eps": (False, ["simulate", *GEOMETRIC_INFINITE,
                              "--set", "coefficients.trunc_eps=nan"]),
    "negative-trunc-eps-limits": (False, ["limits", *GEOMETRIC_INFINITE,
                                          "--set", "coefficients.trunc_eps=-1"]),
    "negative-trunc-eps-verify": (False, ["verify", *GEOMETRIC_INFINITE,
                                          "--set", "coefficients.trunc_eps=-1"]),
    "negative-seed-simulate": (False, ["simulate", "--set", "run.seed=-1"]),
    "negative-seed-limits": (False, ["limits", "--set", "run.seed=-1"]),
    "zero-threads": (False, ["simulate", "--threads", "0"]),
    "negative-threads": (False, ["verify", "--threads", "-1"]),
    "nan-threshold-limits": (False, ["limits", "--set", "rows.row0=0; 0:nan"]),
    "nan-threshold-verify": (False, ["verify", "--set", "rows.row1=1; 0:nan, 2:1"]),
    "nan-t-grid": (False, ["verify", "--set", "run.t_grid=nan"]),
    "inf-t-grid": (False, ["verify", "--set", "run.t_grid=inf"]),
    "divergent-coefficients-limits": (False, [
        "limits", "--set", "coefficients.family=polynomial", "--set", "coefficients.beta=0.8",
        "--set", "coefficients.m=infinite"]),
    "order-over-depth-budget-limits": (False, [
        "limits", "--set", "coefficients.family=geometric", "--set", "coefficients.rho=0.5",
        "--set", f"coefficients.m={MAX_DEPTH + 1}"]),
    "order-over-depth-budget-verify": (False, [
        "verify", "--set", "coefficients.family=geometric", "--set", "coefficients.rho=0.5",
        "--set", f"coefficients.m={MAX_DEPTH + 1}"]),
}


@pytest.mark.parametrize("command", ["limits", "verify"])
def test_order_over_depth_budget_runs_no_evaluator(tmp_path, config_path, monkeypatch, command):
    # The lag depth is shared by every row, so it is resolved before any row's theory.
    def forbidden(*args):
        raise AssertionError("evaluator called before the depth was resolved")

    monkeypatch.setattr(estimation, "theoretical_tail_measure", forbidden)
    out = tmp_path / "out.csv"
    assert main([command, "--config", config_path, "--out", str(out),
                 "--set", "coefficients.family=geometric", "--set", "coefficients.rho=0.5",
                 "--set", f"coefficients.m={MAX_DEPTH + 1}"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["limits", "verify"])
@pytest.mark.parametrize("beta, depth", [("1.5", 5_861_230_993_349_299), ("2", 60_792_710)])
def test_default_tolerance_polynomial_exits_2_within_a_second(
        tmp_path, config_path, capsys, command, beta, depth):
    # The linear depth scan ran 24 s for beta = 2 and never ended for 1.5.
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code = main([
        command, "--config", config_path, "--out", str(out),
        "--set", "coefficients.family=polynomial", "--set", f"coefficients.beta={beta}",
        "--set", "coefficients.m=infinite",
    ])
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert f"lag depth {depth} exceeds the depth budget of {MAX_DEPTH} " in capsys.readouterr().err
    assert not out.exists()


def test_simulation_over_the_draw_limit_exits_2_within_a_second(tmp_path, config_path, capsys):
    # 10^6 replicates of 10^6 + 3 lag rows: the lag work ran for hours.
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code = main([
        "simulate", "--config", config_path, "--out", str(out),
        "--set", "coefficients.family=geometric", "--set", "coefficients.rho=0.5",
        "--set", "coefficients.m=1000000", "--set", "run.n=1000000",
    ])
    assert code == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"needs {10**6 * (10**6 + 3)} innovation draws" in err
    assert f"above the limit of {MAX_DRAWS}" in err
    assert not out.exists()


def test_simulation_over_the_lag_budget_exits_2_within_a_second(tmp_path, config_path, capsys):
    # 5000 unit coefficients over a 5000-column window at 10^6 replicates:
    # 9.999e9 draws pass the draw limit, then 2.5e13 lag terms ran for hours.
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code = main([
        "simulate", "--config", config_path, "--out", str(out),
        "--set", "coefficients.values=" + ", ".join(["1.0"] * 5000), "--set", "coefficients.m=4999",
        "--set", "run.window=0:4999", "--set", "run.n=1000000",
    ])
    assert code == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"needs {10**6 * 5000 * 5000} lag terms" in err
    assert f"above the budget of {MAX_LAG_TERMS}" in err
    assert not out.exists()


def test_all_error_rows_over_the_draw_limit_exit_2(tmp_path, config_path, capsys):
    # No row is counted, but the simulation still checks its draw limit.
    out = tmp_path / "out.csv"
    code = main([
        "verify", "--config", config_path, "--out", str(out),
        "--set", "rows.row0=-1; 0:1.0", "--set", "rows.row1=1; 0:1.0, 1:1.0",
        "--set", "run.n=10000000000",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"needs {10**10 * 3} innovation draws" in err
    assert f"above the limit of {MAX_DRAWS}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["limits", "verify"])
def test_forty_constraint_row_is_an_error_row_within_a_second(tmp_path, config_path, command):
    # psi = (1, .5) with constraints 3 apart: 2^40 covering 40-tuples; the
    # tuple walk never returned.
    rect = ", ".join(f"{3 * i}:1.0" for i in range(40))
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code = main([command, "--config", config_path, "--out", str(out),
                 "--set", f"rows.row0=39; {rect}", "--set", "run.n=200"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    rows = read_csv(out)
    header = rows[0]
    errors = [r[header.index("error" if command == "verify" else "note")] for r in rows[1:]]
    assert errors[0] == (f"{2**40} covering spike tuples exceed the tuple budget of "
                         f"{limit_measures.MAX_TUPLES}")
    assert not errors[1]


@pytest.mark.parametrize("command", ["limits", "verify"])
def test_row_over_the_lattice_point_limit_is_an_error_row_within_a_second(
        tmp_path, config_path, command):
    # psi = (1, 1, 1, 1, 1) with 21 constraints 3 apart: 20,480 drawn tuples
    # integrated for about a minute.
    rect = ", ".join(f"{3 * i}:{5.0 if i % 2 else 1.0}" for i in range(21))
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code = main([command, "--config", config_path, "--out", str(out),
                 "--set", "coefficients.values=1, 1, 1, 1, 1", "--set", "coefficients.m=4",
                 "--set", f"rows.row1=10; {rect}", "--set", "run.n=200"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    rows = read_csv(out)
    header = rows[0]
    errors = [r[header.index("error" if command == "verify" else "note")] for r in rows[1:]]
    assert not errors[0]
    assert errors[1] == (f"20480 drawn spike tuples need 4096000000 lattice points, above the "
                         f"limit of {limit_measures.MAX_LATTICE_POINTS} (use a smaller integration_budget)")


# Rows whose theory evaluation is infeasible or raises, on configs that verify
# completes: the MA(inf) psi^alpha series diverges (beta * alpha <= 1), a
# negative order of the MA(inf), a finite row one spike already covers.
ROW_ERRORS = {
    "divergent-psi-alpha": [
        "--set", "coefficients.family=polynomial", "--set", "coefficients.beta=3",
        "--set", "coefficients.m=infinite", "--set", "coefficients.trunc_eps=1e-3",
        "--set", "tail.alpha=0.3",
    ],
    "infinite-negative-order": [*GEOMETRIC_INFINITE, "--set", "rows.row1=-1; 0:1.0"],
    "finite-infeasible": ["--set", "rows.row1=1; 0:1.0, 1:1.0"],
}


@pytest.mark.parametrize("case", sorted(ROW_ERRORS))
def test_verify_row_errors_are_the_limits_notes(tmp_path, config_path, case):
    argv = ["--config", config_path, *ROW_ERRORS[case]]
    lim, ver = tmp_path / "lim.csv", tmp_path / "ver.csv"
    assert main(["limits", *argv, "--out", str(lim)]) == 0
    assert main(["verify", *argv, "--out", str(ver), "--set", "run.n=200"]) == 0
    lim_rows, ver_rows = read_csv(lim), read_csv(ver)
    lh, vh = lim_rows[0], ver_rows[0]
    notes = {
        (r[lh.index("j")], r[lh.index("rect")]): r[lh.index("note")]
        for r in lim_rows[1:] if r[lh.index("note")]
    }
    errors = {
        (r[vh.index("j")], r[vh.index("rect")]): r[vh.index("error")]
        for r in ver_rows[1:] if r[vh.index("error")]
    }
    assert notes and errors == notes


# The flags each command reads, and no other: 18 settable values in all.
RUN_FLAGS = ["--config", "--format", "--out", "--set", "--threads"]
COMMAND_FLAGS = {
    "simulate": RUN_FLAGS,
    "limits": ["--config", "--format", "--out", "--set"],
    "verify": RUN_FLAGS,
    "hill": ["--index", "--k", "--out", "--sample"],
    "example-config": [],
}


class TestParser:
    def test_each_command_offers_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(a.option_strings[-1] for a in p._actions if a.dest != "help")
                 for name, p in sub.choices.items()}
        assert flags == COMMAND_FLAGS
        assert sum(map(len, flags.values())) == 18

    @pytest.mark.parametrize("argv", [["limits", "--threads", "8", "--config", "c.ini"],
                                      ["hill", "--format", "csv", "--sample", "s.csv", "--k", "10"]])
    def test_a_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [("--config", "c.ini"), ("--set", "run.n=10"),
                                      ("--threads", "1")])
    def test_hill_reads_no_config(self, tmp_path, capsys, flag):
        # hill has one source, the sample file: the config's flags are not its own.
        path = write_sample(tmp_path, one_column(1.5, 2.5, 3.5))
        assert main(["hill", "--sample", path, "--k", "2"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            main(["hill", "--sample", path, "--k", "2", *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def json_reference(path) -> str:
    """``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline, of the document at path."""
    return json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n"


class TestJsonOutput:
    @pytest.mark.parametrize("rows", [[], [()], [(1, None, True, False, -0.0, math.nan, "a\n\"b")],
                                      [(1, 2.5), [3, math.inf]]])
    def test_streamed_document_is_the_json_dump_bytes(self, tmp_path, rows):
        out = tmp_path / "out.json"
        exp = SimpleNamespace(out_format="json", out_path=str(out))
        meta = {"config": {"run": {"n": "3"}}, "a": [None, {"z": 1, "b": 1.5}], "note": "\u00e9"}
        _write_output(exp, ("x", "y"), iter(rows), meta)
        expected = io.StringIO()
        json.dump({"meta": meta, "columns": ["x", "y"], "rows": rows}, expected, indent=2, sort_keys=True)
        assert out.read_text() == expected.getvalue() + "\n"

    @pytest.mark.parametrize("command", ["limits", "verify", "simulate"])
    def test_commands_write_the_json_dump_bytes(self, tmp_path, config_path, command):
        # limits' error row holds None, verify's degenerate column booleans.
        out = tmp_path / "out.json"
        assert main([command, "--config", config_path, "--format", "json", "--out", str(out),
                     "--set", "rows.row2=1; 0:1.0, 1:1.0", "--set", "run.n=300"]) == 0
        assert out.read_text() == json_reference(out)
        cells = [v for row in json.loads(out.read_text())["rows"] for v in row]
        assert len(cells) > 3
        if command != "simulate":
            assert None in cells
        if command == "verify":
            assert True in cells or False in cells


class TestErrorHandling:
    @pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
    def test_invalid_input_exits_2_without_file(self, tmp_path, case):
        drop_alpha, argv = INVALID_INPUTS[case]
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG.replace("alpha = 1.0\n", "") if drop_alpha else BASE_CONFIG)
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == [cfg]

    def test_missing_config_file(self, tmp_path):
        assert main(["limits", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_bad_family(self, config_path):
        assert main(["limits", "--config", config_path,
                     "--set", "tail.family=cauchy"]) == 2

    def test_malformed_row(self, config_path):
        assert main(["limits", "--config", config_path,
                     "--set", "rows.row0=zero"]) == 2

    def test_bad_set_syntax(self, config_path):
        assert main(["limits", "--config", config_path, "--set", "nonsense"]) == 2

    def test_unwritable_output_is_runtime_error(self, config_path):
        assert main(["limits", "--config", config_path,
                     "--out", "/nonexistent-dir/x.csv"]) == 3

    def test_example_config_parses(self, tmp_path, capsys):
        assert main(["example-config"]) == 0
        cfg = tmp_path / "ex.ini"
        cfg.write_text(capsys.readouterr().out)
        assert load_experiment(str(cfg), []).t_grid == [1000.0]
        out = tmp_path / "lim.csv"
        assert main(["limits", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["limits", "verify", "simulate"])
    def test_run_t_exits_2_naming_t_grid(self, tmp_path, config_path, capsys, command):
        # [run] t was a one-level t_grid; a config that still sets it is refused, not ignored.
        out = tmp_path / "out.csv"
        assert main([command, "--config", config_path, "--set", "run.t=50", "--out", str(out)]) == 2
        assert "t_grid" in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, matails.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def fresh_stdout(code: str, env=None) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports matails from
    this checkout, in ``env`` (default: this process's environment)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(statement: str, watch: list[str]) -> list[str]:
    """The modules of ``watch`` that a fresh interpreter holds after running
    ``statement``, its stdout and any ``SystemExit`` swallowed."""
    code = ("import contextlib, io, sys\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            f"    {statement}\n"
            f"print(*(m for m in {watch!r} if m in sys.modules))")
    return fresh_stdout(code).split()


@pytest.mark.parametrize("statement", [
    "import matails",
    "import matails.cli",
    "from matails.cli import main; main(['example-config'])",
    "from matails.cli import main; main(['--help'])",
    "from matails.cli import main; main(['limits'])",  # usage error: no --config
])
def test_startup_loads_no_numpy(statement):
    assert modules_after(statement, ["numpy"]) == []


def test_limits_loads_no_sample_file_or_thread_pool(config_path, tmp_path):
    argv = ["limits", "--config", config_path, "--out", str(tmp_path / "limits.csv")]
    statement = f"from matails.cli import main; assert main({argv!r}) == 0"
    watch = ["numpy", "matails.sample_file", "concurrent.futures"]
    assert modules_after(statement, watch) == ["numpy"]


def test_layers_load_numpy_random_at_the_first_draw():
    # Importing a layer leaves numpy.random unloaded (about 6 MB): the
    # seed-sequence type of block_generator is registered when it first runs.
    statement = "import matails.innovations, matails.ma_process, matails.limit_measures, matails.estimation"
    assert modules_after(statement, ["numpy", "numpy.random"]) == ["numpy"]
    draw = "from matails import block_generator; block_generator(1, 2, 3)"
    assert modules_after(draw, ["numpy.random"]) == ["numpy.random"]


def test_hill_loads_only_the_sample_codec(tmp_path):
    # hill reads a sample file and estimates: the simulator, the evaluators,
    # numpy's random module and the thread pool stay unloaded.
    samples = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(ROOT / "demos" / "experiment.ini"), "--set", "run.n=2000",
                 "--out", str(samples)]) == 0
    argv = ["hill", "--sample", str(samples), "--k", "100"]
    statement = f"from matails.cli import main; assert main({argv!r}) == 0"
    watch = ["matails.estimation", "matails.sample_file", "matails.ma_process", "matails.limit_measures",
             "matails.innovations", "matails.sequence_space", "numpy.random", "concurrent.futures"]
    assert modules_after(statement, watch) == ["matails.estimation", "matails.sample_file"]


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_defaults_openblas_to_one_thread(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, matails.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_stdout(code, env).strip() == (preset or "1")


def test_public_names_resolve_lazily_to_their_home_objects():
    code = textwrap.dedent("""\
        import importlib, sys, matails
        assert [m for m in sys.modules if m.startswith("matails.")] == []
        assert matails.ma_process is sys.modules["matails.ma_process"]
        assert matails.__all__[-1] == "__version__" and set(matails.__all__) <= set(dir(matails))
        for name in matails.__all__[:-1]:
            home = f"matails.{matails._HOMES[name]}"
            value = getattr(matails, name)
            assert value is vars(importlib.import_module(home))[name], name
            assert getattr(value, "__module__", home) == home, name
        try:
            matails.no_such_name
        except AttributeError as exc:
            print(exc)
        from matails import *
        """)
    assert fresh_stdout(code).strip() == "module 'matails' has no attribute 'no_such_name'"
