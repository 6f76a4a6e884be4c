import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import matails.cli
from matails import ExplicitFinite, TailModel, estimation, hill, limit_measures, sample, simulate
from matails.ma_process import MAX_DEPTH, MAX_DRAWS, SimulationBatch
from matails.cli import _sample_slices, _sample_text, _values_from_sample_file, main

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
    t = 50
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


def write_sample(tmp_path, body, meta=None):
    """A simulate-style sample file, with the JSON sidecar ``meta`` when given."""
    path = tmp_path / "sample.csv"
    path.write_text("replicate_id,index,value\n" + body)
    if meta is not None:
        (tmp_path / "sample.csv.meta.json").write_text(json.dumps(meta))
    return str(path)


class TestSimulateCommand:
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

    def test_thread_flag_does_not_change_bytes(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        main(["simulate", "--config", config_path, "--out", str(out_a), "--threads", "1"])
        main(["simulate", "--config", config_path, "--out", str(out_b), "--threads", "4"])
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_slices_do_not_change_bytes(self, tmp_path, config_path, monkeypatch, fmt):
        # 2000 replicates x 3 indices: one slice by default, 858 slices of 7.
        whole, sliced = tmp_path / f"whole.{fmt}", tmp_path / f"sliced.{fmt}"
        assert main(["simulate", "--config", config_path, "--out", str(whole), "--format", fmt]) == 0
        monkeypatch.setattr(matails.cli, "ROW_SLICE", 7)
        assert main(["simulate", "--config", config_path, "--out", str(sliced), "--format", fmt]) == 0
        assert whole.read_bytes() == sliced.read_bytes()
        assert len(whole.read_text().splitlines()) > 6000


class TestSampleWriter:
    def test_template_matches_csv_writer_across_slices(self, monkeypatch):
        # Extreme doubles and negated shifted-Pareto draws, one zero cell
        # skipped, 15 nonzero cells cut into slices of 4.
        draws = sample(TailModel.shifted_pareto(0.7), 11, seed=3)
        values = [1e16, 1e-5, 5e-324, 1.7976931348623157e308, 0.0, *(-draws).tolist()]
        batch = SimulationBatch(-1, np.array(values).reshape(4, 4), 0)
        monkeypatch.setattr(matails.cli, "ROW_SLICE", 4)
        cuts = list(_sample_slices(batch))
        assert [len(ids) for ids, _, _ in cuts] == [4, 4, 4, 3]
        rows = [(r, w - 1, values[4 * r + w]) for r in range(4) for w in range(4) if values[4 * r + w]]
        assert [row for cut in cuts for row in zip(*cut)] == rows
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert "".join(_sample_text(*cut) for cut in cuts) == expected.getvalue()
        assert "5e-324" in expected.getvalue() and "1.7976931348623157e+308" in expected.getvalue()


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


class TestVerifyCommand:
    def test_comparison_table(self, tmp_path, config_path):
        out = tmp_path / "v.csv"
        code = main([
            "verify", "--config", config_path, "--out", str(out),
            "--set", "run.n=100000", "--set", "run.t=100",
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
        cfg.write_text(BASE_CONFIG.replace("t = 50\n", ""))
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

    def test_from_config_with_report_file(self, tmp_path, config_path):
        out = tmp_path / "hill.json"
        code = main([
            "hill", "--config", config_path, "--k", "100", "--index", "0",
            "--out", str(out), "--set", "run.n=2000",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["k"] == 100 and report["n"] == 2000
        assert 0.5 < report["alpha_hat"] < 2.0

    def test_needs_some_source(self):
        assert main(["hill", "--k", "10"]) == 2

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_window_exits_before_simulating(self, config_path, monkeypatch, capsys, index):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate must not run")

        monkeypatch.setattr(matails.cli, "simulate", no_simulation)
        assert main(["hill", "--config", config_path, "--k", "10", "--index", str(index)]) == 2
        assert f"index {index} lies outside the simulated window" in capsys.readouterr().err

    def test_sample_file_is_bitwise_round_trip(self, tmp_path, config_path):
        out = tmp_path / "s.csv"
        assert main([
            "simulate", "--config", config_path, "--out", str(out),
            "--set", "run.n=3000", "--set", "tail.family=shifted_pareto",
            "--set", "coefficients.values=1, 0.3, 0.7", "--set", "coefficients.m=2",
            "--set", "run.window=-2:1",
        ]) == 0
        batch = simulate(
            ExplicitFinite([1.0, 0.3, 0.7]), 2, TailModel.shifted_pareto(1.0), (-2, 1), 3000, 42
        )
        for c in range(batch.matrix.shape[1]):
            assert np.array_equal(_values_from_sample_file(str(out), batch.lo + c),
                                  batch.matrix[:, c])

    def test_sample_reader_semantics(self, tmp_path):
        body = "0,0,1.5\n-1,0,9.5\n3,0,7.0\n2,1,4.0\n2,0,2.0\n2,0,2.5\n"
        path = write_sample(tmp_path, body, {"n": 3})
        # ids outside [0, n) are ignored, absent cells read 0.0, the last repeat wins
        assert _values_from_sample_file(path, 0).tolist() == [1.5, 0.0, 2.5]
        assert _values_from_sample_file(path, 1).tolist() == [0.0, 0.0, 4.0]
        (tmp_path / "sample.csv.meta.json").unlink()
        # without a sidecar, n is the largest id over all indices, plus 1
        assert _values_from_sample_file(path, 1).tolist() == [0.0, 0.0, 4.0, 0.0]
        path = write_sample(tmp_path, "0,0,1.0\n5,1,2.0\n")
        assert _values_from_sample_file(path, 0).tolist() == [1.0] + [0.0] * 5


# Malformed sample files: (body, sidecar document or None for no sidecar,
# whether the error message must name the file).  A header-only body is well
# formed but holds no positive value to estimate on.
WELL_FORMED_BODY = "0,0,2.0\n1,0,3.0\n2,0,4.0\n"
MALFORMED_SAMPLES = {
    "short-row": ("1,0\n", None, True),
    "short-later-row": ("0,0,2.0\n1,0\n", None, True),
    "non-integer-id": ("1.5,0,3\n", None, True),
    "non-integer-index": ("1,0.5,3\n", None, True),
    "non-numeric-value": ("1,0,abc\n", None, True),
    "nan-id": ("nan,0,3\n", None, True),
    "header-only": ("", None, False),
    "sidecar-n-string": (WELL_FORMED_BODY, {"n": "abc"}, True),
    "sidecar-n-float": (WELL_FORMED_BODY, {"n": 2.5}, True),
    "sidecar-n-bool": (WELL_FORMED_BODY, {"n": True}, True),
    "sidecar-n-negative": (WELL_FORMED_BODY, {"n": -3}, True),
    "sidecar-list": (WELL_FORMED_BODY, [1], True),
    "sidecar-string": (WELL_FORMED_BODY, "x", True),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_SAMPLES))
def test_malformed_sample_file_exits_2(tmp_path, capsys, case):
    body, meta, names_file = MALFORMED_SAMPLES[case]
    path = write_sample(tmp_path, body, meta)
    assert main(["hill", "--sample", path, "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (path in err) == names_file


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
    "zero-threads": (False, ["simulate", "--threads", "0"]),
    "negative-threads": (False, ["verify", "--threads", "-1"]),
    "nan-threshold-limits": (False, ["limits", "--set", "rows.row0=0; 0:nan"]),
    "nan-threshold-verify": (False, ["verify", "--set", "rows.row1=1; 0:nan, 2:1"]),
    "nan-t-grid": (False, ["verify", "--set", "run.t_grid=nan"]),
    "inf-t": (False, ["verify", "--set", "run.t=inf"]),
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
        out = tmp_path / "lim.csv"
        assert main(["limits", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()


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
