import csv
import json
import textwrap

import numpy as np
import pytest

from matails import ExplicitFinite, TailModel, hill, simulate
from matails.cli import _values_from_sample_file, main

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


def write_sample(tmp_path, body, n=None):
    """A simulate-style sample file, with a sidecar when ``n`` is given."""
    path = tmp_path / "sample.csv"
    path.write_text("replicate_id,index,value\n" + body)
    if n is not None:
        (tmp_path / "sample.csv.meta.json").write_text(json.dumps({"n": n}))
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
        path = write_sample(tmp_path, body, n=3)
        # ids outside [0, n) are ignored, absent cells read 0.0, the last repeat wins
        assert _values_from_sample_file(path, 0).tolist() == [1.5, 0.0, 2.5]
        assert _values_from_sample_file(path, 1).tolist() == [0.0, 0.0, 4.0]
        (tmp_path / "sample.csv.meta.json").unlink()
        # without a sidecar, n is the largest id over all indices, plus 1
        assert _values_from_sample_file(path, 1).tolist() == [0.0, 0.0, 4.0, 0.0]
        path = write_sample(tmp_path, "0,0,1.0\n5,1,2.0\n")
        assert _values_from_sample_file(path, 0).tolist() == [1.0] + [0.0] * 5


# Malformed sample files: (body, sidecar n or None for no sidecar, whether the
# error message must name the file).  A header-only body is well formed but
# holds no positive value to estimate on.
WELL_FORMED_BODY = "0,0,2.0\n1,0,3.0\n2,0,4.0\n"
MALFORMED_SAMPLES = {
    "short-row": ("1,0\n", None, True),
    "short-later-row": ("0,0,2.0\n1,0\n", None, True),
    "non-integer-id": ("1.5,0,3\n", None, True),
    "non-integer-index": ("1,0.5,3\n", None, True),
    "non-numeric-value": ("1,0,abc\n", None, True),
    "nan-id": ("nan,0,3\n", None, True),
    "header-only": ("", None, False),
    "sidecar-n-string": (WELL_FORMED_BODY, "abc", True),
    "sidecar-n-float": (WELL_FORMED_BODY, 2.5, True),
    "sidecar-n-bool": (WELL_FORMED_BODY, True, True),
    "sidecar-n-negative": (WELL_FORMED_BODY, -3, True),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_SAMPLES))
def test_malformed_sample_file_exits_2(tmp_path, capsys, case):
    body, n, names_file = MALFORMED_SAMPLES[case]
    path = write_sample(tmp_path, body, n)
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
}


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
