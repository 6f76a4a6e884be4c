"""Smoke test of the benchmark's span tracer against the current package.

``bench/spans.py`` wraps named public functions of each layer; a renamed or
deleted function would make ``bench/run.py --trace 1`` fail.  The tracer
module is read from the benchmark directory and executed in memory, so the
test writes nothing there; each workload's traced run runs ``bench/run.py``
itself in a child process.
"""

import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

# The tracer wraps the layer modules loaded when it starts; the warm-up pass
# of bench/run.py loads all five, and so do these imports.
import matails.cli
import matails.estimation
import matails.innovations
import matails.limit_measures
import matails.ma_process
from matails.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"

CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = geometric
    rho = 0.5
    m = infinite
    trunc_eps = 1e-3

    [tail]
    family = standard_pareto
    alpha = 1.0

    [rows]
    row0 = 0; 0:1.0

    [run]
    n = 1000
    t_grid = 10
    seed = 1
    """
)


def load_spans(monkeypatch):
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrapped_name_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    for mod_name, names in spans.WRAPPED.items():
        home = sys.modules[f"matails.{mod_name}"]
        for name in names:
            assert callable(getattr(home, name, None)), f"matails.{mod_name}.{name}"


def test_traced_verify_records_layer_spans(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG)
    original = matails.cli.cmd_verify
    with spans.Tracer() as tracer:
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v.csv")]) == 0
    assert matails.cli.cmd_verify is original
    names = {span.name for span in tracer.spans}
    for name in ("ma_process.simulate", "estimation.empirical_tail_measure", "innovations.draw"):
        assert name in names
    assert tracer.counts["ma_process.simulate.replicates"] == 1000


def bench_workloads() -> list[str]:
    """The workloads the benchmark declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in doc["workloads"]]


@pytest.mark.parametrize("workload", bench_workloads())
def test_traced_bench_run_is_correct(workload):
    # The tracer looks up all five layers in sys.modules after the warm-up
    # pass, so a workload whose commands stop loading one fails its traced
    # run.  The imports above hide that here, and so does --workload all,
    # whose earlier workloads load every layer: each workload gets a process.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--trace", "1",
         "--seconds", "0"], cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
