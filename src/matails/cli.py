"""Config-driven experiment runner.

Commands::

    matails simulate --config exp.ini          write replicate windows
    matails limits   --config exp.ini          theoretical measures only
    matails verify   --config exp.ini          empirical vs theoretical table
    matails hill     --config exp.ini --k 500  tail-index report
    matails hill     --sample out.csv --k 500  same, from a sample file

The config is an INI file with one section per concern; any key can be
overridden on the command line with ``--set section.key=value``.  Every
output carries a JSON echo of the resolved config (sidecar ``.meta.json``
for CSV, inline for JSON), which is sufficient to reproduce the run
byte for byte: outputs contain no timestamps and floats are written with
full round-trip precision.

Exit status: 0 success, 2 configuration or validation error (including a
lag depth beyond :data:`~matails.ma_process.MAX_DEPTH`), 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import AssumptionError, ParameterError, UnsupportedError
from .estimation import convergence_table, hill, theoretical_verdicts
from .innovations import ParetoFamily, TailModel
from .limit_measures import DEFAULT_INTEGRATION_BUDGET, UpperRect
from .ma_process import (
    INFINITE,
    CoefficientSeq,
    ExplicitFinite,
    Geometric,
    Polynomial,
    SimulationBatch,
    simulate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The sample-file block: ``simulate`` writes ``ROW_SLICE // width`` replicate
# rows at a time and ``hill --sample`` parses ``ROW_SLICE`` lines at a time, so
# neither side holds whole-file index, Python-row or parse arrays.
ROW_SLICE = 1 << 14

EXAMPLE_CONFIG = """\
[coefficients]
family = geometric          ; explicit | geometric | polynomial
rho = 0.5                   ; geometric ratio
; values = 1, 0.5, 0.25     ; explicit family
; beta = 2                  ; polynomial decay; set trunc_eps = 1e-5 with it
m = infinite                ; moving-average order, or "infinite"
; trunc_eps = 1e-5          ; truncation tolerance for m = infinite

[tail]
family = standard_pareto    ; standard_pareto | shifted_pareto
alpha = 1.0
scale = 1.0

[rows]
; one evaluation row per key: "<order j> ; index:threshold, ..."
row0 = 0; 0:1.0
row1 = 1; 0:1.0, 1:1.0

[run]
n = 100000
t = 1000                    ; omit to default to n/1000 (about 1000 exceedances)
; t_grid = 10, 100, 1000   ; used by verify instead of t when present
seed = 42
; window = -1:2             ; simulate window; defaults to the rows' span
; integration_budget = 200000 ; lattice points per drawn tuple, rounded up to a multiple of 16

[output]
path = out.csv
format = csv                ; csv | json
"""


class ConfigError(ValueError):
    pass


@dataclass
class Experiment:
    """Fully parsed and validated experiment description."""

    coeffs: CoefficientSeq
    m: object
    trunc_eps: float | None
    model: TailModel
    rows: list[tuple[int, UpperRect]]
    n: int | None
    t_grid: list[float]
    seed: int
    window: tuple[int, int] | None
    integration_budget: int
    out_path: str | None
    out_format: str
    raw: dict


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_coefficients(sec) -> tuple[CoefficientSeq, object, float | None]:
    family = sec.get("family", "").strip().lower()
    if family == "explicit":
        if "values" not in sec:
            raise ConfigError("explicit coefficients need 'values'")
        coeffs = ExplicitFinite(_floats(sec["values"]))
    elif family == "geometric":
        coeffs = Geometric(float(sec.get("rho", "nan")))
    elif family == "polynomial":
        coeffs = Polynomial(float(sec.get("beta", "nan")))
    else:
        raise ConfigError(f"unknown coefficient family {family!r}")
    m_text = sec.get("m", "").strip().lower()
    if not m_text:
        raise ConfigError("coefficients section needs 'm' (order or 'infinite')")
    if m_text in ("infinite", "inf"):
        m = INFINITE
    else:
        m = int(m_text)
        if m < 0:
            raise ConfigError(f"order m must be nonnegative, got {m}")
    trunc_eps = float(sec["trunc_eps"]) if "trunc_eps" in sec else None
    if trunc_eps is not None and not trunc_eps > 0:
        raise ConfigError(f"trunc_eps must be positive, got {trunc_eps}")
    return coeffs, m, trunc_eps


def _parse_tail(sec) -> TailModel:
    family = sec.get("family", "").strip().lower()
    try:
        fam = ParetoFamily(family)
    except ValueError:
        raise ConfigError(f"unknown tail family {family!r}") from None
    return TailModel(fam, float(sec.get("alpha", "nan")), float(sec.get("scale", "1.0")))


def _parse_row(text: str) -> tuple[int, UpperRect]:
    head, _, body = text.partition(";")
    if not body.strip():
        raise ConfigError(f"row {text!r} must look like '<j>; index:threshold, ...'")
    j = int(head)
    pairs = []
    for tok in body.replace(",", " ").split():
        k, _, a = tok.partition(":")
        pairs.append((int(k), float(a)))
    return j, UpperRect(pairs)


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    return (int(lo), int(hi)) if sep else (int(lo), int(lo))


def load_experiment(path: str, overrides: list[str]) -> Experiment:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    for item in overrides:
        key, sep, value = item.partition("=")
        section, dot, option = key.partition(".")
        if not (sep and dot and section and option):
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value)

    if not parser.has_section("coefficients") or not parser.has_section("tail"):
        raise ConfigError("config needs [coefficients] and [tail] sections")
    coeffs, m, trunc_eps = _parse_coefficients(parser["coefficients"])
    model = _parse_tail(parser["tail"])

    rows = []
    if parser.has_section("rows"):
        for key in parser["rows"]:
            rows.append(_parse_row(parser["rows"][key]))

    run = parser["run"] if parser.has_section("run") else {}
    n = int(run["n"]) if "n" in run else None
    if n is not None and n < 1:
        raise ConfigError(f"replicate count must be >= 1, got {n}")
    seed = int(run.get("seed", "0"))
    if "t_grid" in run:
        t_grid = _floats(run["t_grid"])
        if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
    elif "t" in run:
        t_grid = [float(run["t"])]
    else:
        t_grid = []
    if any(not 1.0 <= t < math.inf for t in t_grid):
        raise ConfigError("tail levels must be finite and >= 1")
    window = _parse_window(run["window"]) if "window" in run else None
    if window and window[0] > window[1]:
        raise ConfigError(f"window is empty: {window}")
    budget = int(run.get("integration_budget", DEFAULT_INTEGRATION_BUDGET))
    if budget <= 0:
        raise ConfigError(f"integration_budget must be positive, got {budget}")

    out = parser["output"] if parser.has_section("output") else {}
    out_format = out.get("format", "csv").strip().lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {out_format!r}")

    raw = {s: dict(parser[s]) for s in parser.sections()}
    return Experiment(
        coeffs, m, trunc_eps, model, rows, n, t_grid, seed, window,
        budget, out.get("path"), out_format, raw,
    )


def _rect_text(rect: UpperRect) -> str:
    return ",".join(f"{k}:{a!r}" for k, a in rect.constraints)


def _meta(exp: Experiment, command: str, extra: dict | None = None) -> dict:
    meta = {"command": command, "config": exp.raw, "version": __version__}
    if extra:
        meta.update(extra)
    return meta


def _write_output(exp: Experiment, out_path, columns, rows, meta, csv_body=None) -> None:
    """CSV body plus .meta.json sidecar, or a single JSON document.

    ``csv_body``, when given, is the CSV body already rendered as text chunks
    of the same ``rows``; only one of the two is consumed.
    """
    if out_path is None:
        raise ConfigError("no output path: set [output] path or pass --out")
    if exp.out_format == "csv":
        # csv writes a float as its round-trip repr and None as ""; callers convert other types
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            if csv_body is None:
                writer.writerows(rows)
            else:
                fh.writelines(csv_body)
        with open(f"{out_path}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        doc = {
            "meta": meta,
            "columns": list(columns),
            "rows": list(rows),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _simulation_window(exp: Experiment) -> tuple[int, int]:
    if exp.window is not None:
        return exp.window
    if exp.rows:
        return (
            min(rect.min_index for _, rect in exp.rows),
            max(rect.max_index for _, rect in exp.rows),
        )
    raise ConfigError("no window: set [run] window or provide rows")


def _simulate(exp: Experiment, command: str, window: tuple[int, int],
              threads: int) -> SimulationBatch:
    if exp.n is None:
        raise ConfigError(f"{command} needs [run] n")
    return simulate(
        exp.coeffs, exp.m, exp.model, window, exp.n, exp.seed, exp.trunc_eps, threads=threads
    )


def _sample_slices(batch: SimulationBatch):
    """(replicate ids, indices, values) of the nonzero cells, ``ROW_SLICE // width`` rows at a time."""
    rows = max(1, ROW_SLICE // batch.matrix.shape[1])
    for start in range(0, batch.matrix.shape[0], rows):
        block = batch.matrix[start:start + rows]
        r, w = np.nonzero(block)
        yield (r + start).tolist(), (batch.lo + w).tolist(), block[r, w].tolist()


def _sample_text(ids, indices, values) -> str:
    """One slice's CSV lines, the bytes csv.writer writes for the same rows
    (``%r`` is the round-trip repr it writes for a float)."""
    return ("%d,%d,%r\n" * len(ids)) % tuple(itertools.chain.from_iterable(zip(ids, indices, values)))


def cmd_simulate(exp: Experiment, threads: int) -> int:
    window = _simulation_window(exp)
    batch = _simulate(exp, "simulate", window, threads)
    # Both generators are lazy and _write_output consumes one of them.
    rows = itertools.chain.from_iterable(zip(*cut) for cut in _sample_slices(batch))
    body = (_sample_text(*cut) for cut in _sample_slices(batch))
    meta = _meta(exp, "simulate", {
        "seed": exp.seed,
        "truncation_order": batch.truncation_order,
        "window": list(window),
        "n": exp.n,
    })
    _write_output(exp, exp.out_path, ("replicate_id", "index", "value"), rows, meta, body)
    return EXIT_OK


def cmd_limits(exp: Experiment) -> int:
    if not exp.rows:
        raise ConfigError("limits needs a [rows] section")
    verdicts = theoretical_verdicts(exp.coeffs, exp.m, exp.model.alpha, exp.rows,
                                    exp.trunc_eps, exp.integration_budget, exp.seed)
    out_rows = []
    for (j, rect), mv in zip(exp.rows, verdicts):
        if isinstance(mv, str):
            out_rows.append((j, _rect_text(rect), None, None, None, None, mv))
        else:
            value = "+inf (not bounded away)" if mv.is_infinite else mv.value
            out_rows.append((j, _rect_text(rect), value, mv.method.value, mv.stderr,
                             mv.truncation_error_bound, mv.note))
    columns = ("j", "rect", "value", "method", "stderr", "truncation_error_bound", "note")
    _write_output(exp, exp.out_path, columns, out_rows, _meta(exp, "limits"))
    return EXIT_OK


def cmd_verify(exp: Experiment, threads: int) -> int:
    if not exp.rows:
        raise ConfigError("verify needs a [rows] section")
    if exp.n is None:
        raise ConfigError("verify needs [run] n")
    # default tail level targets ~1000 exceedances per cell
    t_grid = exp.t_grid or [max(1.0, exp.n / 1000.0)]
    cells = convergence_table(
        exp.coeffs, exp.m, exp.model, exp.rows, exp.n, t_grid, exp.seed,
        exp.trunc_eps, exp.integration_budget, threads,
    )
    csv_out = exp.out_format == "csv"
    out_rows = []
    for t, row in cells:
        if row.error:
            out_rows.append((t, row.j, _rect_text(row.rect)) + (None,) * 8 + (row.error,))
            continue
        emp, theo = row.empirical, row.theoretical
        z = row.z_score
        out_rows.append((
            t, row.j, _rect_text(row.rect),
            emp.value, emp.stderr, emp.count,
            theo.value, theo.stderr,
            row.abs_error,
            None if z is None or math.isinf(z) else z,
            ("true" if emp.degenerate else "false") if csv_out else emp.degenerate, None,
        ))
    columns = (
        "t", "j", "rect", "empirical", "empirical_stderr", "count",
        "theoretical", "theoretical_stderr", "abs_error", "z_score",
        "degenerate", "error",
    )
    _write_output(exp, exp.out_path, columns, out_rows, _meta(exp, "verify"))
    return EXIT_OK


def _sample_rows(path: str, lines: list[str], line: int):
    """(ids, indices, values) of sample-file data lines, the first on file line ``line``."""
    try:
        ids, idx, vals = np.loadtxt(lines, delimiter=",", ndmin=2, usecols=(0, 1, 2)).T
        keys = np.concatenate((ids, idx))
        if not np.all(np.isfinite(keys) & (keys == np.floor(keys))):
            raise ValueError("replicate_id and index must be integers")
    except ValueError as exc:
        if len(lines) > 1:
            # numpy numbers rows within the block: parse it line by line to name the bad one
            for offset, text in enumerate(lines):
                _sample_rows(path, [text], line + offset)
        msg = re.sub(r" at row \d+", "", str(exc))
        raise ConfigError(f"{path}, line {line}: {msg}") from None
    return ids, idx, vals


def _values_from_sample_file(path: str, index: int) -> np.ndarray:
    """Reconstruct a coordinate's replicate values from a simulate CSV,
    parsed ``ROW_SLICE`` lines at a time.

    ``n`` is the sidecar's (a nonnegative integer, or null for none), else the
    largest id + 1; absent cells read 0.0, ids outside ``[0, n)`` are ignored
    and a repeated ``(id, index)`` keeps its last row.
    """
    sidecar = f"{path}.meta.json"
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{sidecar}: unreadable sidecar ({exc})") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{sidecar}: not a JSON object ({type(meta).__name__})")
    n = meta.get("n")
    if n is not None and (type(n) is not int or n < 0):
        raise ConfigError(f"{sidecar}: n must be a nonnegative integer, got {n!r}")
    values = None if n is None else np.zeros(n)
    # without n, the kept cells wait in file order for the largest id over all indices
    kept, top, line = [], -1.0, 2
    with open(path, "r", encoding="utf-8", newline="") as fh, warnings.catch_warnings():
        if fh.readline().rstrip("\r\n") != "replicate_id,index,value":
            raise ConfigError(f"{path} is not a simulate output file")
        # a header-only file is a valid sample with no nonzero cells
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        while lines := list(itertools.islice(fh, ROW_SLICE)):
            ids, idx, vals = _sample_rows(path, lines, line)
            line += len(lines)
            keep = (idx == index) & (ids >= 0)
            if n is None:
                top = max(top, ids.max(initial=-1.0))
                kept.append((ids[keep], vals[keep]))
            else:
                keep &= ids < n
                values[ids[keep].astype(np.intp)] = vals[keep]
    if n is None:
        values = np.zeros(int(top) + 1)
        for ids, vals in kept:
            values[ids.astype(np.intp)] = vals
    return values


def cmd_hill(exp: Experiment | None, sample: str | None, k: int, index: int, threads: int,
             out_path: str | None) -> int:
    if sample is not None:
        vals = _values_from_sample_file(sample, index)
        source = sample
    else:
        if exp is None:
            raise ConfigError("hill needs --sample or --config")
        window = exp.window if exp.window is not None else (index, index)
        if not window[0] <= index <= window[1]:
            raise ConfigError(f"index {index} lies outside the simulated window")
        batch = _simulate(exp, "hill from config", window, threads)
        vals = batch.matrix[:, index - batch.lo]
        source = "config"
    alpha_hat = hill(vals, k)
    report = {"alpha_hat": alpha_hat, "k": k, "n": len(vals), "index": index, "source": source}
    print(f"alpha_hat = {alpha_hat!r}  (k = {k}, n = {len(vals)}, index = {index})")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matails",
        description="Simulate heavy-tailed moving averages and verify their tail-measure limits.",
        epilog="Run 'matails example-config' to print a template config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config, help="INI experiment file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable)")
        p.add_argument("--threads", type=int, default=1, help="worker cap (output-invariant)")
        p.add_argument("--out", help="output path (overrides [output] path)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (overrides [output] format)")

    common(sub.add_parser("simulate", help="write replicate windows to a sample file"))
    common(sub.add_parser("limits", help="evaluate the theoretical measures only"))
    common(sub.add_parser("verify", help="empirical vs theoretical comparison table"))
    p_hill = sub.add_parser("hill", help="tail-index estimate from a sample file or config")
    common(p_hill, needs_config=False)
    p_hill.add_argument("--sample", help="CSV produced by the simulate command")
    p_hill.add_argument("--k", type=int, required=True, help="number of top order statistics")
    p_hill.add_argument("--index", type=int, default=0, help="sequence index to estimate on")
    sub.add_parser("example-config", help="print a template config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "example-config":
        print(EXAMPLE_CONFIG, end="")
        return EXIT_OK
    try:
        exp = None
        if args.config:
            exp = load_experiment(args.config, args.set)
            if args.out:
                exp.out_path = args.out
            if args.format:
                exp.out_format = args.format
        if args.command == "simulate":
            return cmd_simulate(exp, args.threads)
        if args.command == "limits":
            return cmd_limits(exp)
        if args.command == "verify":
            return cmd_verify(exp, args.threads)
        return cmd_hill(exp, args.sample, args.k, args.index, args.threads, args.out)
    except (ConfigError, ParameterError, AssumptionError, UnsupportedError,
            configparser.Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
