"""Config-driven experiment runner.

Commands::

    matails simulate --config exp.ini          write replicate windows
    matails limits   --config exp.ini          theoretical measures only
    matails verify   --config exp.ini          empirical vs theoretical table
    matails hill     --sample out.csv --k 500  tail-index report from a simulate file

The config is an INI file with one section per concern; any key can be
overridden on the command line with ``--set section.key=value``.  Every
output carries a JSON echo of the resolved config (sidecar ``.meta.json``
for CSV, inline for JSON), which is sufficient to reproduce the run
byte for byte: outputs contain no timestamps and floats are written with
full round-trip precision (the shortest repr digits).  A CSV sample from
``simulate`` also gets an exact binary companion, ``<out>.npy``, which is
what ``hill --sample`` reads: the CSV is an export that no command reads
back.  The sample file's writer and reader are :mod:`matails.sample_file`.

``simulate`` renders and stores each simulation tile while the workers sum
the next ones, so no command holds the replicate matrix, and CSV and JSON
are both written a row block at a time; every check runs before a file is
opened.

This module imports only the standard library; each command imports the
layers it runs.  ``example-config``, ``--help`` and usage errors load no
numpy, and ``limits`` loads neither the sample file nor a thread pool.

Exit status: 0 success, 2 configuration or validation error (including a
lag depth beyond :data:`~matails.ma_process.MAX_DEPTH`), 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from contextlib import ExitStack, closing
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError

if TYPE_CHECKING:  # for the annotations; the commands import what they run
    from .innovations import TailModel
    from .limit_measures import UpperRect
    from .ma_process import CoefficientSeq

# Once imported, numpy's OpenBLAS keeps a pool of worker threads that spin
# while idle: ``import numpy; time.sleep(0.3)`` costs about 0.25 s of CPU on
# two cores, against 0.17 s with one thread.  matails makes no BLAS call, so
# one thread loses nothing; a value set in the environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

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
t_grid = 1000               ; verify's tail levels, e.g. 10, 100, 1000; omit for n/1000
seed = 42
; window = -1:2             ; simulate window; defaults to the rows' span
; integration_budget = 200000 ; lattice points per drawn tuple, rounded up to a multiple of 16

[output]
path = out.csv
format = csv                ; csv | json
"""


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
    from .ma_process import INFINITE, ExplicitFinite, Geometric, Polynomial

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
    from .innovations import ParetoFamily, TailModel

    family = sec.get("family", "").strip().lower()
    try:
        fam = ParetoFamily(family)
    except ValueError:
        raise ConfigError(f"unknown tail family {family!r}") from None
    return TailModel(fam, float(sec.get("alpha", "nan")), float(sec.get("scale", "1.0")))


def _parse_row(text: str) -> tuple[int, UpperRect]:
    from .limit_measures import UpperRect

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
    from .budgets import DEFAULT_INTEGRATION_BUDGET

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
    if seed < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {seed}")
    if "t" in run:
        raise ConfigError("[run] t is not read: set t_grid instead (t_grid = 1000 for one tail level)")
    t_grid = _floats(run.get("t_grid", ""))
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ConfigError("t_grid must be strictly increasing")
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
    return {"command": command, "config": exp.raw, "version": __version__, **(extra or {})}


def _write_output(exp: Experiment, columns, rows, meta, csv_body=None) -> None:
    """CSV body plus .meta.json sidecar, or a single JSON document, at ``exp.out_path``.

    ``csv_body``, when given, is the CSV body already rendered as ASCII byte
    chunks of the same ``rows``; only one of the two is consumed.  The JSON
    document, ``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline,
    is written head, one row at a time, tail.
    """
    out_path = exp.out_path
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
                fh.flush()
                fh.buffer.writelines(csv_body)
        with open(f"{out_path}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        head = json.dumps(dict(columns=list(columns), meta=meta, rows=[]), indent=2, sort_keys=True)
        # Rows are flat: this item separator alone indents their values as json.dump does.
        encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(head[:-len("[]\n}")])  # "rows" sorts last
            sep = "["
            for row in rows:
                fh.write(f"{sep}\n    " + (f"[\n      {encode(row)[1:-1]}\n    ]" if row else "[]"))
                sep = ","
            fh.write("[]\n}\n" if sep == "[" else "\n  ]\n}\n")


def cmd_simulate(exp: Experiment, threads: int) -> int:
    import numpy as np

    from .ma_process import simulate_tiles
    from .sample_file import MAX_INDEX, _companion, _sample_slices, _sample_text

    # [run] n replicates on [run] window, else the rows' span
    if exp.n is None:
        raise ConfigError("simulate needs [run] n")
    window = exp.window
    if window is None:
        if not exp.rows:
            raise ConfigError("no window: set [run] window or provide rows")
        window = min(r.min_index for _, r in exp.rows), max(r.max_index for _, r in exp.rows)
    if max(-window[0], window[1]) > MAX_INDEX:
        raise ConfigError(f"window {window[0]}:{window[1]} reaches past the 16-digit indices of a "
                          f"sample file: |index| must be at most {MAX_INDEX}")
    depth, tiles = simulate_tiles(exp.coeffs, exp.m, exp.model, window, exp.n, exp.seed,
                                  exp.trunc_eps, threads)
    with np.errstate(over="ignore"):  # a draw is at most inverse_survival(2^-53)
        bound = float(exp.coeffs.psi_array(depth).sum()) * exp.model.inverse_survival(2.0**-53)
    if not bound < sys.float_info.max / 2:  # no sample file holds inf
        raise ConfigError(f"alpha = {exp.model.alpha!r} and scale = {exp.model.scale!r} let sums "
                          f"over lag depth {depth} reach {bound!r}, within a factor 2 of overflow: "
                          f"use a larger alpha")
    meta = _meta(exp, "simulate", {
        "seed": exp.seed,
        "truncation_order": depth,
        "window": list(window),
        "n": exp.n,
    })
    with ExitStack() as stack:
        stack.enter_context(closing(tiles))  # a failed write stops the workers before the error leaves
        store = None
        if exp.out_format == "csv" and exp.out_path is not None:
            companion = stack.enter_context(open(f"{exp.out_path}.npy", "wb"))
            store = _companion(companion, exp.n, window[1] - window[0] + 1)
        # Both generators are lazy and share the one tile stream, which
        # stores each tile in the companion; _write_output consumes one of
        # them while the workers sum the next tiles.
        cuts = _sample_slices(window[0], tiles, store)
        rows = (row for cut in cuts for row in zip(*(a.tolist() for a in cut)))
        body = (_sample_text(*cut) for cut in cuts)
        _write_output(exp, ("replicate_id", "index", "value"), rows, meta, body)
    return EXIT_OK


def cmd_limits(exp: Experiment) -> int:
    from .estimation import theoretical_verdicts

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
    _write_output(exp, columns, out_rows, _meta(exp, "limits"))
    return EXIT_OK


def cmd_verify(exp: Experiment, threads: int) -> int:
    from .estimation import convergence_table

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
    _write_output(exp, columns, out_rows, _meta(exp, "verify"))
    return EXIT_OK


def cmd_hill(sample: str, k: int, index: int, out_path: str | None) -> int:
    """Hill estimate of alpha from ``X_index`` of a ``simulate`` sample file."""
    from .estimation import check_order_count, hill
    from .sample_file import _values_from_sample_file

    check_order_count(k, None)
    vals = _values_from_sample_file(sample, index)
    alpha_hat = hill(vals, k)
    report = {"alpha_hat": alpha_hat, "k": k, "n": len(vals), "index": index, "source": sample}
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

    def common(p, threads=True):
        p.add_argument("--config", required=True, help="INI experiment file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable)")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="simulation worker cap (output-invariant)")
        p.add_argument("--out", help="output path (overrides [output] path)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (overrides [output] format)")

    common(sub.add_parser("simulate", help="write replicate windows to a sample file"))
    common(sub.add_parser("limits", help="evaluate the theoretical measures only"), threads=False)
    common(sub.add_parser("verify", help="empirical vs theoretical comparison table"))
    p_hill = sub.add_parser("hill", help="tail-index estimate from a simulate sample file")
    p_hill.add_argument("--sample", required=True,
                        help="CSV path given to simulate --out; its .meta.json and .npy files are read")
    p_hill.add_argument("--k", type=int, required=True, help="number of top order statistics")
    p_hill.add_argument("--index", type=int, default=0, help="sequence index to estimate on")
    p_hill.add_argument("--out", help="JSON report path")
    sub.add_parser("example-config", help="print a template config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "example-config":
        print(EXAMPLE_CONFIG, end="")
        return EXIT_OK
    try:
        if args.command == "hill":
            return cmd_hill(args.sample, args.k, args.index, args.out)
        exp = load_experiment(args.config, args.set)
        if args.out:
            exp.out_path = args.out
        if args.format:
            exp.out_format = args.format
        if args.command == "simulate":
            return cmd_simulate(exp, args.threads)
        if args.command == "limits":
            return cmd_limits(exp)
        return cmd_verify(exp, args.threads)
    except (ValueError, configparser.Error) as exc:  # ConfigError and the package's errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
