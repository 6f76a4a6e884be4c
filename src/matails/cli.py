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
full round-trip precision (the shortest repr digits; ``simulate`` renders
them in numpy where it can certify them, and ``hill --sample`` reads them
back in numpy where it can prove the double, else with ``float`` or
``np.loadtxt``).

``simulate`` renders each simulation tile while the workers sum the next
ones, so no command holds the replicate matrix, and CSV and JSON are both
written a row block at a time; every check runs before a file is opened.

Exit status: 0 success, 2 configuration or validation error (including a
lag depth beyond :data:`~matails.ma_process.MAX_DEPTH`), 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import re
import sys
import warnings
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .estimation import check_order_count, convergence_table, hill, theoretical_verdicts
from .innovations import ParetoFamily, TailModel
from .limit_measures import DEFAULT_INTEGRATION_BUDGET, UpperRect
from .ma_process import (
    INFINITE,
    CoefficientSeq,
    ExplicitFinite,
    Geometric,
    MAX_DRAWS,
    Polynomial,
    simulate_tiles,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The sample-file block: ``simulate`` renders ``ROW_SLICE // width`` replicate
# rows of a simulation tile at a time as numpy text columns, and ``hill
# --sample`` parses ``ROW_SLICE * 16`` bytes at a time (about half as many
# demo lines), so neither side holds whole-file arrays.
ROW_SLICE = 1 << 14

# Exact powers of ten (5^22 < 2^53) for the sample renderer, and how far from
# a rounding tie or interval edge a scaled value, computed to within 2^-53,
# must lie for its digits to count as certified.
_POW10 = 10.0 ** np.arange(23)
_MARGIN = 1e-9

# The sample reader's header, the separators of one line of its fast grammar
# (signs aside), the digits that pad a block in front so every field ends at
# least 16 bytes in, and the masks keeping the last w = 0..8 bytes of a
# little-endian uint64 word.
_HEADER = b"replicate_id,index,value"
_LINE = np.frombuffer(b",,.\n", np.uint8)
_PAD = b"0" * 16
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - w)) for w in range(9)], dtype=np.uint64)
# the widest id, index, integer part, fraction and value digit runs it reads
_WIDEST = np.array([[8], [8], [8], [16], [18]])

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


def _sample_slices(lo: int, tiles):
    """(replicate ids, indices, values) of the nonzero cells of each ``(start,
    tile)`` of ``tiles``, a ``(width, rows)`` tile of the replicates from
    ``start`` on a window from ``lo``, ``ROW_SLICE // width`` rows at a time."""
    for start, tile in tiles:
        rows = max(1, ROW_SLICE // tile.shape[0])
        for first in range(0, tile.shape[1], rows):
            block = tile[:, first:first + rows].T
            r, w = np.nonzero(block)
            yield r + (start + first), lo + w, block[r, w]


def _split(a):
    """Veltkamp's split: hi + lo == a, each with at most 26 significant bits."""
    hi = a * 134217729.0  # 2^27 + 1
    hi -= hi - a
    return hi, a - hi


def _product(a, scale):
    """(hi, lo): ``a * scale == hi + lo`` exactly, ``hi`` the rounded product
    (Dekker's two-product, no FMA)."""
    hi = a * scale
    (a_hi, a_lo), (s_hi, s_lo) = _split(a), _split(scale)
    return hi, ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo


def _scaled(values):
    """(fast, point, whole, frac, half): ``|x| * 10^(17 - point) == whole + frac``
    exactly (Dekker's product, no FMA), ``frac`` in [0, 1), ``half == ulp(x) / 2
    * 10^(17 - point)``; ``fast`` excludes |x| outside [1e-4, 1e15) and powers of
    two, whose rounding interval is asymmetric."""
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.5
    mant, exp = np.frexp(a)
    fast &= mant != 0.5
    point = np.floor(np.log10(a)).astype(np.int64) + 1
    scale = _POW10[np.clip(17 - point, 0, 22)]
    hi, lo = _product(a, scale)
    floor = np.floor(lo)
    whole = hi.astype(np.int64) + floor.astype(np.int64)
    return fast, point, whole, lo - floor, np.ldexp(scale, exp - 54)


def _shortest_digits(values):
    """(digits, fraction, certified): ``|x| == digits / 10**fraction`` in repr's
    shortest digits, where certified: the first of the 15-, 16- and 17-digit
    integers nearest ``|x| * 10^k`` inside x's rounding interval and off a tie
    by over ``_MARGIN``, each shorter one outside by as much, no trailing 0."""
    undecided, point, whole, frac, half = _scaled(values)
    digits, fraction = np.zeros_like(whole), np.zeros_like(point)
    certified = np.zeros_like(undecided)
    for count, div in ((15, 100), (16, 10), (17, 1)):
        q = whole // div
        y = (whole - q * div + frac) / div  # (whole + frac) / div - q, in [0, 1)
        up = y > 0.5
        dist = np.where(up, 1.0 - y, y)
        nearest = q + up
        take = undecided & (dist < half / div - _MARGIN) & (dist < 0.5 - _MARGIN)
        take &= (nearest % 10 != 0) & (nearest >= 10 ** (count - 1)) & (nearest < 10**count)
        digits[take], fraction[take] = nearest[take], count - point[take]
        certified |= take
        undecided &= dist > half / div + _MARGIN
    return digits, fraction, certified


def _digit_columns(v, shown=None) -> list:
    """Text columns of the digits of each ``v >= 0``, right-aligned: all of
    them, or the last ``shown``, and NUL to the left."""
    fewest, most = (shown.min(), shown.max()) if shown is not None else (
        len(str(v.min())), len(str(v.max())))
    columns, q = [], v
    for p in range(most):
        q1 = q // 10
        digit = q - q1 * 10 + 48
        if p >= fewest:
            digit = np.where(q > 0 if shown is None else p < shown, digit, 0)
        columns.append(digit.astype(np.uint8))
        q = q1
    return columns[::-1]


def _sign_column(v) -> list:
    """The text column of ``v``'s minus signs, or none when no entry is negative."""
    negative = v < 0
    return [np.where(negative, np.uint8(ord("-")), np.uint8(0))] if negative.any() else []


def _sample_text(ids, indices, values) -> bytes:
    """One slice's CSV lines, the bytes of ``"%d,%d,%r\\n"`` per cell: a matrix
    of uint8 text columns, each field as wide as the slice needs, with its
    NUL padding dropped.  A value is written from its certified digits
    (:func:`_shortest_digits`), else with repr."""
    if not len(ids):
        return b""
    digits, fraction, certified = _shortest_digits(values)
    scale = 10 ** np.minimum(fraction, 18)
    whole = digits // scale
    slow = np.flatnonzero(~certified)
    reprs = np.array([repr(v) for v in values[slow].tolist()], dtype="S")  # at most S24
    comma, dot, newline, nul = (np.full(len(ids), ord(c), np.uint8) for c in ",.\n\0")
    columns = [*_digit_columns(ids), comma, *_sign_column(indices),
               *_digit_columns(np.abs(indices)), comma]
    start = len(columns)
    # a whole number is written "<digits>.0"
    columns += [*_sign_column(values), *_digit_columns(whole), dot,
                *_digit_columns(digits - whole * scale, np.maximum(fraction, 1))]
    columns += [nul] * (start + reprs.itemsize - len(columns)) + [newline]
    text = np.stack(columns, axis=1)
    text[slow, start:-1] = 0
    text[slow, start:start + reprs.itemsize] = reprs.view(np.uint8).reshape(-1, reprs.itemsize)
    text = text.ravel()
    return text[text != 0].tobytes()


def cmd_simulate(exp: Experiment, threads: int) -> int:
    # [run] n replicates on [run] window, else the rows' span
    if exp.n is None:
        raise ConfigError("simulate needs [run] n")
    window = exp.window
    if window is None:
        if not exp.rows:
            raise ConfigError("no window: set [run] window or provide rows")
        window = min(r.min_index for _, r in exp.rows), max(r.max_index for _, r in exp.rows)
    depth, tiles = simulate_tiles(exp.coeffs, exp.m, exp.model, window, exp.n, exp.seed,
                                  exp.trunc_eps, threads)
    # Both generators are lazy and share the one tile stream; _write_output
    # consumes one of them while the workers sum the next tiles.
    cuts = _sample_slices(window[0], tiles)
    rows = (row for cut in cuts for row in zip(*(a.tolist() for a in cut)))
    body = (_sample_text(*cut) for cut in cuts)
    meta = _meta(exp, "simulate", {
        "seed": exp.seed,
        "truncation_order": depth,
        "window": list(window),
        "n": exp.n,
    })
    with closing(tiles):  # a failed write stops the workers before the error leaves
        _write_output(exp, ("replicate_id", "index", "value"), rows, meta, body)
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
    _write_output(exp, columns, out_rows, _meta(exp, "limits"))
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
    _write_output(exp, columns, out_rows, _meta(exp, "verify"))
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


def _check_sample_size(path: str, n: int | None) -> None:
    if n is not None and n > MAX_DRAWS:
        raise ConfigError(f"{path}: {n} replicates exceed the {MAX_DRAWS} that simulate can write")


def _sample_blocks(fh, rest: bytes = b""):
    """The rest of a binary sample file in blocks of about ``ROW_SLICE * 16``
    bytes (half as many demo lines), each ending where a line ends: after a
    newline, a carriage return not followed by one, or at the end of the file."""
    while chunk := fh.read(ROW_SLICE * 16):
        rest += chunk
        end = max(rest.rfind(b"\n"), rest.rfind(b"\r", 0, len(rest) - 1)) + 1
        if end:
            block, rest = rest[:end], rest[end:]
            yield block
    if rest:
        yield rest


def _swar(words, ends, widths):
    """The integers whose decimal digits are the last ``widths`` (0 to 8) bytes
    of the little-endian 8-byte words ``words[ends]``: the other bytes masked
    off, the digits summed pairwise by three multiply-shift-mask steps
    (Lemire 2021)."""
    word = words[ends] & _KEEP[widths]
    word = (word & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    word = (word & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return ((word & 0x0000FFFF0000FFFF) * 42949672960001 >> 32).astype(np.int64)


def _quotients(mant, digits):
    """(values, proven): the double nearest ``mant / 10^digits`` for int64
    ``mant < 10^18`` and ``digits`` in [1, 16], and where it is proven so.
    Below 2^53 the quotient of the exact doubles is correctly rounded
    (Clinger 1990); above, a candidate is proven when the residual
    ``mant - c * 10^digits``, exact but for two roundings far under
    ``_MARGIN`` (Dekker's product), lies inside ``c``'s rounding interval by
    more than ``_MARGIN`` and ``c`` is no power of two (asymmetric interval).
    A rejected candidate gives way once to its neighbour toward the residual."""
    scale = _POW10[digits]
    values = mant / scale
    proven, residual = _inside(values, mant, scale)
    proven |= mant < 2**53
    retry = np.flatnonzero(~proven)
    if len(retry):
        values[retry] = np.nextafter(values[retry], np.copysign(np.inf, residual[retry]))
        proven[retry] = _inside(values[retry], mant[retry], scale[retry])[0]
    return values, proven


def _inside(values, mant, scale):
    """(inside, residual) of candidates ``values`` for ``mant / scale``."""
    mantissa, exp = np.frexp(values)
    hi, lo = _product(values, scale)
    whole = np.floor(hi)
    residual = (mant - whole.astype(np.int64)).astype(float) - (hi - whole) - lo
    inside = np.abs(residual) < np.ldexp(scale, exp - 54) - _MARGIN
    return inside & (mantissa != 0.5), residual


def _fast_rows(block: bytes, index: int, limit):
    """(lines, ids, keep, values) of a block whose every line reads
    ``\\d{1,8},-?\\d{1,8},-?\\d{1,8}\\.\\d{1,16}\\n`` with at most 18 digits
    in the value (so its mantissa fits an int64), else None.  ``keep`` marks
    the rows of ``index`` with an id below ``limit`` and ``values`` holds
    theirs, each the double nearest its text: :func:`_quotients` where
    proven, else ``float``."""
    data = _PAD + block
    buf = np.frombuffer(data, np.uint8)
    if buf[-1] != 10 or buf.max() > 57:
        return None
    # Every byte is now a digit or, below '0', a separator: per line ", , . \n"
    # and a '-' right after either comma.
    seps = np.flatnonzero(buf < 48)
    marks = buf[seps]
    minus = marks == 45
    if not (buf[seps[minus] - 1] == 44).all():
        return None
    seps, marks = seps[~minus], marks[~minus]
    if len(seps) % 4 or not (marks.reshape(-1, 4) == _LINE).all():
        return None
    comma1, comma2, dot, newline = seps.reshape(-1, 4).T
    index_sign, value_sign = buf[comma1 + 1] == 45, buf[comma2 + 1] == 45
    id_width = comma1 - np.concatenate(([len(_PAD)], newline[:-1] + 1))
    index_width = comma2 - comma1 - 1 - index_sign
    whole_width = dot - comma2 - 1 - value_sign
    digits = newline - dot - 1
    widths = np.stack((id_width, index_width, whole_width, digits, whole_width + digits))
    if not ((widths >= 1) & (widths <= _WIDEST)).all():
        return None
    # the word starting at every byte, unaligned
    words = np.ndarray(len(data) - 7, "<u8", data, strides=(1,))
    # one _swar call per pass: its cost is mostly per call on short blocks
    ids, indices = _swar(words, np.concatenate((comma1, comma2)) - 8,
                         np.concatenate((id_width, index_width))).reshape(2, -1)
    keep = (np.where(index_sign, -indices, indices) == index) & (ids < limit)
    lines, rows = len(newline), np.flatnonzero(keep)
    dot, newline, whole_width, digits = dot[rows], newline[rows], whole_width[rows], digits[rows]
    tail = np.minimum(digits, 8)
    whole, high, low = _swar(words, np.concatenate((dot - 8, newline - 16, newline - 8)),
                             np.concatenate((whole_width, digits - tail, tail))).reshape(3, -1)
    values, proven = _quotients(whole * 10**digits + high * 10**8 + low, digits)
    np.negative(values, out=values, where=value_sign[rows])
    for r in np.flatnonzero(~proven).tolist():
        values[r] = float(buf[comma2[rows[r]] + 1:newline[r]].tobytes())
    return lines, ids, keep, values


def _values_from_sample_file(path: str, index: int) -> np.ndarray:
    """Reconstruct a coordinate's replicate values from a simulate CSV,
    parsed a block of ``ROW_SLICE * 16`` bytes at a time.

    ``n`` is the sidecar's (a nonnegative integer, or null for none), else the
    largest id + 1; absent cells read 0.0, ids outside ``[0, n)`` are ignored
    and a repeated ``(id, index)`` keeps its last row.  An ``index`` outside
    the sidecar's ``window`` (``[lo, hi]``, or absent for none) is refused
    before the file is opened.  An ``n`` over
    :data:`~matails.ma_process.MAX_DRAWS`, more replicates than simulate
    writes, is refused before the vector is allocated.  A block that
    :func:`_fast_rows` does not read goes whole, split into lines as text
    mode does, through :func:`_sample_rows`, which names a bad line.
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
    _check_sample_size(sidecar, n)
    window = meta.get("window")
    if window is not None:
        if not (type(window) is list and len(window) == 2
                and all(type(w) is int for w in window) and window[0] <= window[1]):
            raise ConfigError(f"{sidecar}: window must be [lo, hi] integers with lo <= hi, "
                              f"got {window!r}")
        if not window[0] <= index <= window[1]:
            raise ConfigError(f"{sidecar}: index {index} is outside the sample's window "
                              f"{window[0]}:{window[1]}")
    values, limit = (None, math.inf) if n is None else (np.zeros(n), n)
    # without n, the kept cells wait in file order for the largest id over all indices
    kept, top, line = [], -1, 2
    with open(path, "rb") as fh, warnings.catch_warnings():
        head = fh.read(len(_HEADER) + 2)
        end = head[len(_HEADER):]
        if not head.startswith(_HEADER) or end[:1] not in (b"\n", b"\r", b""):
            raise ConfigError(f"{path} is not a simulate output file")
        # a block of blank lines is valid and holds no cells
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        for block in _sample_blocks(fh, end[2:] if end == b"\r\n" else end[1:]):
            rows = _fast_rows(block, index, limit)
            if rows is None:
                lines = io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", newline="").readlines()
                ids, idx, vals = _sample_rows(path, lines, line)
                keep = (idx == index) & (ids >= 0) & (ids < limit)
                rows = len(lines), ids, keep, vals[keep]
            count, ids, keep, vals = rows
            line += count
            if n is None:
                top = max(top, ids.max(initial=-1))
                kept.append((ids[keep], vals))
            else:
                values[ids[keep].astype(np.intp)] = vals
    if n is None:
        _check_sample_size(path, int(top) + 1)
        values = np.zeros(int(top) + 1)
        for ids, vals in kept:
            values[ids.astype(np.intp)] = vals
    return values


def cmd_hill(sample: str, k: int, index: int, out_path: str | None) -> int:
    """Hill estimate of alpha from ``X_index`` of a ``simulate`` sample file."""
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
    p_hill.add_argument("--sample", required=True, help="CSV produced by the simulate command")
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
