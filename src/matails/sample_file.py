"""The sample file: what ``simulate`` writes and ``hill --sample`` reads.

A sample file is CSV: the header ``replicate_id,index,value``, then the
bytes of ``"%d,%d,%r\\n"`` for each nonzero cell of the replicate windows,
replicate by replicate; its ``.meta.json`` sidecar gives, among the run's
settings, ``n`` and ``window``.  The writer renders about ``ROW_SLICE``
cells at a time as numpy text columns, from the shortest round-trip
digits where it can certify them, else with ``repr``.  The reader holds
each line to one grammar (see :func:`_rows`) and parses blocks of
``ROW_SLICE * 16`` bytes in numpy, proving each double where it can, else
reading it with ``float``; it names the first line outside the grammar.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .ma_process import MAX_DRAWS

# The largest |index| a sample-file line carries, in its 16 digits: ``simulate``
# refuses a window past it before it opens the output.
MAX_INDEX = 10**16 - 1

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

# The header line, the separators of a line once its signs go and its 'e'
# stands for a missing '.', the digits that pad a block in front so every
# field ends at least 16 bytes in, and the masks keeping the last w = 0..8
# bytes of a little-endian uint64 word (all 8 for w up to 16).
_HEADER = b"replicate_id,index,value\n"
_LINE = np.frombuffer(b",,.\n", np.uint8)
_PAD = b"0" * 16
_KEEP = np.array([(1 << 64) - (1 << 8 * max(8 - w, 0)) for w in range(17)], dtype=np.uint64)
# the widest id, index, whole part and fraction digit runs of a plain value
_WIDEST = np.array([[16], [16], [16], [20]])


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


def _swar(words, ends, widths):
    """The integers whose decimal digits are the last ``widths`` (0 to 8; a
    wider one keeps all 8) bytes of the little-endian 8-byte words
    ``words[ends]``: the other bytes masked off, the digits summed pairwise
    by three multiply-shift-mask steps (Lemire 2021)."""
    word = words[ends] & _KEEP[widths]
    word = (word & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    word = (word & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return ((word & 0x0000FFFF0000FFFF) * 42949672960001 >> 32).astype(np.int64)


def _integers(words, ends, widths):
    """The integers of the ``widths`` (1 to 16) decimal digits before ``ends``
    in the bytes of ``words``: the last 8 digits, then the rest where any
    field is wider."""
    values = _swar(words, ends - 8, widths)
    if widths.max(initial=0) > 8:
        values += _swar(words, ends - 16, np.maximum(widths - 8, 0)) * 10**8
    return values


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


def _sample_blocks(fh):
    """The rest of a binary sample file in blocks of about ``ROW_SLICE * 16``
    bytes (half as many demo lines), each ending after a newline, then what
    follows the last newline, if anything.  A run of over 128 bytes with no
    newline, longer than any line of the grammar, comes as soon as it is
    read, so a file without newlines is refused in one block."""
    rest = b""
    while chunk := fh.read(ROW_SLICE * 16):
        rest += chunk
        end = rest.rfind(b"\n") + 1 or (len(rest) if len(rest) > 128 else 0)
        if end:
            block, rest = rest[:end], rest[end:]
            yield block
    if rest:
        yield rest


def _rows(block: bytes, index: int, n: int):
    """(lines, ids, values) of a block of sample-file lines: their count, and
    the ids and values of the rows of ``index`` with an id below ``n``, each
    value the double nearest its text (:func:`_quotients` where proven, else
    ``float``); None when a line is outside the grammar, every ``repr`` of a
    finite nonzero double after an id and an index of 1 to 16 digits:

        \\d{1,16},-?\\d{1,16},-?(\\d{1,16}\\.\\d{1,20}|\\d(\\.\\d{1,16})?e[+-]\\d{2,3})\\n
    """
    data = _PAD + block
    buf = np.frombuffer(data, np.uint8)
    if buf[-1] != 10:
        return None
    # every byte but a digit: the separators below '0', and any 'e' above '9'
    split = buf < 48
    if buf.max() > 57:
        split |= buf > 57
    seps = np.flatnonzero(split)
    marks = buf[seps]
    # A sign is a '-' right after a comma, or either sign right after an 'e'.
    signs = np.flatnonzero((marks == 43) | (marks == 45))
    if len(signs):
        before = marks[signs - 1]
        if not ((seps[signs - 1] == seps[signs] - 1)
                & ((before == 101) | (before == 44) & (marks[signs] == 45))).all():
            return None
        seps, marks = np.delete(seps, signs), np.delete(marks, signs)
    # An 'e' after a '.' goes, any other stands for the '.': then every line
    # reads ", , . \n", and an exponent line's digits stop at its 'e'.
    exps = np.flatnonzero(marks == 101)
    stops, dotted = seps[exps], marks[exps - 1] == 46
    if len(exps):
        marks[exps[~dotted]] = 46
        seps, marks = np.delete(seps, exps[dotted]), np.delete(marks, exps[dotted])
    if len(marks) % 4 or not (marks.reshape(-1, 4) == _LINE).all():
        return None
    comma1, comma2, point, newline = seps.reshape(-1, 4).T
    index_sign, value_sign = buf[comma1 + 1] == 45, buf[comma2 + 1] == 45
    stop, lines = newline.copy(), np.searchsorted(newline, stops)
    stop[lines] = stops
    widths = np.stack((comma1 - np.concatenate(([len(_PAD)], newline[:-1] + 1)),
                       comma2 - comma1 - 1 - index_sign, point - comma2 - 1 - value_sign,
                       stop - point - 1))
    ok = (widths >= 1) & (widths <= _WIDEST)
    # an exponent line: one whole digit, no '.' or 1 to 16 fraction digits,
    # then a signed exponent of 2 or 3 digits; float reads its value
    fraction, sign, digits = widths[3, lines], buf[stops + 1], newline[lines] - stops - 2
    ok[2, lines] = widths[2, lines] == 1
    ok[3, lines] = (((fraction == -1) | (fraction >= 1) & (fraction <= 16))
                    & ((sign == 43) | (sign == 45)) & (digits >= 2) & (digits <= 3))
    widths[3, lines] = 0
    if not ok.all():
        return None
    # the word starting at every byte, unaligned
    words = np.ndarray(len(data) - 7, "<u8", data, strides=(1,))
    indices = _integers(words, comma2, widths[1])
    rows = np.flatnonzero(np.where(index_sign, -indices, indices) == index)
    comma1, comma2, point, stop, newline = (a[rows] for a in (comma1, comma2, point, stop, newline))
    id_width, whole_width, digits = widths[0, rows], widths[2, rows], widths[3, rows]
    # plain values of at most 8 whole and 16 fraction digits, 18 in all, fit _quotients
    fast = (whole_width <= 8) & (digits >= 1) & (digits <= 16) & (whole_width + digits <= 18)
    ids = _integers(words, comma1, id_width)
    tail = np.minimum(digits, 8)
    # one _swar call for the value fields: its cost is mostly per call on short blocks
    whole, high, low = _swar(words, np.concatenate((point - 8, stop - 16, stop - 8)),
                             np.concatenate((whole_width, digits - tail, tail))).reshape(3, -1)
    values, proven = _quotients(np.where(fast, whole * 10**digits + high * 10**8 + low, 0), digits)
    np.negative(values, out=values, where=value_sign[rows])
    for r in np.flatnonzero(~(fast & proven)).tolist():
        values[r] = float(data[comma2[r] + 1:newline[r]])
    keep = ids < n
    return widths.shape[1], ids[keep], values[keep]


def _values_from_sample_file(path: str, index: int) -> np.ndarray:
    """Reconstruct a coordinate's replicate values from a simulate CSV and its
    sidecar, parsed a block of ``ROW_SLICE * 16`` bytes at a time.

    The sidecar's ``n`` (a nonnegative integer, at most
    :data:`~matails.ma_process.MAX_DRAWS`) sizes the vector, and an ``index``
    outside its ``window`` (``[lo, hi]``) is refused, both before the body is
    read.  Absent cells read 0.0, ids from ``n`` on are ignored and a
    repeated ``(id, index)`` keeps its last row.  The first line outside
    the grammar of :func:`_rows` is refused by its file line number.
    """
    sidecar = f"{path}.meta.json"
    with open(path, "rb") as fh:
        try:
            with open(sidecar, "r", encoding="utf-8") as meta_fh:
                meta = json.load(meta_fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{sidecar}: unreadable sidecar ({exc})") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"{sidecar}: not a JSON object ({type(meta).__name__})")
        n, window = meta.get("n"), meta.get("window")
        if type(n) is not int or n < 0:
            raise ConfigError(f"{sidecar}: n must be a nonnegative integer, got {n!r}")
        if n > MAX_DRAWS:
            raise ConfigError(f"{sidecar}: {n} replicates exceed the {MAX_DRAWS} that simulate can write")
        if not (type(window) is list and len(window) == 2
                and all(type(w) is int for w in window) and window[0] <= window[1]):
            raise ConfigError(f"{sidecar}: window must be [lo, hi] integers with lo <= hi, "
                              f"got {window!r}")
        if not window[0] <= index <= window[1]:
            raise ConfigError(f"{sidecar}: index {index} is outside the sample's window "
                              f"{window[0]}:{window[1]}")
        if fh.read(len(_HEADER)) != _HEADER:
            raise ConfigError(f"{path} is not a simulate output file")
        values, line = np.zeros(n), 2
        for block in _sample_blocks(fh):
            rows = _rows(block, index, n)
            if rows is None:
                # bisect for the first line outside the grammar: lines[:good]
                # parse, lines[good:bad] hold a line that does not
                lines, good = block.splitlines(keepends=True), 0
                bad = len(lines)
                while bad - good > 1:
                    mid = (good + bad) // 2
                    if _rows(b"".join(lines[good:mid]), index, n) is None:
                        bad = mid
                    else:
                        good = mid
                raise ConfigError(f"{path}, line {line + good}: not a row as simulate writes it: "
                                  f"{lines[good][:80]!r}")
            count, ids, vals = rows
            values[ids] = vals
            line += count
    return values
