"""The sample file: what ``simulate`` writes and ``hill --sample`` reads.

``simulate --out P`` writes three files.  ``P`` is CSV, an export that no
command reads back: the header ``replicate_id,index,value``, then the
bytes of ``"%d,%d,%r\\n"`` for each nonzero cell of the replicate windows,
replicate by replicate.  Its ``P.meta.json`` sidecar gives, among the
run's settings, ``n`` and ``window``.  ``P.npy``, the companion, holds the
same ``(n, width)`` matrix exactly, in column-major order: the bytes of
``np.save`` of the Fortran-ordered matrix.  ``hill --sample P`` checks
the sidecar and the companion's header, then reads the one column it
needs.

The CSV writer renders about ``ROW_SLICE`` cells at a time in numpy, in
vectors of its own for at most ``_PART`` cells at once, from the shortest
round-trip digits where it can certify them, else with ``repr``.  The
companion is written from the same tiles, each tile's columns in place,
so no command holds the matrix.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
from numpy.lib import format as npy

from .budgets import MAX_DRAWS
from .errors import ConfigError

# The largest |index| a sample-file line carries, in its 16 digits: ``simulate``
# refuses a window past it before it opens the output.
MAX_INDEX = 10**16 - 1

# The sample-file block: ``simulate`` renders ``ROW_SLICE // width`` replicate
# rows of a simulation tile at a time in numpy, so it holds no whole-file text.
ROW_SLICE = 1 << 14

# The renderer takes half a slice at a time: whole slices of 2^14 cells
# raised a simulate command's traced peak from 6.3 to 6.9-7.7 MB.
_PART = ROW_SLICE // 2

# Exact powers of ten (5^22 < 2^53) for the sample renderer, and how far from
# a rounding tie or interval edge a scaled value, computed to within 2^-53,
# must lie for its digits to count as certified.
_POW10 = 10.0 ** np.arange(23)
_MARGIN = 1e-9

# The masks keeping the last w = 0..8 bytes of a little-endian uint64 word.
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - w)) for w in range(9)], dtype=np.uint64)


# The renderer's digit words: the four digits of 0..9999 in the first half
# of a little-endian uint64 word and in the second, and, for a fraction of
# f = 0..22 digits, the bytes of each of its three words, the last word
# first, that show its digits (f, at least one).
_QUADS = sum((np.arange(10**4, dtype=np.uint64) // 10**p % 10 + 48) << 8 * (3 - p) for p in range(4))
_QUADS_HIGH = _QUADS << 32
_SHOWN = np.array([[_KEEP[min(max(max(f, 1) - 8 * k, 0), 8)] for f in range(23)] for k in range(3)])
_TENS = 10 ** np.minimum(np.arange(23, dtype=np.uint64), 18)  # 10^f, capped at 10^18


def _companion_header(n: int, width: int) -> bytes:
    """The header of an ``(n, width)`` companion: the bytes ``np.save``
    writes before the Fortran-ordered matrix, NumPy format 1.0 (one row or
    one column is C-contiguous too, and ``np.save`` marks it C order)."""
    header = io.BytesIO()
    npy.write_array_header_1_0(header, {"descr": "<f8", "fortran_order": min(n, width) > 1,
                                        "shape": (n, width)})
    return header.getvalue()


def _companion(fh, n: int, width: int):
    """Write the header of an ``(n, width)`` companion to ``fh``, a new
    binary file, and return ``store(start, tile)``: it writes each column
    ``w`` of a ``(width, rows)`` tile of the replicates from ``start`` in
    place, at byte ``header + 8 * (w * n + start)``."""
    header = _companion_header(n, width)
    fh.write(header)

    def store(start: int, tile: np.ndarray) -> None:
        for w, column in enumerate(tile):
            fh.seek(len(header) + 8 * (w * n + start))
            fh.write(np.ascontiguousarray(column, "<f8"))  # a row of a C-ordered tile: no copy

    return store


def _sample_slices(lo: int, tiles, store=None):
    """(replicate ids, indices, values) of the nonzero cells of each ``(start,
    tile)`` of ``tiles``, a ``(width, rows)`` tile of the replicates from
    ``start`` on a window from ``lo``, ``ROW_SLICE // width`` rows at a time.
    With ``store`` (:func:`_companion`) each tile is stored before it is cut."""
    for start, tile in tiles:
        if store is not None:
            store(start, tile)
        width = tile.shape[0]
        rows = max(1, ROW_SLICE // width)
        for first in range(0, tile.shape[1], rows):
            block = tile[:, first:first + rows].T  # replicate by replicate
            n = block.size
            values, ids, indices = (np.empty(block.shape, dtype)
                                    for dtype in (np.float64, np.int64, np.int64))
            row_ids = np.arange(start + first, start + first + len(block))
            if width <= len(block):  # numpy copies a short last axis slowly: column by column
                for w in range(width):
                    values[:, w], ids[:, w], indices[:, w] = block[:, w], row_ids, lo + w
            else:
                values[:], ids[:], indices[:] = block, row_ids[:, None], np.arange(lo, lo + width)
            cut = ids.ravel(), indices.ravel(), values.ravel()
            if np.count_nonzero(values) < n:  # a zero cell is not written
                keep = cut[2] != 0
                cut = tuple(a[keep] for a in cut)
            yield cut
        del tile, block  # freed before asking for the next tile, when a worker may start another


def _product(a, scale, hi, lo, a_hi, s_hi):
    """(hi, lo): ``a * scale == hi + lo`` exactly, ``hi`` the rounded product
    (Dekker's two-product, no FMA), written to the last four vectors; ``a``
    and ``scale`` are split by Veltkamp into halves of at most 26
    significant bits, and the vectors of their high halves and the two
    themselves are spent."""
    np.multiply(a, scale, out=hi)
    for x, x_hi in ((a, a_hi), (scale, s_hi)):
        np.multiply(x, 134217729.0, out=x_hi)  # 2^27 + 1
        x_hi -= np.subtract(x_hi, x, out=lo)
        x -= x_hi
    np.multiply(a_hi, s_hi, out=lo)
    lo -= hi
    a_hi *= scale
    lo += a_hi
    s_hi *= a
    lo += s_hi
    a *= scale
    lo += a
    return hi, lo


def _shortest_digits(values):
    """(digits, fraction, certified): ``|x| == digits / 10**fraction`` in
    repr's shortest digits where certified; elsewhere the two mean nothing.

    ``|x|`` in [1e-4, 1e15), no power of two (its rounding interval is
    asymmetric), is scaled by an exact power of ten to ``whole + frac``
    (Dekker's product), ``whole`` of 17 digits, and ``half`` is half an ulp
    of x at that scale.  The digits are those of the first of the 15-,
    16- and 17-digit integers nearest ``whole + frac`` that lies inside x's
    rounding interval, each shorter one outside it, and off a tie, all by
    over ``_MARGIN`` in its own units; a 15-digit one must not end in 0 (a
    shorter one might read back as x), and a 16- or 17-digit one cannot,
    as the shorter one would lie inside.  The distances are taken in units
    of ``whole``, from its last three digits and ``frac``.
    """
    n = len(values)
    a, scale, hi, a_hi, s_hi, lo, half, t15, spare = (np.empty(n) for _ in range(9))
    fast, flag, k = np.empty(n, bool), np.empty(n, bool), np.empty(n, np.int8)
    np.abs(values, out=a)
    np.less(a, 1e15, out=fast)
    fast &= np.greater_equal(a, 1e-4, out=flag)
    np.clip(a, 1e-4, 1e15, out=a)  # a stand-in outside the range
    # 2^(e - 1) for |x| in [2^(e - 1), 2^e): x's bits without the mantissa
    np.bitwise_and(a.view(np.uint64), 0x7FF0000000000000, out=half.view(np.uint64))
    fast &= np.not_equal(a, half, out=flag)
    np.floor(np.log10(a, out=spare), out=spare)
    np.subtract(16.0, spare, out=k, casting="unsafe")  # |x| * 10^k has 17 whole digits
    np.take(_POW10, k, out=scale)
    half *= scale
    half *= 2.0**-53  # exactly ldexp(scale, e - 54)
    hi, frac = _product(a, scale, hi, lo, a_hi, s_hi)
    whole, q16, rest, t16, q15 = (a.view(np.uint64), hi.view(np.uint64), a_hi.view(np.uint64),
                                  s_hi, scale.view(np.uint64))
    np.copyto(whole, hi, casting="unsafe")
    floor = np.floor(frac, out=spare)
    np.copyto(rest.view(np.int64), floor, casting="unsafe")
    whole += rest  # floor(frac) >= -8, added mod 2^64
    frac -= floor
    # a misjudged power of ten (log10 rounds) leaves this range, where every
    # count has room to round
    fast &= np.greater_equal(whole, 10**16, out=flag)
    fast &= np.less_equal(whole, 10**17 - 100, out=flag)
    np.floor_divide(whole, 10, out=q16)
    np.subtract(whole, np.multiply(q16, 10, out=rest), out=rest)
    np.add(rest, frac, out=t16)  # whole % 10 + frac
    np.floor_divide(q16, 10, out=q15)
    np.subtract(q16, np.multiply(q15, 10, out=rest), out=rest)
    rest *= 10
    np.add(rest, t16, out=t15)  # whole % 100 + frac
    d2 = np.floor_divide(q15, 10, out=rest)
    np.subtract(q15, np.multiply(d2, 10, out=d2), out=d2)  # the third digit from the right
    up15, up16, up17 = (np.empty(n, bool) for _ in range(3))
    np.greater(t15, 50.0, out=up15)
    np.greater(t16, 5.0, out=up16)
    np.greater(frac, 0.5, out=up17)
    # the distances to the nearest 15- and 16-digit integers, less half
    dist = spare
    gap15 = np.subtract(np.minimum(t15, np.subtract(100.0, t15, out=dist), out=t15), half, out=t15)
    np.minimum(t16, np.subtract(10.0, t16, out=dist), out=dist)
    gap16 = np.subtract(dist, half, out=t16)
    take15, take16, certified = (np.empty(n, bool) for _ in range(3))
    # 15 digits: inside (50 units from a tie, beyond any half), no last 0
    np.less(gap15, -100 * _MARGIN, out=take15)
    take15 &= fast
    d2 += up15
    d2 -= 1  # below 9 when the integer's last digit is 1 to 9
    take15 &= np.less(d2, 9, out=flag)
    fast &= np.greater(gap15, 100 * _MARGIN, out=flag)
    np.less(gap16, -10 * _MARGIN, out=take16)
    take16 &= fast
    take16 &= np.less(dist, 5.0 - 10 * _MARGIN, out=flag)
    fast &= np.greater(gap16, 10 * _MARGIN, out=flag)
    # 17 digits: the interval is over a unit wide, so only a tie fails
    np.subtract(frac, 0.5, out=dist)
    np.greater(np.abs(dist, out=dist), _MARGIN, out=certified)
    certified &= fast
    certified |= take15
    certified |= take16
    # the nearest integers, chosen by count, and the fraction's digits
    digits = np.add(whole, up17, out=whole)
    for q, up, take in ((q16, up16, take16), (q15, up15, take15)):
        q += up
        q -= digits
        q *= take
        digits += q
    k -= take16
    k -= take15
    k -= take15
    return digits, k, certified


def _put_number(text, end, x, width, work, shown=None):
    """Write each ``x`` (uint64, of at most ``width`` digits) right-aligned to
    end at byte ``end`` of its row of ``text``, in unaligned 8-byte words
    whose bytes before the digits are NUL: all its digits, or with
    ``shown`` (a fraction's digit counts) that many, zeros in front.
    ``work`` holds five uint64 vectors of x's length."""
    tmp, chunk, word, keep, higher = work
    for w in range(-(-width // 8) - 1, -1, -1):  # the most significant word first
        below = 8 * w + 8 < width  # a word before this one holds digits
        digits = np.floor_divide(x, _TENS[8 * w], out=chunk) if w else x
        if below:  # its 8 digits
            np.multiply(np.floor_divide(digits, 10**8, out=tmp), 10**8, out=tmp)
            digits = np.subtract(digits, tmp, out=chunk)
        if width - 8 * w > 4:
            high = np.floor_divide(digits, 10**4, out=tmp)
            low = np.subtract(digits, np.multiply(high, 10**4, out=keep), out=keep)
            _QUADS.take(high.view(np.int64), out=word)
            word |= _QUADS_HIGH.take(low.view(np.int64), out=tmp)
        else:
            _QUADS_HIGH.take(digits.view(np.int64), out=word)
        if shown is not None:
            word &= _SHOWN[w].take(shown, out=tmp)
        else:
            # from the first nonzero digit (a byte's low 4 bits) on: -(lowest set bit)
            np.negative(np.bitwise_and(np.bitwise_and(word, 0x0F0F0F0F0F0F0F0F, out=tmp),
                                       np.negative(tmp, out=keep), out=keep), out=keep)
            if below:
                keep |= higher
            if w:  # all ones once a word has a nonzero digit
                np.right_shift(keep.view(np.int64), 63, out=higher.view(np.int64))
            else:
                keep |= 0xFF << 56  # the units digit, 0 too
            word &= keep
        np.copyto(np.ndarray(len(x), "<u8", text, end - 8 * (w + 1), (text.shape[1],)), word)


def _sample_text(ids, indices, values) -> bytes:
    """One slice's CSV lines, the bytes of ``"%d,%d,%r\\n"`` per cell.

    Each line is a row of a uint8 matrix whose fields are as wide as the
    slice needs.  Fields are written from the last to the first, their
    digits right-aligned in unaligned 8-byte words whose NUL bytes in
    front the fields before overwrite, or, before the first field, stay;
    the NULs left are dropped.  A value is written from its certified
    digits (:func:`_shortest_digits`) as ``<whole>.<fraction>``, else with
    repr.  A slice of more than ``_PART`` cells is rendered a part at a
    time.
    """
    n = len(ids)
    if n > _PART:
        return b"".join(_sample_text(ids[i:i + _PART], indices[i:i + _PART], values[i:i + _PART])
                        for i in range(0, n, _PART))
    if not n:
        return b""
    digits, fraction, certified = _shortest_digits(values)
    whole, part, magnitudes, *work = (np.empty(n, np.uint64) for _ in range(8))
    # the whole part is floor(|x|): no integer lies between x and its digits
    absolute = np.abs(values, out=part.view(np.float64))
    np.floor(np.minimum(absolute, 1e15, out=absolute), out=absolute)
    np.copyto(whole, absolute, casting="unsafe")
    np.take(_TENS, fraction, out=part)
    part *= whole
    np.subtract(digits, part, out=part)  # the fraction's digits
    for v in (whole, part, fraction):  # repr writes the rest: 0 keeps them in every table
        v *= certified
    slow = np.flatnonzero(np.logical_not(certified))
    reprs = np.array([repr(v) for v in values[slow].tolist()], dtype="S")  # at most S24
    np.abs(indices, out=magnitudes.view(np.int64))
    id_width = len(str(int(ids.max())))
    index_width = len(str(int(magnitudes.max())))
    whole_width = len(str(int(whole.max())))
    fraction_width = max(int(fraction.max()), 1)
    index_sign, value_sign = int(indices.min() < 0), int(values.min() < 0)
    value_width = value_sign + whole_width + 1 + fraction_width
    pad = max(reprs.itemsize - value_width, 0) if len(slow) else 0
    # the ends of the id, the index, the whole part, the fraction and the
    # pad, each after its separator, and the bytes before the line that a
    # field's first word reaches into
    ends = np.cumsum([id_width, 1 + index_sign + index_width, 1 + value_sign + whole_width,
                      1 + fraction_width, pad])
    widths = id_width, index_width, whole_width, fraction_width
    front = max(0, *(-(-w // 8) * 8 - e for w, e in zip(widths, ends)))
    id_end, index_end, whole_end, fraction_end, newline = (ends + front).tolist()
    text = np.empty((n, newline + 1), np.uint8)
    text[:, newline] = 10
    if pad:
        text[:, fraction_end:newline] = 0
    _put_number(text, fraction_end, part, fraction_width, work, fraction)
    text[:, whole_end] = 46
    _put_number(text, whole_end, whole, whole_width, work)
    if value_sign:
        np.multiply(np.less(values, 0.0).view(np.uint8), 45,
                    out=text[:, whole_end - whole_width - 1])
    text[:, index_end] = 44
    _put_number(text, index_end, magnitudes, index_width, work)
    if index_sign:
        np.multiply(np.less(indices, 0).view(np.uint8), 45,
                    out=text[:, index_end - index_width - 1])
    text[:, id_end] = 44
    _put_number(text, id_end, ids.view(np.uint64), id_width, work)
    if len(slow):
        text[slow, index_end + 1:newline] = 0
        text[slow, index_end + 1:index_end + 1 + reprs.itemsize] = reprs.view(np.uint8).reshape(
            -1, reprs.itemsize)
    return text.tobytes().translate(None, b"\0")


def _values_from_sample_file(path: str, index: int) -> np.ndarray:
    """``X_index`` of each replicate of the ``simulate`` sample at ``path``,
    read from its sidecar and companion; the CSV itself is not read.

    The sidecar's ``n`` (a nonnegative integer, at most
    :data:`~matails.budgets.MAX_DRAWS`) and ``window`` (``[lo, hi]``) are
    checked, and an ``index`` outside the window refused, before the
    companion is opened.  The companion ``path.npy`` must start with the
    header ``simulate`` writes for them (:func:`_companion_header`), byte
    for byte, and hold exactly ``n * (hi - lo + 1)`` doubles after it; then
    only the column of ``index``, ``n`` doubles, is read.
    """
    sidecar, companion = f"{path}.meta.json", f"{path}.npy"
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
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
    lo, hi = window
    if not lo <= index <= hi:
        raise ConfigError(f"{sidecar}: index {index} is outside the sample's window {lo}:{hi}")
    width, column = hi - lo + 1, 8 * n
    header = _companion_header(n, width)
    try:
        with open(companion, "rb") as fh:
            found = fh.read(len(header))
            if found != header:
                raise ValueError(f"its header {found[:80]!r} is not the {header[10:].decode().rstrip()} "
                                 f"of the sidecar's n = {n} and window {lo}:{hi}")
            size, expected = os.fstat(fh.fileno()).st_size, len(header) + column * width
            if size != expected:
                raise ValueError(f"{size} bytes, not the {expected} of its header and {n} x {width} doubles")
            fh.seek(len(header) + column * (index - lo))
            values = np.empty(n, "<f8")
            if fh.readinto(values.data) != column:
                raise ValueError("shorter than its header says")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{companion}: unreadable companion ({exc}); "
                          f"re-run simulate to write the sample with it") from None
    return values
