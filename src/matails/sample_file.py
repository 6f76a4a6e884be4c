"""The sample file: what ``simulate`` writes and ``hill --sample`` reads.

A sample file is CSV: the header ``replicate_id,index,value``, then the
bytes of ``"%d,%d,%r\\n"`` for each nonzero cell of the replicate windows,
replicate by replicate; its ``.meta.json`` sidecar gives, among the run's
settings, ``n`` and ``window``.  The writer renders about ``ROW_SLICE``
cells at a time in numpy, in vectors it reuses from slice to slice, from
the shortest round-trip digits where it can certify them, else with
``repr``.  The reader holds
each line to one grammar (see :func:`_rows`) and parses blocks of
``ROW_SLICE * 16`` bytes in numpy, proving each double where it can, else
reading it with ``float``; it names the first line outside the grammar.
"""

from __future__ import annotations

import json

import numpy as np

from .budgets import MAX_DRAWS
from .errors import ConfigError

# The largest |index| a sample-file line carries, in its 16 digits: ``simulate``
# refuses a window past it before it opens the output.
MAX_INDEX = 10**16 - 1

# The sample-file block: ``simulate`` renders ``ROW_SLICE // width`` replicate
# rows of a simulation tile at a time in numpy, and ``hill
# --sample`` parses ``ROW_SLICE * 16`` bytes at a time (about half as many
# demo lines), so neither side holds whole-file arrays.
ROW_SLICE = 1 << 14

# The renderer's workspace holds half a slice, which it renders in two parts:
# a workspace of ROW_SLICE cells peaked about 1.2 MB higher in a simulate child.
_PART = ROW_SLICE // 2

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


# The renderer's digit words: the four digits of 0..9999 in the first half
# of a little-endian uint64 word and in the second, and, for a fraction of
# f = 0..22 digits, the bytes of each of its three words, the last word
# first, that show its digits (f, at least one).
_QUADS = sum((np.arange(10**4, dtype=np.uint64) // 10**p % 10 + 48) << 8 * (3 - p) for p in range(4))
_QUADS_HIGH = _QUADS << 32
_SHOWN = np.array([[_KEEP[min(max(max(f, 1) - 8 * k, 0), 8)] for f in range(23)] for k in range(3)])
_TENS = 10 ** np.minimum(np.arange(23, dtype=np.uint64), 18)  # 10^f, capped at 10^18


class _Scratch:
    """Buffers a command reuses from slice to slice, each allocated again
    only when a slice needs more: ``scratch(name, n, dtype)`` is a vector of
    ``n`` entries, and ``scratch.vectors(n, count)`` the first ``count`` of
    one shared set of float vectors."""

    def __init__(self):
        self._buffers, self._views = {}, {}

    def __call__(self, name, n: int, dtype=np.float64) -> np.ndarray:
        view = self._views.get((name, n, dtype))
        if view is None:
            size = n * np.dtype(dtype).itemsize
            buffer = self._buffers.get(name)
            if buffer is None or len(buffer) < size:
                buffer = self._buffers[name] = np.empty(size, np.uint8)
                self._views.clear()
            view = self._views[name, n, dtype] = buffer[:size].view(dtype)
        return view

    def vectors(self, n: int, count: int) -> list[np.ndarray]:
        return [self(i, n) for i in range(count)]


def _sample_slices(lo: int, tiles, scratch: _Scratch | None = None):
    """(replicate ids, indices, values) of the nonzero cells of each ``(start,
    tile)`` of ``tiles``, a ``(width, rows)`` tile of the replicates from
    ``start`` on a window from ``lo``, ``ROW_SLICE // width`` rows at a time.
    With ``scratch`` the three are its vectors, valid until the next slice."""
    for start, tile in tiles:
        width = tile.shape[0]
        rows = max(1, ROW_SLICE // width)
        for first in range(0, tile.shape[1], rows):
            s = _Scratch() if scratch is None else scratch
            block = tile[:, first:first + rows].T  # replicate by replicate
            n = block.size
            values, ids, indices = (s(name, n, dtype).reshape(block.shape) for name, dtype in (
                ("cut_values", np.float64), ("cut_ids", np.int64), ("cut_indices", np.int64)))
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


def _shortest_digits(values, scratch: _Scratch | None = None):
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
    of ``whole``, from its last three digits and ``frac``.  ``digits`` is
    the first of ``scratch.vectors``.
    """
    s = _Scratch() if scratch is None else scratch
    n = len(values)
    a, scale, hi, a_hi, s_hi, lo, half, t15, spare = s.vectors(n, 9)
    fast, flag, k = s("fast", n, bool), s("flag", n, bool), s("k", n, np.int8)
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
    up15, up16, up17 = s("up15", n, bool), s("up16", n, bool), s("up17", n, bool)
    np.greater(t15, 50.0, out=up15)
    np.greater(t16, 5.0, out=up16)
    np.greater(frac, 0.5, out=up17)
    # the distances to the nearest 15- and 16-digit integers, less half
    dist = spare
    gap15 = np.subtract(np.minimum(t15, np.subtract(100.0, t15, out=dist), out=t15), half, out=t15)
    np.minimum(t16, np.subtract(10.0, t16, out=dist), out=dist)
    gap16 = np.subtract(dist, half, out=t16)
    take15, take16 = s("take15", n, bool), s("take16", n, bool)
    certified = s("certified", n, bool)
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


def _sample_text(ids, indices, values, scratch: _Scratch | None = None) -> bytes:
    """One slice's CSV lines, the bytes of ``"%d,%d,%r\\n"`` per cell.

    Each line is a row of a uint8 matrix whose fields are as wide as the
    slice needs.  Fields are written from the last to the first, their
    digits right-aligned in unaligned 8-byte words whose NUL bytes in
    front the fields before overwrite, or, before the first field, stay;
    the NULs left are dropped.  A value is written from its certified
    digits (:func:`_shortest_digits`) as ``<whole>.<fraction>``, else with
    repr.  Every vector is one of ``scratch``, which holds ``_PART`` cells:
    a longer slice is rendered a part at a time.
    """
    n = len(ids)
    if n > _PART:
        return b"".join(_sample_text(ids[i:i + _PART], indices[i:i + _PART], values[i:i + _PART], scratch)
                        for i in range(0, n, _PART))
    if not n:
        return b""
    s = _Scratch() if scratch is None else scratch
    digits, fraction, certified = _shortest_digits(values, s)
    whole, part, magnitudes, *work = (v.view(np.uint64) for v in s.vectors(n, 9)[1:])
    # the whole part is floor(|x|): no integer lies between x and its digits
    absolute = np.abs(values, out=part.view(np.float64))
    np.floor(np.minimum(absolute, 1e15, out=absolute), out=absolute)
    np.copyto(whole, absolute, casting="unsafe")
    np.take(_TENS, fraction, out=part)
    part *= whole
    np.subtract(digits, part, out=part)  # the fraction's digits
    for v in (whole, part, fraction):  # repr writes the rest: 0 keeps them in every table
        v *= certified
    slow = np.flatnonzero(np.logical_not(certified, out=s("flag", n, bool)))
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
    text = s("text", n * (newline + 1), np.uint8).reshape(n, newline + 1)
    text[:, newline] = 10
    if pad:
        text[:, fraction_end:newline] = 0
    _put_number(text, fraction_end, part, fraction_width, work, fraction)
    text[:, whole_end] = 46
    _put_number(text, whole_end, whole, whole_width, work)
    flag = s("flag", n, bool)
    if value_sign:
        np.multiply(np.less(values, 0.0, out=flag).view(np.uint8), 45,
                    out=text[:, whole_end - whole_width - 1])
    text[:, index_end] = 44
    _put_number(text, index_end, magnitudes, index_width, work)
    if index_sign:
        np.multiply(np.less(indices, 0, out=flag).view(np.uint8), 45,
                    out=text[:, index_end - index_width - 1])
    text[:, id_end] = 44
    _put_number(text, id_end, ids.view(np.uint64), id_width, work)
    if len(slow):
        text[slow, index_end + 1:newline] = 0
        text[slow, index_end + 1:index_end + 1 + reprs.itemsize] = reprs.view(np.uint8).reshape(
            -1, reprs.itemsize)
    return text.tobytes().translate(None, b"\0")


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
    hi, lo = _product(values.copy(), scale.copy(), *np.empty((4, len(values))))
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
    :data:`~matails.budgets.MAX_DRAWS`) sizes the vector, and an ``index``
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
