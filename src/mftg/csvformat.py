"""CSV rows from blocks of NumPy columns, byte for byte as ``%d``, ``%.17g``
and ``%s`` write them.

A block is a list with one entry per CSV column: a 1-D array (integer,
float or text) holding a value per row, or None for a column left empty.
``csv_rows`` turns it into the bytes of its rows, newline-terminated.

Blocks with fewer than ``VECTOR_MIN_ROWS`` rows are formatted one value at
a time.  Larger blocks are built in NumPy as one ``(rows, words)`` array of
8-byte words (``<u8``) over a bytearray: each field is a run of words, NUL
bytes pad the fields, and ``bytearray.translate`` drops the NULs from the
whole block at the end.  A float field is the words

    [separator, sign, "0.000" prefix, first digit, dot]
    [digits 2 to 9] [digits 10 to 17]       (ASCII, four per table lookup)
    [exponent, or the digit a dot moves out]    (in a column that needs it)

A field whose last four digits are zero, or whose dot falls among digits 2
to 17, is rebuilt: its digits past the last non-zero one (and past the
integer part) are masked off, and those after the dot move one byte up.
The float columns of a block are formatted together, whole columns up to
``FLOAT_GROUP`` values per pass.  Integers from 0 to 9999 are a word from a
table; other integers are built four digits per word.

The 17 significant digits are exact: ``|x| * 10**(16 - e)`` is computed as a
double-double from a table of powers of ten held as exact (hi, lo) pairs,
the exponent ``e`` is chosen from the unrounded product, and the digits are
rounded half to even at 17 places as ``%.17g`` rounds them.  A value below
1e-279, subnormals included, is first multiplied by 2**600, which is exact,
and read with rows of ``10**(16 - e) * 2**-600``.  Values the vector path
cannot vouch for (non-finite, above 1e290, or within 1e-9 of a rounding
tie) go through ``'%.17g' % v``.  The float values that short rows blank
are never formatted: a plain number stands in for them.
"""

from __future__ import annotations

import functools

import numpy as np

# Blocks with fewer rows are formatted one value at a time: below this size
# the fixed cost of the NumPy path (about 60 array operations per group of
# float columns) exceeds what it saves.  Measured break-even: 40 to 105
# rows, the more float columns the fewer.
VECTOR_MIN_ROWS = 80
FLOAT_GROUP = 3 * 4096  # float values formatted in one pass, in whole columns

_U8 = np.uint64
_SPLIT = 134217729.0          # 2**27 + 1: Veltkamp's splitter for doubles
_K_MIN, _K_MAX = -280, 300    # exponents of the power-of-ten table
_LOW, _HIGH = 1e-279, 1e290   # |x| range the vector path formats unscaled
# |x| below _LOW is prescaled by 2**600, exactly, and read with rows of
# 10**k * 2**-600 after the table's: e = 16 - k from -324 to -279 (a value
# just below _LOW may start at -279), _TINY_SHIFT rows past those of e.
_PRESCALE, _TINY_K = 2.0 ** 600, range(295, 341)
_TINY_SHIFT = _K_MAX + 1 - _TINY_K.start
_X_MIN, _X_MAX = -324, 300    # decimal exponents of the per-exponent tables
_TIE = 1e-9                   # fractions this close to .5 go to the scalar path
_E16, _E17 = 10 ** 16, 10 ** 17
_BLANKED = 0.1                # stands in for the values short rows blank


def _word(text: bytes, at: int = 0) -> int:
    """An 8-byte little-endian word holding `text` from byte `at`."""
    return int.from_bytes(bytes(at) + text + bytes(8 - at - len(text)), "little")


@functools.cache
def _tables():
    """Lookup tables of the vector path, built on first use (a few ms)."""
    t = {}
    groups = np.arange(10000)
    digits = [(groups // 10 ** (3 - i)) % 10 for i in range(4)]
    # Floats: four ASCII digits, most significant first, in the low half of
    # a word (t4_high) or its high half (t4_low, whose entries from 10000 on
    # drop trailing zeros).  last[g]: the place (1-4) of the last non-zero
    # digit of g; last_at: the place of each group's first digit among
    # digits 2-17, for the groups in the order high[0], high[1], low[0],
    # low[1] of _float_words.
    t["t4_high"] = np.zeros(10000, _U8)
    t["last"] = np.zeros(10000, np.int8)
    for i, d in enumerate(digits):
        t["t4_high"] |= (d + 48).astype(_U8) << _U8(8 * i)
        t["last"][d != 0] = i + 1
    trim = t["t4_high"] & (_U8(1) << (8 * t["last"]).astype(_U8)) - _U8(1)
    t["t4_low"] = np.concatenate([t["t4_high"], trim]) << _U8(32)
    t["last_at"] = np.array([[0], [8], [4], [12]])
    # Integers 0 to 9999: the digits from byte 1.
    length = 1 + (groups >= 10) + (groups >= 100) + (groups >= 1000)
    t["int4"] = t["t4_high"] >> (8 * (4 - length)).astype(_U8) << _U8(8)

    # Per decimal exponent X, at index X modulo the table's length (every
    # lookup wraps): the head word for each first digit f (at 10 X + f), the
    # exponent word, the fewest digits after the first that are written (the
    # rest of the integer part), the digit after the first that a dot goes
    # before (16: no dot), and the mask that drops a dot from the head.
    xs = [*range(_X_MAX + 1), *range(_X_MIN, 0)]
    exponent = [not -4 <= x <= 16 for x in xs]
    # A head is the prefix, the first digit f at byte `first`, and a dot
    # after it for X = 0 or an exponent (none for a zero, whose f is 0).
    prefix = np.array([_word(b"0." + b"0" * (-x - 1), 2) if -4 <= x < 0 else 0 for x in xs], _U8)
    first = np.array([3 - x if -4 <= x < 0 else 2 for x in xs], _U8)
    dot = np.array([_word(b".", 3) if x == 0 or exp else 0 for x, exp in zip(xs, exponent)], _U8)
    f = np.arange(10, dtype=_U8)
    t["head"] = (prefix[:, None] | (f + _U8(48)) << _U8(8) * first[:, None]
                 | dot[:, None] * (f > 0) | _U8(ord(","))).ravel()
    t["suffix"] = np.array([_word(b"e%+03d" % x) if exp else 0
                            for x, exp in zip(xs, exponent)], _U8)
    t["min_rest"] = np.array([x if 0 <= x <= 16 else 0 for x in xs], np.intp)
    t["dot_at"] = np.array([x if 1 <= x <= 15 else 16 for x in xs], np.intp)
    t["head_mask"] = ~dot
    # Of digits 2-17 as two words: keep[n] keeps the first n, dot[n] is a
    # dot in the place of digit n + 2 (none for n = 16).
    t["keep"] = np.array([[2 ** (8 * min(n, 8)) - 1 for n in range(17)],
                          [2 ** (8 * max(n - 8, 0)) - 1 for n in range(17)]], _U8)
    t["dot"] = np.array([[_word(b".", n) if n < 8 else 0 for n in range(17)],
                         [_word(b".", n - 8) if 8 <= n < 16 else 0 for n in range(17)]], _U8)

    # 10**k = hi + lo to about 2**-106, with hi split in two 26-bit halves
    # for Dekker's product, then the rows of 10**k * 2**-600.  Python's int
    # division rounds correctly.
    hi, lo = [], []
    ratios = [(10 ** k, 1) if k >= 0 else (1, 10 ** -k) for k in range(_K_MIN, _K_MAX + 1)]
    for num, den in ratios + [(10 ** k, int(_PRESCALE)) for k in _TINY_K]:
        hi.append(num / den)
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    t["pow10"] = np.stack([hi, hh, hi - hh, lo], axis=1)

    t["pow10u"] = np.array([10 ** k for k in range(1, 20)], _U8)
    # Every caller shares these arrays.
    for table in t.values():
        table.setflags(write=False)
    return t


def _scaled(t, a, e):
    """Floor and fraction of a * 10**(16 - e) for positive normal a."""
    hi, hh, hl, lo = t["pow10"].take(np.subtract(16 - _K_MIN, e), axis=0).T
    p = a * hi
    # Dekker's product: a = ah + al by Veltkamp's split, ah = c - (c - a).
    ah = a * _SPLIT
    part = ah - a
    ah -= part
    al = a - ah
    y = ah * hh
    y -= p
    for u, v in ((ah, hl), (al, hh), (al, hl), (a, lo)):
        y += np.multiply(u, v, out=part)
    whole = np.floor(y, out=part)
    y -= whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    return d, y


def _float_digits(t, x):
    """17 rounded digits D, decimal exponent X, a scalar-path mask and a
    zero mask.

    D is in [1e16, 1e17) (0 for a zero) and |x| = D * 10**(X - 16) to 17
    places.  Where the scalar-path mask is set, D and X are meaningless.
    """
    a = np.abs(x)
    zero = a == 0
    scalar = ~((a > 0) & (a <= _HIGH))       # NaN compares false
    a[scalar] = 1.0
    scalar ^= zero                           # a zero is written as 1, then D = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    # Until e is final, a value below _LOW holds a * 2**600 and e - _TINY_SHIFT,
    # which _scaled reads as the row of 10**(16 - e) * 2**-600.
    tiny = np.flatnonzero(a < _LOW) if a.min() < _LOW else None
    if tiny is not None:
        a[tiny] *= _PRESCALE
        e[tiny] -= _TINY_SHIFT
    whole, frac = _scaled(t, a, e)
    # log10 may be one off near powers of ten: step e until the unrounded
    # product lies in [1e16, 1e17).  A value that keeps flipping sits within
    # rounding error of a power of ten and goes to the scalar path.
    todo = np.flatnonzero((whole < _E16) | (whole >= _E17))
    for _ in range(3):
        if not todo.size:
            break
        e[todo] += np.where(whole[todo] >= _E17, 1, -1)
        whole[todo], frac[todo] = _scaled(t, a[todo], e[todo])
        todo = todo[(whole[todo] < _E16) | (whole[todo] >= _E17)]
    scalar[todo] = True
    if tiny is not None:
        e[tiny] += _TINY_SHIFT
    scalar |= np.abs(frac - 0.5) < _TIE
    d = whole
    d += frac > 0.5
    carry = np.flatnonzero(d == _E17)
    d[carry] = _E16
    e[carry] += 1
    d[zero] = 0
    return d, e, scalar, zero


def _float_words(t, x):
    """The head, digit and last words of each value of `x` as %.17g, with a
    comma for separator; its decimal exponent; and the scalar-path mask."""
    d, e, scalar, zero = _float_digits(t, x)
    first = d // _E16
    d -= first * _E16
    # Digits 2-9 and 10-17, then in groups of four: high holds digits 2-5
    # and 10-13, low digits 6-9 and 14-17.
    low = np.empty((2, len(d)), np.int64)
    np.floor_divide(d, 10 ** 8, out=low[0])
    np.subtract(d, low[0] * 10 ** 8, out=low[1])
    high = low // 10000
    low -= high * 10000
    low[1] += 10000             # the table half that drops trailing zeros
    body = t["t4_high"].take(high)
    body |= t["t4_low"].take(low)
    if zero.any():              # the head alone writes "0"
        body[:, zero] = 0
        low[1, zero] = 0
    first += e * 10
    head = t["head"].take(first, mode="wrap")
    head |= np.signbit(x) * _U8(ord("-") << 8)
    last = t["suffix"].take(e, mode="wrap")
    # Rebuild the fields whose last four digits are zero, or whose dot falls
    # among digits 2-17: keep the digits up to the last non-zero one or the
    # end of the integer part, and move the digits after the dot one byte
    # up, the last of them into the last word.
    redo = np.flatnonzero((low[1] == 10000) | ((e >= 1) & (e <= 16)))
    if redo.size:
        x_e = e[redo]
        g = np.concatenate([high.take(redo, axis=1), low.take(redo, axis=1)])
        g[3] -= 10000
        cut = np.where(g != 0, t["last"].take(g) + t["last_at"], 0).max(axis=0)
        np.maximum(cut, t["min_rest"].take(x_e, mode="wrap"), out=cut)
        w = t["t4_high"].take(g[:2]) | t["t4_low"].take(g[2:])
        w &= t["keep"].take(cut, axis=1)
        at = t["dot_at"].take(x_e, mode="wrap")
        moved = w & ~t["keep"].take(at, axis=1)
        w ^= moved
        w |= moved << _U8(8)
        w[1] |= moved[0] >> _U8(56)
        w |= t["dot"].take(at, axis=1) * (cut > at)
        body[0, redo], body[1, redo] = w
        last[redo] |= moved[1] >> _U8(56)
        head[redo] &= np.where(cut > 0, ~_U8(0), t["head_mask"].take(x_e, mode="wrap"))
    return head, body, last, e, scalar


def _int_words(t, v, sep):
    """Word columns of integers `v` formatted as %d: the separator and any
    minus sign in the first word, then four digits a word from byte 4."""
    mag = v.astype(_U8)
    neg = v < 0
    mag[neg] = _U8(0) - mag[neg]
    ndigits = np.searchsorted(t["pow10u"], mag, side="right") + 1
    width = int(ndigits.max() + 3) // 4
    words = []
    for w in range(width):
        group = mag // _U8(10 ** (4 * (width - 1 - w))) if w < width - 1 else mag
        if w:
            group = group % _U8(10000)
        # Drop the leading zeros: the first `lead` digits of this group.
        lead = 4 * (width - w) - ndigits
        mask = ~_U8(0) << (32 + 8 * np.clip(lead, 0, 4)).astype(_U8)
        mask[lead >= 4] = 0
        words.append(t["t4_low"][group.astype(np.intp)] & mask)
    words[0] |= _U8(sep) | neg * _U8(ord("-") << 8)
    return words


def _text(column) -> list[str]:
    values = column.tolist()
    if any("\0" in s for s in values):
        raise ValueError("CSV text fields must not contain NUL")
    return values


def _text_words(column, sep):
    """Word columns of text fields, written as they are."""
    encoded = [s.encode("utf-8") for s in _text(column)]
    width = max(1, -(-max(map(len, encoded)) // 8))
    body = np.array(encoded, dtype=f"S{8 * width}").view("<u8").reshape(len(encoded), width)
    return [np.full(len(encoded), _U8(sep)), *body.T]


def _percent_g(values) -> list[str]:
    """``'%.17g' % v`` of each value: the scalar path, and the values the
    vector path cannot vouch for."""
    return list(map("%.17g".__mod__, values.tolist()))


def _scalar_text(column) -> list[str]:
    kind = column.dtype.kind
    if kind == "f":
        return _percent_g(column)
    if kind in "iu":
        return list(map("%d".__mod__, column.tolist()))
    if kind == "U":
        return _text(column)
    raise TypeError(f"no CSV format for dtype {column.dtype}")


def _scalar_rows(columns, rows: int, short, first: int) -> bytes:
    period, keep = short or (rows, len(columns))
    fields = []
    for i, c in enumerate(columns):
        if i >= keep and c is not None and c.dtype.kind == "f":
            c = c.copy()
            c[first::period] = _BLANKED
        fields.append([""] * rows if c is None else _scalar_text(c))
    if short:
        blank = [""] * len(range(first, rows, period))
        for f in fields[keep:]:
            f[first::period] = blank
    return ("\n".join(map(",".join, zip(*fields))) + "\n").encode("utf-8")


def _vector_rows(columns, rows: int, short, first: int) -> bytearray:
    t = _tables()
    period, keep = short or (rows, len(columns))
    # The word columns of each field.  A field starts with its separator;
    # every row but the first starts with the newline ending the row before.
    fields, fallback = [None] * len(columns), []
    floats = [i for i, c in enumerate(columns) if c is not None and c.dtype.kind == "f"]
    per = max(1, FLOAT_GROUP // rows)
    for start in range(0, len(floats), per):
        group = floats[start:start + per]
        # %.17g formats a double; the values short rows blank are not
        # formatted, a plain one stands in.
        x = np.concatenate([columns[i] for i in group], dtype=np.float64).reshape(-1, rows)
        x[[j for j, i in enumerate(group) if i >= keep], first::period] = _BLANKED
        head, body, last, e, scalar = _float_words(t, x.ravel())
        for j, i in enumerate(group):
            seg = slice(j * rows, (j + 1) * rows)
            fields[i] = [head[seg], body[0, seg], body[1, seg]]
            # The last word, if one of the column's values may use it.
            if e[seg].min() < -4 or e[seg].max() > 0 or scalar[seg].any():
                fields[i].append(last[seg])
            idx = np.flatnonzero(scalar[seg])
            if idx.size:
                fallback.append((i, idx, x[j, idx]))
    for i, c in enumerate(columns):
        sep = ord(",") if i else ord("\n")
        if c is None:
            fields[i] = [sep]
        elif c.dtype.kind == "f":
            if sep != ord(","):         # the head words hold a comma
                fields[i][0] ^= _U8(ord(",") ^ sep)
        elif c.dtype.kind in "iu" and c.min() >= 0 and c.max() < 10000:
            fields[i] = [t["int4"].take(c) | _U8(sep)]
        elif c.dtype.kind in "iu":
            fields[i] = _int_words(t, c, sep)
        elif c.dtype.kind == "U":
            fields[i] = _text_words(c, sep)
        else:
            raise TypeError(f"no CSV format for dtype {c.dtype}")
    starts = np.cumsum([0] + [len(f) for f in fields])
    # One more word holds the newline that ends the block.
    size = 8 * (rows * starts[-1] + 1)
    buffer = bytearray(size)
    words = np.frombuffer(buffer, _U8)
    words[-1] = ord("\n")
    blk = words[:-1].reshape(rows, starts[-1])
    for at, field in zip(starts, fields):
        for w, word in enumerate(field):
            blk[:, at + w] = word
    for i, idx, values in fallback:
        text = np.array([("," if i else "\n") + v for v in _percent_g(values)], "S32")
        blk[idx, starts[i]:starts[i] + 4] = text.view("<u8").reshape(-1, 4)
    if short:
        blank = blk[first::period]
        blank[:, starts[keep]:] = 0
        blank[:, starts[keep:-1]] = ord(",")
    blk[0, 0] &= ~_U8(0xFF)
    return buffer.translate(None, b"\0")


def csv_rows(columns, short=None, offset: int = 0) -> bytes | bytearray:
    """The CSV rows of one block of columns, each ending in a newline.

    Integer columns are written as %d, float columns as %.17g and text
    columns as they are (text must not contain NUL).  With
    ``short=(period, keep)``, keep >= 1, every row whose index in the block
    plus `offset` (the block's first row in its file) is period - 1 modulo
    period keeps its first `keep` fields and leaves the rest empty; its float
    values there are never formatted.
    """
    present = [c for c in columns if c is not None]
    if not present:
        raise ValueError("a CSV block needs a column with values")
    rows = len(present[0])
    if any(len(c) != rows for c in present):
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in present]}")
    if not rows:
        return b""
    if short and not 1 <= short[1] <= len(columns):
        raise ValueError(f"short rows must keep 1..{len(columns)} fields, got {short[1]}")
    # Index in the block of the first short row.
    first = (short[0] - 1 - offset) % short[0] if short else 0
    if rows < VECTOR_MIN_ROWS:
        return _scalar_rows(columns, rows, short, first)
    return _vector_rows(columns, rows, short, first)
