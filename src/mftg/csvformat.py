"""CSV rows from blocks of NumPy columns, byte for byte as ``%d``, ``%.17g``
and ``%s`` write them.

A block is a list with one entry per CSV column: a 1-D array (integer,
float or text) holding a value per row, or None for a column left empty.
``csv_rows`` turns it into the bytes of its rows, newline-terminated.

Blocks with fewer than ``VECTOR_MIN_ROWS`` rows are formatted one value at
a time.  Larger blocks are built in NumPy: each field is a run of 8-byte
words (``<u8``), NUL bytes pad the fields, and ``bytes.translate`` drops the
NULs from the whole block at the end.  Float columns are formatted together,
``FLOAT_GROUP`` values per pass.  A float field is the words

    [separator, sign, "0.000" prefix, first digit]
    4 x [dot-or-NUL, digit, dot-or-NUL, digit, ...]   (digits 2 to 17)
    [exponent]                                        (only if one is needed)

The 17 significant digits are exact: ``|x| * 10**(16 - e)`` is computed as a
double-double from a table of powers of ten held as exact (hi, lo) pairs,
the exponent ``e`` is chosen from the unrounded product, and the digits are
rounded half to even at 17 places as ``%.17g`` rounds them.  Values the
vector path cannot vouch for (non-finite, subnormal or out of the table's
range, or within 1e-9 of a rounding tie) go through ``'%.17g' % v``.
"""

from __future__ import annotations

import functools

import numpy as np

# Blocks with fewer rows are formatted one value at a time: below this size
# the fixed cost of the NumPy path (about 60 array operations per float
# column) exceeds what it saves.  Measured break-even: 130 to 190 rows.
VECTOR_MIN_ROWS = 160
FLOAT_GROUP = 4096  # float values formatted in one pass over short columns

_U8 = np.uint64
_SPLIT = 134217729.0          # 2**27 + 1: Veltkamp's splitter for doubles
_K_MIN, _K_MAX = -280, 300    # exponents of the power-of-ten table
_LOW, _HIGH = 1e-279, 1e290   # |x| range the vector path formats
_X_OFF = 300                  # offset of the decimal-exponent tables
_TIE = 1e-9                   # fractions this close to .5 go to the scalar path
_E16, _E17 = 10 ** 16, 10 ** 17


def _word(text: bytes, at: int = 0) -> int:
    """An 8-byte little-endian word holding `text` from byte `at`."""
    return int.from_bytes(bytes(at) + text + bytes(8 - at - len(text)), "little")


@functools.cache
def _tables():
    """Lookup tables of the vector path, built on first use (a few ms)."""
    t = {}
    groups = np.arange(10000)
    digits = [(groups // 10 ** (3 - i)) % 10 for i in range(4)]
    # Four digits at bytes 1, 3, 5, 7; bytes 0, 2, 4, 6 are left for a dot.
    t["digits4"] = np.zeros(10000, _U8)
    for i, d in enumerate(digits):
        t["digits4"] |= (d + 48).astype(_U8) << _U8(16 * i + 8)
    last = np.zeros(10000, np.int8)
    for i, d in enumerate(digits):
        last[d != 0] = i + 1
    # Words 1-4 hold digits 4w+1 .. 4w+4 of the 17 (w = 0..3, digit 0 is in
    # word 0).  sig[w][g]: digits up to the last non-zero one of group g in
    # word w (1 for a zero group); keep[w][cut]: the mask that keeps digits
    # 1 .. cut-1 with the byte before each; dot[w][j]: a dot before digit j
    # (j = 0 or 17: no dot).
    t["sig"], t["keep"], t["dot"] = [], [], []
    for w in range(4):
        t["sig"].append(np.where(last > 0, 4 * w + 1 + last, 1).astype(np.int8))
        t["keep"].append(np.array([(1 << 16 * min(max(cut - 1 - 4 * w, 0), 4)) - 1
                                   for cut in range(18)], _U8))
        t["dot"].append(np.array([_word(b".", 2 * (j - 1 - 4 * w)) if 0 < j - 4 * w <= 4 else 0
                                  for j in range(18)], _U8))

    # Per decimal exponent X (index X + _X_OFF): bytes 2-6 of word 0 (the
    # "0.000" of a fixed-point number below 1), the exponent word, the digit
    # a dot goes before, and the fewest digits written (the integer part of
    # a fixed-point number).
    xs = range(-_X_OFF, _X_OFF + 1)
    t["prefix"] = np.array([_word(b"0." + b"0" * (-x - 1), 2) if -4 <= x < 0 else 0
                            for x in xs], _U8)
    t["suffix"] = np.array([0 if -4 <= x <= 16 else _word(b"e%+03d" % x) for x in xs], _U8)
    t["dot_at"] = np.array([1 if not -4 <= x <= 16 else x + 1 if x >= 0 else 0
                            for x in xs], np.intp)
    t["min_cut"] = np.array([x + 1 if 0 <= x <= 16 else 0 for x in xs], np.intp)

    # 10**k = hi + lo to about 2**-106, with hi split in two 26-bit halves
    # for Dekker's product.  Python's int-to-float conversion and int
    # division both round correctly.
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    t["pow10"] = (hi, hh, hi - hh, np.array(lo))

    t["pow10u"] = np.array([10 ** k for k in range(1, 20)], _U8)
    # Every caller shares these arrays.
    for value in t.values():
        for table in value if isinstance(value, (list, tuple)) else [value]:
            table.setflags(write=False)
    return t


def _scaled(t, a, e):
    """Floor and fraction of a * 10**(16 - e) for positive normal a."""
    k = 16 - _K_MIN - e
    hi, hh, hl, lo = (table[k] for table in t["pow10"])
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    y = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(y)
    return p.astype(np.int64) + whole.astype(np.int64), y - whole


def _float_digits(t, x):
    """17 rounded digits D, decimal exponent X and a scalar-path mask.

    D is in [1e16, 1e17) (0 for a zero) and |x| = D * 10**(X - 16) to 17
    places.  Where the mask is set, D and X are meaningless.
    """
    a = np.abs(x)
    zero = a == 0
    scalar = ~(zero | ((a >= _LOW) & (a <= _HIGH)))   # NaN compares false
    a[zero | scalar] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
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
    scalar |= np.abs(frac - 0.5) < _TIE
    d = whole + (frac > 0.5)
    carry = d == _E17
    d[carry] = _E16
    e += carry
    d[zero] = 0
    e[zero] = 0
    return d, e, scalar


def _float_words(t, x):
    """Word columns of `x` as %.17g, no separator, and the scalar-path mask."""
    d, e, scalar = _float_digits(t, x)
    xi = e + _X_OFF
    first, rest = np.divmod(d, _E16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = [high // 10000, high % 10000, low // 10000, low % 10000]
    sig = [table[g] for table, g in zip(t["sig"], groups)]
    cut = np.maximum(np.maximum(np.maximum(sig[0], sig[1]), np.maximum(sig[2], sig[3])),
                     t["min_cut"][xi])
    dot_at = t["dot_at"][xi]
    head = t["prefix"][xi]
    head |= (first.astype(_U8) + _U8(48)) << _U8(56)
    head |= np.signbit(x) * _U8(ord("-") << 8)
    words = [head]
    for w, g in enumerate(groups):
        word = t["digits4"][g]
        word |= t["dot"][w][dot_at]
        word &= t["keep"][w][cut]
        words.append(word)
    return words + [t["suffix"][xi]], scalar


def _float_fields(t, columns, rows: int):
    """(word columns, scalar-path indices) of each float column in turn,
    formatted FLOAT_GROUP values at a time as the fields are taken; a
    column keeps its exponent word if one of its values uses it."""
    floats = [c.astype(np.float64, copy=False)   # %.17g formats a double
              for c in columns if c is not None and c.dtype.kind == "f"]
    per = max(1, FLOAT_GROUP // rows)
    for start in range(0, len(floats), per):
        group = floats[start:start + per]
        words, scalar = _float_words(t, group[0] if len(group) == 1 else np.concatenate(group))
        for j in range(0, len(group) * rows, rows):
            field = [word[j:j + rows] for word in words]
            yield field if field[-1].any() else field[:-1], np.flatnonzero(scalar[j:j + rows])


def _int_words(t, v, sep):
    """Word columns of integers `v` formatted as %d."""
    mag = v.astype(_U8)
    neg = v < 0
    signed = bool(neg.any())
    if signed:
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
        mask = ~_U8(0) << (16 * np.clip(lead, 0, 4)).astype(_U8)
        mask[lead >= 4] = 0
        words.append(t["digits4"][group.astype(np.intp)] & mask)
    # The separator goes in the byte before the first digit; with a minus
    # sign as well, the two get a word of their own.
    if signed:
        words.insert(0, np.full(v.shape, _U8(sep)) | neg * _U8(ord("-") << 8))
    else:
        words[0] |= _U8(sep)
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


def _scalar_text(column) -> list[str]:
    kind = column.dtype.kind
    if kind == "f":
        return list(map("%.17g".__mod__, column.tolist()))
    if kind in "iu":
        return list(map("%d".__mod__, column.tolist()))
    if kind == "U":
        return _text(column)
    raise TypeError(f"no CSV format for dtype {column.dtype}")


def _scalar_rows(columns, rows: int, short, first: int) -> bytes:
    fields = [[""] * rows if c is None else _scalar_text(c) for c in columns]
    if short:
        period, keep = short
        blank = [""] * len(range(first, rows, period))
        for f in fields[keep:]:
            f[first::period] = blank
    return ("\n".join(map(",".join, zip(*fields))) + "\n").encode("utf-8")


def _vector_rows(columns, rows: int, short, first: int) -> bytes:
    t = _tables()
    fields = _float_fields(t, columns, rows)
    words, starts, fallback = [], [], []
    for i, c in enumerate(columns):
        starts.append(len(words))
        # Each field starts with its separator; every row but the first
        # starts with the newline that ends the row before it.
        sep = ord(",") if i else ord("\n")
        if c is None:
            words.append(np.full(rows, _U8(sep)))
        elif c.dtype.kind == "f":
            field, idx = next(fields)
            field[0] |= _U8(sep)
            if idx.size:
                fallback.append((i, sep, idx, c[idx]))
            words += field
        elif c.dtype.kind in "iu":
            words += _int_words(t, c, sep)
        elif c.dtype.kind == "U":
            words += _text_words(c, sep)
        else:
            raise TypeError(f"no CSV format for dtype {c.dtype}")
    starts.append(len(words))
    words = np.stack(words, axis=1)
    for i, sep, idx, values in fallback:
        text = np.array(["%.17g" % v for v in values.tolist()], dtype="S24")
        words[idx, starts[i]:starts[i + 1]] = 0
        words[idx, starts[i]] = sep
        words[idx, starts[i] + 1:starts[i] + 4] = text.view("<u8").reshape(-1, 3)
    if short:
        period, keep = short
        blank = words[first::period]
        blank[:, starts[keep]:] = 0
        blank[:, starts[keep:-1]] = ord(",")
    words[0, 0] &= ~_U8(0xFF)
    return words.tobytes().translate(None, b"\0") + b"\n"


def csv_rows(columns, short=None, offset: int = 0) -> bytes:
    """The CSV rows of one block of columns, each ending in a newline.

    Integer columns are written as %d, float columns as %.17g and text
    columns as they are (text must not contain NUL).  With
    ``short=(period, keep)``, keep >= 1, every row whose index in the block
    plus `offset` (the block's first row in its file) is period - 1 modulo
    period keeps its first `keep` fields and leaves the rest empty.
    """
    present = [c for c in columns if c is not None]
    rows = len(present[0])
    if not rows:
        return b""
    if short and not 1 <= short[1] <= len(columns):
        raise ValueError(f"short rows must keep 1..{len(columns)} fields, got {short[1]}")
    # Index in the block of the first short row.
    first = (short[0] - 1 - offset) % short[0] if short else 0
    if rows < VECTOR_MIN_ROWS:
        return _scalar_rows(columns, rows, short, first)
    return _vector_rows(columns, rows, short, first)
