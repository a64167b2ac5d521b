"""Exact `format(x, '.17g')` text of float arrays, formatted in bulk.

Every data file writes its numbers as `format(x, '.17g')`: CPython's
correctly rounded dtoa, round half to even.  `format17` writes the rows of
a float array as CSV lines whose cells are those bytes, and `format_pairs`
the `node,value` lines of snapshots that share their nodes.  For each value
the kernel forms the 17-digit integer N = round(|x| 10^(16 - k)),
k = floor(log10 |x|), from an exact product, spells N through lookup
tables and keeps the bytes of its text from one superset row; the values
it cannot certify (see `_cells`) are formatted by Python.
"""

from __future__ import annotations

import functools

import numpy as np

#: Values per formatting pass: bounds the kernel's scratch (about 150 bytes
#: a value) to about 0.6 MB.  Halving it slowed the snapshot text of a
#: 991-node run by a fifth on a 2-core Xeon.
CHUNK_VALUES = 2 ** 12
#: Decimal exponents k the kernel certifies.  Outside them Dekker's split
#: of |x| or of 10^(16 - k) would overflow; such values (and subnormals)
#: are formatted by Python.
K_MIN, K_MAX = -280, 290
#: A product whose fraction lies within this of 1/2 may be a tie, and is
#: formatted by Python.  The computed fraction is within 5e-15 of the exact
#: one (see `_cells`), so every other value rounds as the exact one does.
TIE_TOLERANCE = 2.0 ** -30
#: Dekker's splitting constant 2^27 + 1 for float64.
_SPLITTER = 134217729.0

# One value's superset row: 48 bytes, six little-endian uint64 words.
#   0      sign '-'
#   1-5    "0.000", the lead of a fixed-point value below 1
#   6, 7   d0 and the dot after it
#   8-39   d1 .. d16, each followed by a dot slot
#   40-44  'e', the exponent's sign and its three digits
#   45     the cell's separator, ',' or '\n'
# A keep-mask zeroes the bytes that are not in the text, and deleting the
# zero bytes packs the rows.  A value Python formats is written from byte
# 0 and keeps a prefix of its row.
_WORDS = 6
_SEP = 45
_LONGEST = 24  # len('-2.2250738585072014e-308'), the longest '%.17g'
# Keep-mask forms: fixed point for -4 <= k < 17 (form k + 4), scientific
# with two or with three exponent digits.  Mask rows go by (form, sign,
# index j of the last nonzero digit), then one per prefix length.
_SCI, _SCI3 = 21, 22
_PREFIX = 2 * 17 * 23
# Exponent words for k = K_MIN - 1 .. K_MAX, each with every separator.
_KS = K_MAX - K_MIN + 2
_SEPARATORS = b",\n"
_COMMA = np.full(1, _SEPARATORS.index(b","))
_NEWLINE = np.full(1, _SEPARATORS.index(b"\n"))


def _as_words(rows) -> np.ndarray:
    """Rows of 8 bytes as little-endian uint64 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")[..., 0]


def _keep() -> np.ndarray:
    """Which bytes of the superset row a value keeps, by (form, sign, index
    j of its last nonzero digit, byte)."""
    form = np.arange(23)[:, None, None, None]
    k = form - 4
    neg = np.arange(2)[:, None, None]
    j = np.arange(17)[:, None]
    byte = np.arange(8 * _WORDS)
    digit = np.full(byte.size, 99)  # the digit at each byte, 99 for none
    digit[6], digit[8:40:2] = 0, np.arange(1, 17)
    dot = np.full(byte.size, 99)  # the digit each dot slot follows
    dot[7], dot[9:40:2] = 0, np.arange(1, 17)
    keep = np.broadcast_to((byte == 0) & (neg == 1) | (byte == _SEP),
                           (23, 2, 17, byte.size)).copy()
    # fixed point below 1: '0.', -k - 1 zeros, d0 .. dj
    keep |= (k < 0) & ((byte == 1) | (byte == 2) | (byte >= 3) & (byte < 2 - k)
                       | (digit <= j))
    # fixed point from 1: d0 .. dk, then '.' and d_{k+1} .. dj if j > k
    keep |= (k >= 0) & (form < _SCI) & (
        (digit <= np.maximum(j, k)) | (dot == k) & (j > k))
    # scientific: d0, '.' and d1 .. dj if j > 0, 'e', sign, 2 or 3 digits
    keep |= (form >= _SCI) & (
        (digit <= j) | (dot == 0) & (j > 0) | (byte == 40) | (byte == 41)
        | (byte == 43) | (byte == 44) | (byte == 42) & (form == _SCI3))
    return keep


@functools.cache
def _tables() -> dict:
    """The kernel's lookup tables, built on first use (a few ms)."""
    # 10^q = hi + lo + d, |d| <= 2^-53 |lo|, for q = 16 - k; hi correctly
    # rounded (int to float, int / int), split as Dekker's product needs
    hi, lo = [], []
    for k in range(K_MIN - 1, K_MAX + 1):
        if k <= 16:
            h = float(10 ** (16 - k))
            lo.append(float(10 ** (16 - k) - int(h)))
        else:
            d = 10 ** (k - 16)
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        hi.append(h)
    hi = np.array(hi)
    c = hi * _SPLITTER
    hh = c - (c - hi)

    g = np.arange(10 ** 4, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
    quad = np.full((10 ** 4, 8), ord("."), np.uint8)
    quad[:, 0::2] = digits + ord("0")
    lead = np.tile(np.frombuffer(b"-0.0000.", np.uint8), (10, 1))
    lead[:, 6] += np.arange(10, dtype=np.uint8)
    ks = np.arange(K_MIN - 1, K_MAX + 1)
    mag = np.abs(ks)
    expo = np.zeros((len(_SEPARATORS), ks.size, 8), np.uint8)
    expo[..., 0] = ord("e")
    expo[..., 1] = np.where(ks < 0, ord("-"), ord("+"))
    expo[..., 2:5] = np.stack([mag // 100, mag // 10 % 10, mag % 10], 1) + 48
    expo[..., 5] = np.frombuffer(_SEPARATORS, np.uint8)[:, None]
    # the last nonzero digit of a group at its place in d1 .. d16, -1 for
    # a zero group
    last = np.where(g == 0, -1, 3 - np.argmax(digits[:, ::-1] != 0, axis=1))
    form = np.where(mag >= 100, _SCI3, _SCI)
    fixed = (ks >= -4) & (ks < 17)
    form[fixed] = ks[fixed] + 4

    masks = np.zeros((_PREFIX + _LONGEST + 1, 8 * _WORDS), np.uint8)
    masks[:_PREFIX] = 255 * _keep().reshape(_PREFIX, 8 * _WORDS)
    for n in range(_LONGEST + 1):
        masks[_PREFIX + n, :n] = 255
        masks[_PREFIX + n, _SEP] = 255
    return {
        "pow10": (hi, hh, hi - hh, np.array(lo)),
        "lead": _as_words(lead),
        "quad": _as_words(quad),
        "expo": _as_words(expo).reshape(-1),
        "last": [np.where(last < 0, -1, last + off).astype(np.int8)
                 for off in (1, 5, 9, 13)],
        "form": (2 * 17 * form).astype(np.intp),
        "masks": _as_words(masks.reshape(-1, _WORDS, 8)),
        "lengths": np.count_nonzero(masks, axis=1),
    }


def _cells(values: np.ndarray, seps, blank=None, words=None) -> tuple:
    """The text of the cells of `values` (rows x columns, float64), each
    followed by its column's separator (an index into _SEPARATORS), as
    (words, mask rows): row i of `words` (or of the given array of
    values.size x _WORDS uint64) holds cell i's text in its nonzero bytes,
    in order, and `tab["lengths"][mask rows]` their counts.  Cells where
    `blank` is True are empty.

    Error bound.  With 10^q = hi + lo + d, |d| <= 2^-53 |lo| <= 2^-106 10^q,
    Dekker's product gives |x| hi = p + e exactly; t = fl(|x| lo) and
    s = fl(e + t).  For N < 10^17 < 2^57, p is an integer, |e| <= 8 and
    |t| < 12, so s is off the exact |x| 10^q - p by at most 2^-49 (its own
    rounding) + 2 * 2^-106 * 10^17 (t's rounding and d), under 5e-15.  A
    fraction of s farther than TIE_TOLERANCE from 1/2 therefore rounds as
    the exact product does.  N outside [10^16, 10^17) means k was off by
    one or the rounding carried into the next decade; Python formats it,
    as it does NaN, infinities and values outside [10^K_MIN, 10^K_MAX).
    """
    tab = _tables()
    rows, cols = values.shape
    x = values.reshape(-1)
    a = np.abs(x)
    # the values the kernel leaves to Python (zero too) are parked at 1.0
    ok = a >= 10.0 ** K_MIN
    ok &= a < 10.0 ** K_MAX
    a[~ok] = 1.0
    kx = np.log10(a)
    np.floor(kx, out=kx)
    kx = kx.astype(np.intp)
    kx -= K_MIN - 1  # k's index in the tables
    hi, hh, hl, lo = (np.take(t, kx, mode="clip") for t in tab["pow10"])
    # Dekker's exact product a hi = p + e, a split as ah + al, in place
    p = np.multiply(a, hi, out=hi)
    ah = a * _SPLITTER
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    e = ah * hh
    e -= p
    e += np.multiply(ah, hl, out=ah)
    e += np.multiply(al, hh, out=hh)
    e += np.multiply(al, hl, out=hl)
    e += np.multiply(a, lo, out=lo)
    del a, ah, al, hh, hl, lo
    r = np.rint(e)
    e -= r
    ok &= np.abs(e) < 0.5 - TIE_TOLERANCE
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    # a product rounded up to 10^16 from below means k was one too large
    ok &= n - (e < 0) >= 10 ** 16
    ok &= n < 10 ** 17
    del p, e, r
    n[~ok] = 0  # N = 0 at k = 0 spells zero; Python writes the others

    top = n // 10 ** 8
    n -= top * 10 ** 8
    top, bottom = top.astype(np.int32), n.astype(np.int32)
    del n
    d0 = top // 10 ** 8
    top -= d0 * 10 ** 8
    g1, g3 = top // 10 ** 4, bottom // 10 ** 4
    groups = (g1, top - g1 * 10 ** 4, g3, bottom - g3 * 10 ** 4)
    if words is None:
        words = np.empty((x.size, _WORDS), np.uint64)
    words[:, 0] = np.take(tab["lead"], d0, mode="clip")
    for i, g in enumerate(groups):
        words[:, i + 1] = np.take(tab["quad"], g, mode="clip")
    expo = kx.reshape(rows, cols) + _KS * np.asarray(seps)
    words[:, 5] = np.take(tab["expo"], expo.reshape(-1), mode="clip")

    # j: the last nonzero digit, in the last group that is not zero
    j = np.take(tab["last"][3], groups[3], mode="clip")
    short = np.flatnonzero(j < 0)
    for i in (2, 1, 0):
        if not short.size:
            break
        j[short] = np.take(tab["last"][i], groups[i][short], mode="clip")
        short = short[j[short] < 0]
    j[short] = 0  # N = 0 (zero, or a value Python writes)
    del top, bottom, d0, g1, g3, groups
    row = np.take(tab["form"], kx, mode="clip")
    row += j
    row += 17 * np.signbit(x)
    ok |= x == 0.0
    if blank is not None:
        blank = blank.reshape(-1)
        row[blank] = _PREFIX
        ok |= blank
    rest = np.flatnonzero(~ok)
    if rest.size:
        cells = [b"%.17g" % v for v in x[rest].tolist()]
        row[rest] = [_PREFIX + len(cell) for cell in cells]
        chars = words.view(np.uint8)
        chars[rest, :_LONGEST] = np.frombuffer(b"".join(
            cell.ljust(_LONGEST, b"\0") for cell in cells), np.uint8).reshape(
                rest.size, _LONGEST)
    words &= np.take(tab["masks"], row, axis=0, mode="clip")
    return words, row


def _text(words: np.ndarray) -> bytes:
    """The nonzero bytes of `words`, in order."""
    return words.tobytes().translate(None, b"\0")


def format17(values, blank=None) -> bytes:
    """The CSV text of the float array `values`: a line per row (a 1D array
    is one column), each cell `format(x, '.17g')`, cells joined by ',' and
    lines ended by '\\n'.  Cells where `blank` (broadcast to the rows and
    columns of `values`: a flag per column blanks whole columns) is True
    are empty.

    The kernel rounds |x| 10^(16 - k) to 17 digits from a fraction that is
    within 5e-15 of the exact one (the bound is derived in `_cells`), so a
    fraction farther than TIE_TOLERANCE = 2^-30 from 1/2 rounds as the
    exact one does; Python formats the rest."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if blank is not None:
        blank = np.broadcast_to(np.asarray(blank, bool), values.shape)
    rows, cols = values.shape
    seps = np.zeros(cols, np.intp)  # ',' between cells, '\n' at the end
    seps[-1:] = _NEWLINE[0]
    step = max(1, CHUNK_VALUES // max(cols, 1))
    return b"".join(
        _text(_cells(values[start:start + step], seps,
                     None if blank is None else blank[start:start + step])[0])
        for start in range(0, rows, step))


def format_pairs(nodes, rows):
    """For each row of the 2-D value table `rows` (a row as long as
    `nodes`), the text of its lines `node,value` as an iterable of
    bytes-like pieces, every cell as `format17` writes it.  The node cells
    are formatted once; each block of rows fills a line buffer past the
    nodes' text with its values."""
    slots, node_bytes = _node_slots(np.asarray(nodes, dtype=np.float64))
    size, width = slots.shape
    if size > CHUNK_VALUES:  # a row longer than a chunk, a piece at a time
        lines = np.empty((CHUNK_VALUES, width + _WORDS), np.uint64)
        for values in rows:
            yield _row_pieces(lines, slots, values)
        return
    lines = np.empty((CHUNK_VALUES // max(size, 1), size, width + _WORDS),
                     np.uint64)
    lines[:, :, :width] = slots
    for start in range(0, len(rows), len(lines)):
        yield from _pair_block(lines, node_bytes,
                               rows[start:start + len(lines)])


def _node_slots(nodes) -> tuple:
    """Each node's text and ',' packed to the front of a slot of whole
    words, as (slots, total bytes)."""
    texts, lengths = [], [np.zeros(0, np.intp)]
    for start in range(0, nodes.size, CHUNK_VALUES):
        words, rows = _cells(nodes[start:start + CHUNK_VALUES, None], _COMMA)
        texts.append(_text(words))
        lengths.append(np.take(_tables()["lengths"], rows))
    lengths = np.concatenate(lengths)
    width = -(-int(lengths.max(initial=0)) // 8)
    slots = np.zeros((nodes.size, 8 * width), np.uint8)
    slots[np.arange(8 * width) < lengths[:, None]] = np.frombuffer(
        b"".join(texts), np.uint8)
    return slots.view(np.uint64), int(lengths.sum())


def _row_pieces(lines, slots, values):
    """The text of the lines `node,value` of a row longer than a chunk, a
    piece at a time, each formatted in the line buffer `lines` past the
    nodes' text `slots`."""
    width = slots.shape[1]
    for start in range(0, len(values), CHUNK_VALUES):
        part = lines[:len(values[start:start + CHUNK_VALUES])]
        part[:, :width] = slots[start:start + len(part)]
        _cells(values[start:start + len(part), None], _NEWLINE,
               words=part[:, width:])
        yield _text(part)


def _pair_block(lines, node_bytes, block):
    """The texts of `format_pairs` for the value rows `block`, their values
    formatted into the line buffer `lines` past the nodes' text."""
    lines = lines[:len(block)]
    rows = _cells(np.reshape(block, (-1, 1)), _NEWLINE,
                  words=lines[:, :, -_WORDS:].reshape(-1, _WORDS))[1]
    text = memoryview(_text(lines))
    ends = np.take(_tables()["lengths"], rows).reshape(block.shape).sum(1)
    ends += node_bytes
    start = 0
    for end in np.cumsum(ends).tolist():
        yield [text[start:end]]
        start = end
