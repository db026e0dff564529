"""The bytes repr gives each value of a float64 array, for whole arrays.

join_rows writes a 2-D array as delimited text lines, each field exactly
repr(float(value)); reprs gives the same texts as a list. Nothing here
calls repr: the shortest round-trip digits of every value are computed
together in uint64 arithmetic.

Digits follow Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020, the algorithm of Java's Double.toString since JDK 19),
changed in two places for Python's shortest repr, which allows a one-digit
significand where Java's requires two: the one-digit-shorter candidate is
tried from s >= 10 rather than s >= 100, and the tiny-subnormal path (10 c
with the exponent lowered by one) is dropped. Without them 5e-324 would be
4.9e-324. The 126-bit powers of ten are built once from exact integers and
multiplied in 32-bit limbs.

Each value gets a fixed slot of _W bytes that holds every character any
repr form could use: sign, the "0.000" prefix of 1e-4 <= |v| < 1, the 17
digits each followed by a candidate ".", the exponent, and the separator.
A table row per form says which bytes a value keeps, and one boolean
compress per block packs the kept bytes. Only the fields that are not
blank get digits; a blank field's slot keeps just its separator.
"""

from __future__ import annotations

import functools

import numpy as np

# Values per block: the uint64 temporaries of a block stay in cache.
_BLOCK = 8192

# Byte columns of a slot. Digit j (0-based) is at _D1 + 2 j and the
# candidate "." after it at _D1 + 2 j + 1, so digits 2-17 with their dots
# are four 8-byte words at columns 8, 16, 24 and 32. The dot slot after
# the 17th digit, never used, holds the "e".
_SIGN, _ZERO_DOT, _ZEROS, _D1, _E, _EXP, _SEP = 0, 1, 3, 6, 39, 40, 44
_W = 48

# Forms, by the decimal point position decpt of repr (value = 0.d1d2... 10^decpt):
# exponent form with three or two exponent digits, 0.000ddd (decpt -3 to
# 0) and ddd.ddd (decpt 1 to 16); then inf, nan and a blank field.
_EXP3, _EXP2 = 0, 1
_INF, _NAN, _BLANK = 22, 23, 24
_CODES = 25
_NSIG = 18  # significant digit counts 0 (unused) to 17
_NEG = _CODES * _NSIG

# decpt runs from -323 (5e-324) to 309 (the largest float).
_DECPT_OFF = 330


@functools.cache
def _form_tables() -> tuple[np.ndarray, ...]:
    """By decpt: the form's first table row and the exponent's text; and
    the table of the bytes each row keeps, six uint64 words a row."""
    decpt = np.arange(2 * _DECPT_OFF) - _DECPT_OFF
    code = np.where(np.abs(decpt - 1) >= 100, _EXP3, _EXP2)
    fixed = (decpt > -4) & (decpt <= 16)
    code[fixed] = decpt[fixed] + 5
    # sign, then the exponent's digits, of decpt - 1
    e = np.abs(decpt - 1)
    exp_bytes = np.stack(
        [np.where(decpt < 1, 45, 43), e // 100 + 48, e // 10 % 10 + 48, e % 10 + 48], axis=1
    ).astype(np.uint8)

    # What each (sign, form, significant digit count) keeps of a slot.
    c = np.arange(_CODES)[:, None]
    nsig = np.arange(_NSIG)[None, :]
    point = c - 5  # decpt of the fixed forms
    is_exp = c <= _EXP2
    zeros = np.where((point >= -3) & (point <= 0), -point, -1)  # of 0.000ddd
    digits = np.select(
        [(point >= 1) & (point <= 16), c == _BLANK, (c == _INF) | (c == _NAN)],
        [np.maximum(nsig, point + 1), 0, 3],
        nsig,
    )
    dot = np.select([(point >= 1) & (point <= 16), is_exp & (nsig > 1)], [point, 1], 0)
    keep = np.zeros((2, _CODES, _NSIG, _W), dtype=bool)
    keep[1, :, :, _SIGN] = c < _NAN
    keep[:, :, :, _ZERO_DOT : _ZERO_DOT + 2] = (zeros >= 0)[..., None]
    keep[:, :, :, _ZEROS : _ZEROS + 3] = (zeros >= 0)[..., None] & (
        np.arange(3) >= 3 - zeros[..., None]
    )
    keep[:, :, :, _D1 : _D1 + 34 : 2] = np.arange(17) < digits[..., None]
    keep[:, :, :, _D1 + 1 : _D1 + 33 : 2] = np.arange(1, 17) == dot[..., None]
    keep[:, :, :, _E : _EXP + 4] = is_exp[..., None]
    keep[:, :, :, _EXP + 1] = c == _EXP3
    return code * _NSIG, exp_bytes.view(np.uint32).ravel(), keep.reshape(-1, _W).view(np.uint64)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """By 4-digit group: its digits, each followed by "." (the last by "e"
    in the second table), as one uint64; then, for each group position i,
    the significant digit count of all 17 when group i is the last nonzero
    group, 1 when it is zero."""
    g = np.arange(10_000)
    quad = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    text = np.full((10_000, 8), ord("."), dtype=np.uint8)
    text[:, 0::2] = quad + 48
    last = text.copy()
    last[:, 7] = ord("e")
    # Group i holds digits 4 i + 2 to 4 i + 5; its trailing zeros don't count.
    sig = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    counts = [np.where(g > 0, 1 + 4 * i + sig, 1).astype(np.uint8) for i in range(4)]
    return text.view(np.uint64).ravel(), last.view(np.uint64).ravel(), *counts


_P10 = 10 ** np.arange(20, dtype=np.uint64)
# Decimal digits of 2^e, e = 0 to 63.
_DIGITS_POW2 = np.array([len(str(1 << e)) for e in range(64)], dtype=np.intp)

_K_MIN, _K_MAX = -324, 292
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(0x7FFFFFFFFFFFFFFF)


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """The 126-bit g of every k from _K_MIN to _K_MAX, as four 32-bit limbs.

    10^-k = beta 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1;
    g = g1 2^63 + g0, and each of g1, g0 is split into a high and a low
    32-bit limb.
    """
    gs = []
    for k in range(_K_MIN, _K_MAX + 1):
        e = -k
        shift = 125 - ((e * 913124641741) >> 38)  # 125 - floor(log2 10^e)
        if e >= 0:  # 10^e 2^shift = 5^e 2^(e + shift)
            shift += e
            beta = 5**e << shift if shift >= 0 else 5**e >> -shift
        else:
            beta = (1 << (shift + e)) // 5**-e
        gs.append(beta + 1)
    g1 = np.array([g >> 63 for g in gs], dtype=np.uint64)
    g0 = np.array([g & ((1 << 63) - 1) for g in gs], dtype=np.uint64)
    return g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32


def _rop(limbs, cp):
    """Schubfach's round-to-odd floor(g cp 2^-127), as Java's rop computes
    it: floor(g1 cp / 2) + floor(g0 cp / 2^64), whose bits from 63 up are
    the result, with bit 0 set when the 63 bits below are not all zero.

    Java's truncation is kept: with the exact product, the excess of g over
    10^-k 2^-r would set bit 0 where the true value is an integer."""
    a1, a0, b1, b0 = limbs
    p1 = cp >> 32
    p0 = cp & _M32
    # g1 cp = y1 2^64 + y0
    m0 = a0 * p0
    m1 = a1 * p0 + a0 * p1
    y0 = m0 + (m1 << 32)
    y1 = a1 * p1 + (m1 >> 32) + (y0 < m0)
    # the high 64 bits of g0 cp
    n0 = b0 * p0
    n1 = b1 * p0 + b0 * p1
    x1 = b1 * p1 + (n1 >> 32) + (((n0 >> 32) + (n1 & _M32)) >> 32)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits: np.ndarray):
    """The shortest decimal f 10^k that reads back as each finite nonzero
    value, the closest to it when several are as short, as (f, k)."""
    bq = ((bits >> 52) & 0x7FF).astype(np.int64)
    fraction = bits & 0xFFFFFFFFFFFFF
    c = np.where(bq > 0, fraction | 0x10000000000000, fraction)
    q = np.maximum(bq, 1) - 1075
    # At a power of two above the subnormals the spacing below is half.
    irregular = ((fraction == 0) & (bq > 1)).astype(np.int64)
    # k = floor(log10 2^q), of 3/4 2^q when irregular; h = q + floor(log2 10^-k) + 2
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    limbs = [t.take(k - _K_MIN) for t in _powers()]

    out = c & 1
    cb = c << 2
    vb = _rop(limbs, cb << h)
    vbl = _rop(limbs, (cb - 2 + irregular.astype(np.uint64)) << h)
    vbr = _rop(limbs, (cb + 2) << h)

    s = vb >> 2
    # One digit shorter: the multiples of 10 next to s. At most one lies in
    # the rounding interval; when one does, it is the answer.
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + out <= sp10 << 2
    wpin = (tp10 << 2) + out <= vbr
    shorter = (upin != wpin) & (s >= 10)
    # Otherwise s or s + 1, whichever lies in the interval; the closer one
    # when both do, and the even one at a tie.
    uin = vbl + out <= s << 2
    win = (s << 2) + 4 + out <= vbr
    mid = (s << 2) + 2
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    f = np.where(shorter, np.where(upin, sp10, tp10), s + ~lower)
    return f, k


def _texts(x: np.ndarray, blank, slots: np.ndarray, sep_keep: np.ndarray) -> bytes:
    """Every value of x in its slot of slots, kept bytes packed."""
    form_base, exp_text, keep_rows = _form_tables()
    quad, quad_e, *sig_counts = _digit_tables()
    n = len(x)
    # Only the fields that are not blank go through the digit pipeline.
    at = slice(None) if blank is None or not blank.any() else np.flatnonzero(~blank)
    bits = x[at].view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    special = (bits & 0x7FF0000000000000) == 0x7FF0000000000000
    nan = special & ((bits & 0xFFFFFFFFFFFFF) != 0)
    zero = (bits << 1) == 0
    odd = special | zero
    if odd.any():
        # Digits and forms of 1.0, overwritten below.
        bits = np.where(odd, np.uint64(0x3FF0000000000000), bits)
    f, k = _shortest(bits)

    # Normalize f to 17 digits: f has L or L + 1 digits, L those of 2^e2.
    e2 = (f.astype(np.float64).view(np.uint64) >> 52).astype(np.intp) - 1023
    length = _DIGITS_POW2.take(e2)
    length += f >= _P10.take(length)
    f *= _P10.take(17 - length)
    decpt = k + length
    if zero.any():
        f[zero] = 0

    lead = f // np.uint64(10**16)
    rest = f - lead * np.uint64(10**16)
    hi = rest // np.uint64(10**8)
    lo = rest - hi * np.uint64(10**8)
    g1 = hi // 10_000
    g3 = lo // 10_000
    # The 4-digit groups of digits 2-17, as indices into the tables.
    groups = [g.view(np.intp) for g in (g1, hi - g1 * 10_000, g3, lo - g3 * 10_000)]
    nsig = np.maximum(
        np.maximum(sig_counts[0].take(groups[0]), sig_counts[1].take(groups[1])),
        np.maximum(sig_counts[2].take(groups[2]), sig_counts[3].take(groups[3])),
    )

    slot = slots[:n]
    slot[at, _D1] = lead + 48
    words = slot.view(np.uint64)
    words[at, 1] = quad.take(groups[0])
    words[at, 2] = quad.take(groups[1])
    words[at, 3] = quad.take(groups[2])
    words[at, 4] = quad_e.take(groups[3])
    decpt += _DECPT_OFF
    slot.view(np.uint32)[at, _EXP // 4] = exp_text.take(decpt)

    form = np.full(n, _BLANK * _NSIG)
    form[at] = form_base.take(decpt) + nsig + neg * _NEG
    if special.any():
        rows = np.arange(n)[at][special]
        form[rows] = np.where(nan, _NAN * _NSIG, _INF * _NSIG + neg * _NEG)[special]
        slot[rows, _D1 : _D1 + 5 : 2] = np.where(nan, b"nan", b"inf")[special].view(
            np.uint8
        ).reshape(-1, 3)
    keep = keep_rows.take(form, axis=0).view(bool)
    keep.view(np.uint32)[:, _SEP // 4] = sep_keep[:n]
    return np.compress(keep.ravel(), slot.ravel()).tobytes()


def join_rows(values, delimiter: str = ",", blank=None) -> bytes:
    """UTF-8 text of the 2-D float array values: each row one line of
    repr(float(v)) fields joined by delimiter and ended by "\\n".

    Fields where the boolean array blank is True are left empty. The
    delimiter is any one character.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, cols = values.shape
    if cols == 0:
        return b"\n" * rows
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    sep = delimiter.encode("utf-8")
    per_block = max(1, _BLOCK // cols)
    n = min(rows, per_block) * cols

    # Every block starts a row, so one slot array serves them all: its
    # constant bytes and separators are written once.
    slots = np.zeros((n, _W), dtype=np.uint8)
    slots[:, : _D1 + 2] = np.frombuffer(b"-0.0000.", dtype=np.uint8)
    fields = slots[:, _SEP:].reshape(-1, cols, 4)
    fields[:, :-1, : len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    fields[:, -1, 0] = ord("\n")
    kept = np.zeros((n // cols, cols, 4), dtype=bool)
    kept[:, :-1, : len(sep)] = True
    kept[:, -1, 0] = True
    sep_keep = kept.reshape(n, 4).view(np.uint32).ravel()

    flat = values.ravel()
    if blank is not None:
        blank = np.asarray(blank, dtype=bool).ravel()
    step = per_block * cols
    return b"".join(
        _texts(
            flat[i : i + step],
            None if blank is None else blank[i : i + step],
            slots,
            sep_keep,
        )
        for i in range(0, len(flat), step)
    )


def reprs(values) -> list[str]:
    """[repr(float(v)) for v in values.ravel()], computed together."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return join_rows(values).decode("ascii").split("\n")[:-1]
