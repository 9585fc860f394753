"""CSV rows of float64 columns, byte for byte as Python's repr writes them.

The CSV artifacts hold every float as repr writes it: the shortest decimal
that reads back to the same double. Calling repr once per value costs about
a microsecond. `csv_rows` gives the same bytes for a block of rows with
numpy integer arithmetic, in three steps:

1. Digits. Ryu's d2d (U. Adams, "Ryu: fast float-to-string conversion",
   PLDI 2018) turns each uint64 bit pattern into the shortest digits that
   read back, nearest to the exact value and ties to even, and their
   decimal exponent. Those are the digits repr prints. Everything d2d
   derives from the binary exponent alone (the 128-bit power-of-5
   multiplier, the shift, the decimal exponent) is tabulated per exponent
   at import.
2. Layout. repr's rules place the digits: exponent form `d.ddde±XX` when
   the decimal point would sit more than 16 places right of the first
   digit or at least 4 zeros left of it, fixed form otherwise, with `.0`
   after an integer.
3. Rows. Each value fills a 32-byte slot, with NUL bytes where it has no
   character. The slots of a block and its separators become one byte
   string, and deleting the NULs leaves the CSV text.

Reading goes the other way: `nearest_doubles` rounds decimal digits times
a power of 10 to the nearest double, as float() does, with the same kind
of 128-bit power-of-5 arithmetic.
"""

import functools

import numpy as np

_MANTISSA_BITS = 52
_POW5_BITCOUNT = 125   # bits of every multiplier (Ryu's POW5_BITCOUNT = POW5_INV_BITCOUNT)
_M64 = (1 << 64) - 1
_M32 = 0xFFFF_FFFF


def _d2d_tables():
    """Per biased exponent E (0..2047): the 128-bit multiplier's low and high
    words, the two shifts that take bits [j, j + 64) of a 192-bit product,
    the decimal exponent of the digits before any is removed, the mask of
    low bits of 4*m2 that must be 0 for those digits to be exact, and 5**q
    where the bounds may be exact decimals (0 elsewhere). Subnormals use
    E = 1's exponent; E = 2047 (inf, nan) repeats 2046."""
    pow5 = [1]
    for _ in range(341):
        pow5.append(pow5[-1] * 5)
    bits5 = np.array([p.bit_length() for p in pow5])
    # Ryu's tables: 342 inverse entries 2**(bitlen(5**q) - 1 + 125) // 5**q + 1,
    # then 326 direct entries, 5**i cut or padded to 125 bits.
    muls = [(1 << (b - 1 + _POW5_BITCOUNT)) // p + 1 for p, b in zip(pow5, bits5.tolist())]
    muls += [p >> (b - _POW5_BITCOUNT) if b > _POW5_BITCOUNT else p << (_POW5_BITCOUNT - b)
             for p, b in zip(pow5[:326], bits5.tolist())]
    lo = np.array([m & _M64 for m in muls], dtype=np.uint64)
    hi = np.array([m >> 64 for m in muls], dtype=np.uint64)
    e2 = np.minimum(np.maximum(np.arange(2048), 1), 2046) - 1023 - _MANTISSA_BITS - 2
    big = e2 >= 0
    q = np.where(big, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = np.where(big, 0, -e2 - q)        # the direct entry; the inverse one is q
    j = np.where(big, q - e2 + bits5[np.where(big, q, 0)] - 1, q - bits5[i]) + _POW5_BITCOUNT
    assert ((64 < j) & (j < 128)).all()
    index = np.where(big, q, 342 + i)
    mul_lo, mul_hi = lo[index], hi[index]
    low_bits = np.left_shift(np.uint64(1), np.minimum(q, 63).astype(np.uint64)) - np.uint64(1)
    zeros_mask = np.where(big | (q >= 63), np.uint64(_M64), np.where(q <= 1, np.uint64(0), low_bits))
    exact_pow5 = np.where(big & (q <= 21), np.array(pow5[:22], dtype=np.uint64)[np.minimum(q, 21)],
                          np.uint64(0))
    return (mul_lo, mul_hi, (j - 64).astype(np.uint64), (128 - j).astype(np.uint64),
            np.where(big, q, q + e2).astype(np.intp), zeros_mask, exact_pow5)


_MUL_LO, _MUL_HI, _SHIFT_LO, _SHIFT_HI, _E10, _ZEROS_MASK, _POW5 = _d2d_tables()
_EXACT_FROM = int(np.flatnonzero((_POW5 != 0) | (_ZEROS_MASK == 0))[0])
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_HALF = np.array([1] + [5 * 10**k for k in range(19)], dtype=np.uint64)   # 10**k / 2; 1 for k = 0


def _mul128(a, b):
    """(high, low) uint64 words of the 128-bit products a * b of uint64 arrays."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01 = a0 * b1
    p10 = a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def shortest_digits(bits):
    """Ryu's d2d for finite, non-zero doubles given as a uint64 array of bit
    patterns: (digits, exponent), uint64 and intp arrays, such that each
    |value| reads back from digits * 10**exponent and digits is the
    shortest such integer, nearest the exact value, ties to even."""
    e = ((bits >> _MANTISSA_BITS) & 0x7FF).astype(np.intp)
    mantissa = bits & ((1 << _MANTISSA_BITS) - 1)
    m2 = mantissa | (1 << _MANTISSA_BITS)
    subnormal = np.flatnonzero(e == 0)
    m2[subnormal] = mantissa[subnormal]
    accept = (m2 & 1) == 0               # an even m2 owns both of its bounds
    mm_shift = ((mantissa != 0) | (e <= 1)).astype(np.uint64)
    mv = m2 << 2
    # mv * mul as 192 bits (x0, x1, x2), then the upper bound (mv + 2) * mul
    # and the lower bound (mv - 1 - mm_shift) * mul from it; each is wanted
    # shifted right by j, which takes bits of its upper two words only.
    mul_lo, mul_hi = _MUL_LO[e], _MUL_HI[e]
    high_lo, x0 = _mul128(mv, mul_lo)
    x2, low_hi = _mul128(mv, mul_hi)
    x1 = high_lo + low_hi
    x2 += x1 < low_hi
    up0 = x0 + (mul_lo << 1)
    up1 = x1 + ((mul_hi << 1) | (mul_lo >> 63)) + (up0 < x0)
    up2 = x2 + (up1 < x1)
    sub_lo = mul_lo << mm_shift
    down1 = x1 - (((mul_hi << mm_shift) | ((mul_lo >> 63) & mm_shift)) + (x0 < sub_lo))
    down2 = x2 - (down1 > x1)
    shift_lo, shift_hi = _SHIFT_LO[e], _SHIFT_HI[e]
    vr = (x1 >> shift_lo) | (x2 << shift_hi)
    vp = (up1 >> shift_lo) | (up2 << shift_hi)
    vm = (down1 >> shift_lo) | (down2 << shift_hi)
    vr_zeros = (mv & _ZEROS_MASK[e]) == 0
    vm_zeros = np.zeros(len(e), dtype=bool)
    if (e >= _EXACT_FROM).any():         # |value| >= 2**50: the bounds may be exact
        exact = np.flatnonzero(_POW5[e])
        pow5, v, acc = _POW5[e[exact]], mv[exact], accept[exact]
        five = v % 5 == 0
        vr_zeros[exact] = five & (v % pow5 == 0)
        vm_zeros[exact] = ~five & acc & ((v - 1 - mm_shift[exact]) % pow5 == 0)
        vp[exact] -= ~five & ~acc & ((v + 2) % pow5 == 0)
        small = np.flatnonzero(_ZEROS_MASK[e] == 0)   # q <= 1: vr is exact
        vm_zeros[small] = accept[small] & (mm_shift[small] == 1)
        vp[small] -= ~accept[small]

    # Remove the most digits r that leave vp and vm apart: vp // 10**k >
    # vm // 10**k holds for every k up to r. Bisection finds r's multiples
    # of 4 (few values have any), then three tests add the rest.
    removed = np.zeros(len(e), dtype=np.intp)
    vm_high = vm.copy()
    for k in (16, 8, 4):
        vp_k = vp // 10**k
        vm_k = vm_high // 10**k
        keep = np.flatnonzero(vp_k > vm_k)
        vp[keep] = vp_k[keep]
        vm_high[keep] = vm_k[keep]
        removed[keep] += k
    for k in (1, 2, 3):
        removed += vp // 10**k > vm_high // 10**k
    scale = _POW10[removed]
    digits = vr // scale
    dropped = vr - digits * scale
    # The last digit removed is 5 or more, or exactly 5 with zeros after it.
    half = _HALF[removed]
    up = dropped >= half
    tie = vr_zeros & (dropped == half)
    at_vm = digits * scale <= vm          # digits == vm // scale, as vm <= vr
    if vm_zeros.any():
        lead = _POW10[removed - (removed > 0)]
        last = dropped // lead
        vr_zeros &= dropped == last * lead
        vm_low, vm = vm, vm // scale
        vm_zeros &= vm_low == vm * scale
        # An exact lower bound also gives up its trailing zeros.
        while True:
            more = np.flatnonzero(vm_zeros & (vm % 10 == 0))
            if not len(more):
                break
            vr_zeros[more] &= last[more] == 0
            last[more] = digits[more] % 10
            digits[more] //= 10
            vm[more] //= 10
            removed[more] += 1
        up, tie, at_vm = last >= 5, vr_zeros & (last == 5), digits == vm
    digits += (at_vm & ~(accept & vm_zeros)) | (up & ~(tie & ((digits & 1) == 0)))
    return digits, _E10[e] + removed


# ---------------------------------------------------------------------------
# Layout and rows
# ---------------------------------------------------------------------------
#
# Each value fills a 32-byte slot, four native uint64 words whose memory
# holds the bytes in order. Bytes 0-23 are the number, right-aligned: the
# digits of an integer with a 0 at the decimal point's place, which becomes
# '.', and the sign in the byte before the first character. Bytes 24-28 are
# the tail: '0' after an integer's point, or 'e', the exponent's sign and
# its two or three digits. Byte 29 is the separator; NUL fills the rest.

_FIELD = 24
_EXP_MIN = -330                   # exponents run from -324 (5e-324) to 308
_NON_FINITE = 0x7FF << 53         # bits << 1 of +-inf


def _words(text):
    """`text`, NUL-padded to whole words, as native uint64 words."""
    raw = text.encode("ascii")
    return np.frombuffer(raw.ljust(-(-len(raw) // 8) * 8, b"\0"), dtype=np.uint64)


def _marks():
    """What to subtract from the field's '0' bytes, by (vanish, dot, first,
    negative): 48 (NUL) before the number, 3 ('-') just before it when
    negative, and 2 ('.') at the point, or 48 where a 1-digit mantissa has
    none."""
    k = np.arange(_FIELD)
    first = k[:, None, None]
    neg = np.arange(2)[:, None]
    before = (48 * (k < first - neg) + 3 * (neg * (k == first - 1))).astype(np.uint8)
    point = ((k == k[:, None]) * np.array([2, 48])[:, None, None]).astype(np.uint8)
    marks = point[:, :, None, None] + before       # [vanish, dot, first, neg, k]
    return np.pad(marks.view(np.uint64).reshape(-1, _FIELD // 8), ((0, 0), (0, 1)))


def _tails():
    """The tail words: none, the '0' after an integer's point, then for each
    exponent from _EXP_MIN on 'e', its sign and its digits, with NUL for a
    hundreds digit of 0."""
    tails = np.zeros((2 - 2 * _EXP_MIN, 8), dtype=np.uint8)
    tails[1, 0] = ord("0")
    exponent = np.arange(_EXP_MIN, -_EXP_MIN)
    tails[2:, 0] = ord("e")
    tails[2:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    tails[2:, 2:5] = abs(exponent)[:, None] // [100, 10, 1] % 10 + ord("0")
    tails[2:, 2] *= abs(exponent) >= 100
    return tails.view(np.uint64).ravel()


_DIGITS2 = np.frombuffer("".join(f"{g:02d}" for g in range(100)).encode(), np.uint8).reshape(100, 2)
_DIGITS4 = np.empty((100, 100, 4), dtype=np.uint8)   # '0000'..'9999' as uint32
_DIGITS4[:, :, :2] = _DIGITS2[:, None]
_DIGITS4[:, :, 2:] = _DIGITS2[None, :]
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
# Decimal digits of 2**b, by the biased exponent of the double 2**b; 1 for 0.
_DIGITS_OF_POW2 = np.ones(1023 + 65, dtype=np.intp)
_DIGITS_OF_POW2[1023:] = [len(str(1 << b)) for b in range(65)]
_MARKS = _marks()
_TAIL = _tails()
_TAIL_AT = len(_DIGITS4)
_CHARS = np.concatenate([_DIGITS4, _TAIL.view(np.uint32)])
_SPECIAL = np.array([
    np.concatenate([_words(text.rjust(_FIELD, "\0")), _words("\0")])
    for text in ("nan", "inf", "-inf")
])
_SEPARATOR = {sep: _words("\0" * 5 + sep)[0] for sep in ",\n"}
_ONE_BITS = np.float64(1.0).view(np.uint64)


def repr_slots(x):
    """(len(x), 4) uint64 slots holding repr(v) for each v of the float64
    array x, as laid out above, with the separator byte NUL."""
    bits = x.view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    magnitude = bits << 1
    odd = magnitude - 1 >= _NON_FINITE - 1           # +-0.0, +-inf, nan
    any_odd = odd.any()
    if any_odd:
        bits = np.where(odd, _ONE_BITS, bits)
    digits, exp10 = shortest_digits(bits)
    if any_odd:
        digits[odd] = 0
        exp10[odd] = 0
    # The double nearest `digits` has its binary exponent or the next one;
    # no power of 10 lies between, so one comparison gives the digit count.
    count = _DIGITS_OF_POW2[(digits.astype(np.float64).view(np.uint64) >> 52).astype(np.intp)]
    count += digits >= _POW10[count]
    point = exp10 + count               # the point follows this many digits
    sci = (point < -3) | (point > 16)
    whole = ~sci & (point >= count)
    after = np.maximum(count - point, 0)
    places = after + (count - 1 - after) * sci       # digits after the point
    value = digits * _POW10[(point - count) * whole]
    cut = _POW10[np.minimum(places, 19)]
    # value with a 0 digit inserted before its last `places` digits
    field = (value * 10 - (value - value // cut * cut) * 9).view(np.int64)
    dot = _FIELD - 1 - places
    lead = np.maximum(point, 1)
    first = dot - lead + (lead - 1) * sci            # the first character
    # Each slot gathers four digits per uint32 from _CHARS, then two uint32
    # of its tail, and loses the marks.
    high = field // 10**12
    low = field - high * 10**12
    mid = low // 10**8
    low -= mid * 10**8
    index = np.empty((8, len(x)), dtype=np.intp)
    index[0] = 0
    np.floor_divide(high, 10**4, out=index[1])
    np.subtract(high, index[1] * 10**4, out=index[2])
    index[3] = mid
    np.floor_divide(low, 10**4, out=index[4])
    np.subtract(low, index[4] * 10**4, out=index[5])
    np.add(_TAIL_AT, 2 * (whole + (point + 1 - _EXP_MIN) * sci), out=index[6])
    np.add(index[6], 1, out=index[7])
    slots = _CHARS.take(index.T).view(np.uint64)
    vanish = sci & (count == 1)
    slots -= np.take(_MARKS, ((vanish * _FIELD + dot) * _FIELD + first) * 2 + neg, axis=0)
    if any_odd:
        special = np.flatnonzero(magnitude >= _NON_FINITE)
        nan = magnitude[special] > _NON_FINITE
        slots[special] = _SPECIAL[np.where(nan, 0, 1 + neg[special])]
    return slots


def _text_table(names, sep):
    """(len(names), width + 1) uint8 cells of ASCII names, each followed by
    the separator and NUL-padded."""
    if any("\0" in name for name in names):
        raise ValueError("CSV text cells must not hold NUL")
    table = np.array([name + sep for name in names], dtype=bytes)
    return table.view(np.uint8).reshape(len(names), table.itemsize)


def csv_rows(columns):
    """The CSV text of the rows of `columns`, all of one length: a float64
    array's values as repr writes them, and a text column, a pair (codes,
    names) of ASCII names, as names[code] for each code."""
    seps = [","] * (len(columns) - 1) + ["\n"]
    numeric = [k for k, col in enumerate(columns) if isinstance(col, np.ndarray)]
    if numeric:
        slots = repr_slots(np.stack([columns[k] for k in numeric], axis=1).ravel())
        slots = slots.reshape(-1, len(numeric), 4)
        slots[:, :, 3] |= np.array([_SEPARATOR[seps[k]] for k in numeric], dtype=np.uint64)
    if len(numeric) == len(columns):
        cells = slots
    else:
        slot_of = {k: i for i, k in enumerate(numeric)}
        cells = np.concatenate([
            slots[:, slot_of[k]].view(np.uint8) if k in slot_of
            else _text_table(col[1], seps[k])[col[0]]
            for k, col in enumerate(columns)
        ], axis=1)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


# ---------------------------------------------------------------------------
# Reading: decimal to double
# ---------------------------------------------------------------------------

_Q_MIN, _Q_MAX = -342, 308        # beyond these, w * 10**q is 0 or inf for any w < 2**64


@functools.cache
def _pow5_128():
    """(high, low) uint64 words of 5**q scaled into [2**127, 2**128), for q
    from _Q_MIN to _Q_MAX: truncated for q >= 0, and for q < 0 one more than
    a quotient truncated to 128 bits, as Eisel-Lemire tabulates them."""
    words = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        p = 5 ** abs(q)
        if q < 0:
            z = p.bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
            c >>= max(c.bit_length() - 128, 0)
        else:
            c = p << 128 >> p.bit_length()
        words.append((c >> 64, c & _M64))
    return tuple(np.array(column, dtype=np.uint64) for column in zip(*words))


def nearest_doubles(w, q):
    """The Eisel-Lemire algorithm (D. Lemire, "Number Parsing at a Gigabyte
    per Second", Softw. Pract. Exp. 51, 2021) for uint64 digits w < 2**63
    and int64 decimal exponents q: (bits, redo), the uint64 bit patterns of
    the doubles nearest w * 10**q, ties to even, and a mask of the values it
    leaves to float(), whose bits are then undefined. Those are the values
    whose rounding the truncated product cannot settle, results below the
    normal range or above the finite one, and q outside [_Q_MIN, _Q_MAX].
    Only integer arithmetic and exact conversions are used."""
    high_table, low_table = _pow5_128()
    nonzero = w != 0
    k = np.clip(q, _Q_MIN, _Q_MAX)
    # Normalize w to a leading 1 bit. The double nearest w has w's binary
    # exponent or the next one up; one test tells them apart.
    lz = 1086 - (w.astype(np.float64).view(np.uint64) >> 52)
    w = w << lz
    more = (w >> 63) ^ 1
    w <<= more
    lz += more
    # The top 128 bits of w * 5**k, with the table's low word only where a
    # carry out of the low word could reach the 55 bits that are kept.
    high, low = _mul128(w, high_table[k - _Q_MIN])
    redo = k != q
    check = np.flatnonzero(((high & 0x1FF) == 0x1FF) & (low + w < low))
    if len(check):
        w2 = w[check]
        carry_high, carry_low = _mul128(w2, low_table[k[check] - _Q_MIN])
        low2 = low[check] + carry_high
        high2 = high[check] + (low2 < carry_high)
        high[check], low[check] = high2, low2
        redo[check] |= (low2 == _M64) & ((high2 & 0x1FF) == 0x1FF) & (carry_low + w2 < carry_low)
    upper = high >> 63
    shift = upper + 9
    mantissa = high >> shift                  # 53 bits and the rounding bit
    # A product with zeros below the rounding bit, but for the table's
    # rounding in the low word, may lie halfway between two doubles.
    redo |= (low <= 1) & ((mantissa << shift) == high) & ((mantissa & 3) == 1)
    mantissa += mantissa & 1
    mantissa >>= 1
    power2 = ((217706 * k) >> 16) + 1086 + upper.view(np.int64) - lz.view(np.int64)
    redo |= power2 <= 0
    power2 += (mantissa >> 53).view(np.int64)
    redo |= power2 >= 0x7FF
    bits = (mantissa & ((1 << _MANTISSA_BITS) - 1)) | (power2.view(np.uint64) << 52)
    return np.where(nonzero, bits, np.uint64(0)), redo & nonzero
