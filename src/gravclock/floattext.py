"""Exact ``'%.16e' % v`` text of float64 tables, many cells per numpy call.

Python formats each float with its own correctly rounded conversion, at
about a microsecond a cell.  :func:`format_table` instead writes a whole
table with a few dozen numpy calls per block of cells.  It follows the
fixed-precision fast path of Loitsch, "Printing floating-point numbers
quickly and accurately with integers" (PLDI 2010): each cell's 17 digits
come from a double-double product that carries an error bound, and a cell
whose rounding that bound cannot decide goes to Python's own ``%``.  So
every cell is byte for byte what ``'%.16e' % v`` gives.

For a nonzero finite x with E = floor(log10|x|), ``'%.16e' % x`` writes the
integer N = round(|x| 10^(16 - E)), 10^16 <= N < 10^17, as d.dddddddddddddddd
with exponent E.  Here |x| = m 2^q with m in [1/2, 1) from ``frexp``, and
10^(16 - E) = (hi + lo) 2^e with hi + lo in [1, 2) from a table built from
exact integers, within 2^-106 of the true ratio.  m hi is formed exactly
as a double-double (Dekker's product), m lo is rounded, and the sum is
renormalized: the result is within 2^-104 of m 10^(16 - E) 2^-e, which is
below 2.  Scaled by 2^(q + e) <= 2^58, N and its fractional part are known
to within 2^-46.  A cell is written from the product only when

- the fractional part lies more than ``_TIE_MARGIN`` = 2^-30 from 1/2, so the
  product rounds N the way the exact value does (this sends exact ties,
  which ``%`` rounds to even, to ``%``), and
- floor(N) >= 10^16 and the rounded N < 10^17, so the estimate of E, taken
  from ``log10``, is the exponent ``%`` writes.  (A floor(N) one below the
  true one near an integer is safe: it only fails this check, or rounds to
  the same N.)

Zeros, NaN and infinities go to ``%`` as well.
"""

from __future__ import annotations

import functools

import numpy as np

_CELL = len("-1.7976931348623157e+308")  # the longest '%.16e' text of a double
# cells per block: the work arrays stay ~250 kB whatever the table size (blocks of 4096
# cells, ~1 MB, raised the peak RSS of a run of 1000-row sweeps by ~0.7 MB)
_CHUNK_CELLS = 1024
_TIE_MARGIN = 2.0**-30  # the product's fractional part is good to 2^-46 (module docstring)
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 53-bit doubles
# 10^k for k = 16 - E; a nonzero double has E in [-324, 308], and the estimate is off by at most one
_K_MIN, _K_MAX = -330, 360
_E_MIN, _E_MAX = -330, 330
_E16, _E8, _E4 = 10**16, 10**8, 10**4


def _ascii_digits(values: np.ndarray, width: int) -> np.ndarray:
    """(len(values), width) ASCII digits of non-negative integers, zero-padded on the left.

    One digit at a time, so that no temporary is larger than `values`.
    """
    digits = np.empty((values.size, width), np.uint8)
    for j in range(width - 1, -1, -1):
        values, digits[:, j] = np.divmod(values, 10)
    digits += ord("0")
    return digits


@functools.cache  # built by the first table written, not at import
def _tables():
    """10^k as (hi_high, hi_low, lo, binary exponent); "dddd" and "sddd" texts as uint32."""
    hi, lo, exp = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num < den:
            num, e = num << 1, e - 1
        h = num / den  # num / den in [1, 2), correctly rounded
        hi.append(h)
        lo.append((num * 2**52 - int(h * 2**52) * den) / (den * 2**52))
        exp.append(e)
    hi = np.array(hi)
    split = _SPLIT * hi
    hi_high = split - (split - hi)

    digits4 = _ascii_digits(np.arange(_E4), 4).view(np.uint32).ravel()
    exps = np.arange(_E_MIN, _E_MAX + 1)
    exp4 = np.empty((exps.size, 4), np.uint8)
    exp4[:, 0] = np.where(exps < 0, ord("-"), ord("+"))
    exp4[:, 1:] = _ascii_digits(np.abs(exps), 3)
    exp4[np.abs(exps) < 100, 1] = 0  # two digits below 100, as '%' writes them
    return hi_high, hi - hi_high, np.array(lo), np.array(exp), digits4, exp4.view(np.uint32).ravel()


def format_table(values, cell_sep: str, row_sep: str, nonfinite_format: str = "%.16e") -> list[str]:
    """A 2-D float64 table as text, in pieces to be written or joined in order:
    each cell ``'%.16e' % v``, cells joined by `cell_sep` within a row and
    rows joined by `row_sep`.

    A NaN or infinite cell is ``nonfinite_format % v`` instead (JSON quotes
    them).  Separators are ASCII without NUL, and a non-finite cell's text
    is at most 24 characters.  A table with no rows gives no pieces.  The
    pieces are not joined here, so a caller that writes them holds the
    text once.
    """
    table = np.ascontiguousarray(values, dtype=np.float64)
    rows, width = table.shape
    if not rows:
        return []
    hi_high, hi_low, pow_lo, pow_exp, digits4, exp4 = _tables()
    cell_bytes, row_bytes = cell_sep.encode("ascii"), row_sep.encode("ascii")
    slot = _CELL + max(len(cell_bytes), len(row_bytes))
    # each cell is written into a NUL-padded slot of its own, followed by its separator
    seps = np.zeros((width, slot - _CELL), np.uint8)
    seps[:-1, : len(cell_bytes)] = np.frombuffer(cell_bytes, np.uint8)
    seps[-1, : len(row_bytes)] = np.frombuffer(row_bytes, np.uint8)

    slow_formats = np.array(("%.16e", nonfinite_format))  # picked by isfinite: no Python call per cell

    parts = []
    step = max(1, _CHUNK_CELLS // width)
    for start in range(0, rows, step):
        x = table[start : start + step].ravel()
        n = x.size
        exact = np.isfinite(x) & (x != 0.0)
        mag = np.abs(x)
        mag[~exact] = 1.0
        e10 = np.floor(np.log10(mag)).astype(np.int64)  # an estimate, checked below
        at = 16 - _K_MIN - e10
        # |x| 10^(16 - e10) as a double-double: m hi exactly (Dekker), plus m lo
        m, q = np.frexp(mag)
        split = _SPLIT * m
        m_high = split - (split - m)
        m_low = m - m_high
        h_high, h_low = hi_high[at], hi_low[at]
        prod = m * (h_high + h_low)
        err = (((m_high * h_high - prod) + m_high * h_low) + m_low * h_high) + m_low * h_low
        tail = err + m * pow_lo[at]
        head = prod + tail
        tail -= head - prod
        shift = q + pow_exp[at]
        head, tail = np.ldexp(head, shift), np.ldexp(tail, shift)
        # floor and fraction of head + tail; head is an integer wherever the cell can pass
        whole = np.floor(head)
        rest = (head - whole) + tail
        rest_whole = np.floor(rest)
        frac = rest - rest_whole
        digits = whole.astype(np.int64) + rest_whole.astype(np.int64)
        exact &= (digits >= _E16) & (np.abs(frac - 0.5) > _TIE_MARGIN)
        digits += frac > 0.5
        exact &= digits < 10 * _E16

        top, low8 = np.divmod(digits, _E8)
        lead, high8 = np.divmod(top.astype(np.uint32), _E8)
        groups = np.empty((n, 4), np.uint32)
        groups[:, 0], groups[:, 1] = np.divmod(high8, _E4)
        groups[:, 2], groups[:, 3] = np.divmod(low8.astype(np.uint32), _E4)
        buf = np.zeros((n, slot), np.uint8)
        buf[:, 0] = np.signbit(x) * ord("-")
        buf[:, 1] = lead + ord("0")
        buf[:, 2] = ord(".")
        buf[:, 3:19] = digits4[groups].view(np.uint8)
        buf[:, 19] = ord("e")
        buf[:, 20:_CELL] = exp4[e10 - _E_MIN].view(np.uint8).reshape(n, 4)
        buf.reshape(-1, width, slot)[:, :, _CELL:] = seps
        if start + step >= rows:
            buf[-1, _CELL:] = 0  # rows are joined: no separator after the last
        slow = x[~exact]
        if slow.size:
            formats = slow_formats[(~np.isfinite(slow)).astype(np.intp)].tolist()
            text = np.array(list(map(str.__mod__, formats, slow.tolist())), dtype=f"S{_CELL}")
            buf[~exact, :_CELL] = text.view(np.uint8).reshape(-1, _CELL)
        parts.append(buf.tobytes().replace(b"\0", b"").decode("ascii"))
    return parts
