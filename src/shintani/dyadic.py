"""Dyadic interval arithmetic with certified outward rounding.

This is the single numeric kernel every sign decision in the library goes
through.  An interval stores its exact dyadic endpoints as two integer
mantissas over one shared exponent, so +, -, * are exact and need no
comparison of scales: only division, conversion from a general rational,
and the logarithm round.  They round outward, each endpoint to about prec
bits of its own value, so an endpoint never depends on how its interval
happens to be stored, nor a determinant on the order of its terms: the
cofactor expansion computes each minor once (:func:`iv_adjugate`).  The log
sums integer fixed-point series and rounds once (:func:`log_iv`): `Iv` has
no integer division.

Adaptive precision lives in one place, :class:`Ladder`: it owns the start
(64 bits), the doubling, the cap, and the error class raised when a
refinement would have to go past the cap.  Every refinement loop in the
library iterates a ladder.

The float roundoff model that every float error bound reads lives here
too: the unit roundoff U, the upward factor UP and :func:`gamma`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import PrecisionCapExceeded, UndecidableSign

START_PREC = 64
DEFAULT_PREC_CAP = 4096

# IEEE float64, round to nearest: fl(a op b) = (a op b)(1 + d), |d| <= U
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
# section 2.2).  A bound made of sums and products of nonnegative floats
# with k < 2^12 roundings comes out at least (1 - U)^k times its exact
# value, and (1 - U)^(2^12 + 1) UP > 1, so one more product with UP puts it
# above.
U = 2.0 ** -53
UP = 1.0 + 2.0 ** -40


def gamma(k: int) -> float:
    """gamma_k = k U / (1 - k U), for k U < 1: a product of k factors
    (1 + d)^(+-1), |d| <= U, is 1 + theta with |theta| <= gamma_k (Higham,
    Lemma 3.1)."""
    return k * U / (1 - k * U)


def _round_down(m: int, e: int, prec: int) -> tuple[int, int]:
    """Largest dyadic with <= prec mantissa bits that is <= m*2^e."""
    excess = m.bit_length() - prec
    if excess <= 0:
        return m, e
    return m >> excess, e + excess          # >> floors, also for m < 0


def _round_up(m: int, e: int, prec: int) -> tuple[int, int]:
    m, e = _round_down(-m, e, prec)
    return -m, e


def _fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _float_down(m: int, e: int) -> float:
    """Largest float64 <= m*2^e; -inf below the float range."""
    s = m.bit_length() - 53
    if s > 0:
        m, e = m >> s, e + s          # floor: still <= m*2^e, now 53 bits
    try:
        f = math.ldexp(m, e)          # exact unless below the normal range
    except OverflowError:
        return -math.inf if m < 0 else sys.float_info.max
    # subnormal or zero: ldexp rounded to nearest, so one step down reaches
    # a float <= m*2^e when it rounded up
    if abs(f) < sys.float_info.min and Fraction(f) > _fraction(m, e):
        f = math.nextafter(f, -math.inf)
    return f


def _frac_down(fr: Fraction, prec: int) -> tuple[int, int]:
    """Dyadic lower bound of a rational with about prec significant bits."""
    p, q = fr.numerator, fr.denominator
    if p == 0:
        return 0, 0
    e = p.bit_length() - q.bit_length() - prec
    if e >= 0:
        m = p // (q << e)
    else:
        m = (p << -e) // q
    return m, e


def _frac_up(fr: Fraction, prec: int) -> tuple[int, int]:
    m, e = _frac_down(-fr, prec)
    return -m, e


class Iv:
    """Closed interval [lo*2^e, hi*2^e] with exact dyadic endpoints: two
    integer mantissas over one exponent."""

    __slots__ = ("lo", "hi", "e")

    def __init__(self, lm: int, le: int, um: int, ue: int):
        """[lm*2^le, um*2^ue] over the smaller exponent; a zero mantissa
        takes the other's exponent, so it never lengthens the other."""
        if lm == 0:
            le = ue
        elif um == 0:
            ue = le
        if le <= ue:
            self.lo, self.hi, self.e = lm, um << (ue - le), le
        else:
            self.lo, self.hi, self.e = lm << (le - ue), um, ue

    # ---- constructors ----

    @staticmethod
    def from_fraction(fr: Fraction, prec: int) -> "Iv":
        q = fr.denominator
        if q & (q - 1) == 0:                 # power of two: exact
            return _iv(fr.numerator, fr.numerator, 1 - q.bit_length())
        return Iv.bounds(fr, fr, prec)

    @staticmethod
    def bounds(lo: Fraction, hi: Fraction, prec: int) -> "Iv":
        """[lo, hi] for rationals lo <= hi, each rounded outward to about
        prec bits of its own value."""
        lm, le = _frac_down(lo, prec)
        um, ue = _frac_up(hi, prec)
        return Iv(lm, le, um, ue)

    ZERO: "Iv"
    ONE: "Iv"

    # ---- arithmetic (exact) ----
    # An operand whose mantissas are both 0 is the identity of +: its
    # exponent is arbitrary and must not lengthen the other operand.

    def __add__(self, other: "Iv") -> "Iv":
        d = self.e - other.e
        if d >= 0:
            if d and not (other.lo or other.hi):
                return self
            return _iv((self.lo << d) + other.lo, (self.hi << d) + other.hi, other.e)
        if not (self.lo or self.hi):
            return other
        return _iv(self.lo + (other.lo << -d), self.hi + (other.hi << -d), self.e)

    def __neg__(self) -> "Iv":
        return _iv(-self.hi, -self.lo, self.e)

    def __sub__(self, other: "Iv") -> "Iv":
        return self + (-other)

    def __mul__(self, other: "Iv") -> "Iv":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        p, q, r, s = a * c, a * d, b * c, b * d
        return _iv(min(p, q, r, s), max(p, q, r, s), self.e + other.e)

    def mul_int(self, c: int) -> "Iv":
        if c >= 0:
            return _iv(self.lo * c, self.hi * c, self.e)
        return _iv(self.hi * c, self.lo * c, self.e)

    # ---- rounding: each endpoint to about prec bits of its own value ----

    def div(self, other: "Iv", prec: int) -> "Iv":
        """self / other, outward rounded; other must exclude 0."""
        if other.sign() not in (-1, 1):
            raise ZeroDivisionError("interval denominator contains 0")
        a, b = self.lo_fraction(), self.hi_fraction()
        c, d = other.lo_fraction(), other.hi_fraction()
        quots = (a / c, a / d, b / c, b / d)
        return Iv.bounds(min(quots), max(quots), prec)

    def round(self, prec: int) -> "Iv":
        lm, le = _round_down(self.lo, self.e, prec)
        um, ue = _round_up(self.hi, self.e, prec)
        return Iv(lm, le, um, ue)

    # ---- predicates / accessors ----

    def sign(self) -> int | None:
        """+1 if the interval is entirely > 0, -1 if < 0, 0 if it is the
        exact point 0, None if the sign is not determined."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None if self.lo or self.hi else 0

    def is_positive(self) -> bool:
        return self.lo > 0

    def contains(self, v: Fraction) -> bool:
        v = Fraction(v)
        return self.lo_fraction() <= v <= self.hi_fraction()

    def lo_fraction(self) -> Fraction:
        return _fraction(self.lo, self.e)

    def hi_fraction(self) -> Fraction:
        return _fraction(self.hi, self.e)

    def width_fraction(self) -> Fraction:
        return _fraction(self.hi - self.lo, self.e)

    def mid_fraction(self) -> Fraction:
        return _fraction(self.lo + self.hi, self.e - 1)

    def float_bounds(self) -> tuple[float, float]:
        """Outward float64 pair (lo, hi): lo <= every point <= hi.  Endpoints
        past the float range become -inf / +inf."""
        return _float_down(self.lo, self.e), -_float_down(-self.hi, self.e)

    def __repr__(self) -> str:
        return f"Iv[{float(self.lo_fraction()):.6g}, {float(self.hi_fraction()):.6g}]"


def _iv(lo: int, hi: int, e: int) -> Iv:
    """[lo*2^e, hi*2^e] as given: the constructor of the exact operations."""
    iv = object.__new__(Iv)
    iv.lo, iv.hi, iv.e = lo, hi, e
    return iv


Iv.ZERO = Iv(0, 0, 0, 0)
Iv.ONE = Iv(1, 0, 1, 0)


def iv_adjugate(rows: list[list[Iv]]) -> tuple[list[list[Iv]], Iv]:
    """(cof, det): cof[j][i] is the cofactor of entry (j, i), so that
    det(rows with column i replaced by v) = sum_j v_j cof[j][i].  Each
    minor, det included, is computed once, in one :func:`_minor` table."""
    idx, memo = tuple(range(len(rows))), {}
    cof = [[_minor(rows, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:], memo)
            .mul_int((-1) ** (i + j)) for i in idx] for j in idx]
    return cof, _minor(rows, idx, idx, memo)


def iv_det(rows: list[list[Iv]]) -> Iv:
    """Determinant by cofactor expansion along row 0."""
    idx = tuple(range(len(rows)))
    return _minor(rows, idx, idx, {})


def _minor(rows, rs, cs, memo):
    """det of the rows rs and columns cs (increasing tuples) along its first
    row, kept in memo; interval +, - and * are exact, so no sharing moves an
    endpoint.  The library's only cofactor loop."""
    if len(rs) <= 1:
        return rows[rs[0]][cs[0]] if rs else Iv.ONE
    key = rs, cs
    d = memo.get(key)
    if d is None:
        d = Iv.ZERO
        for p, c in enumerate(cs):
            t = rows[rs[0]][c] * _minor(rows, rs[1:], cs[:p] + cs[p + 1:], memo)
            d = d - t if p % 2 else d + t
        memo[key] = d
    return d


# ---- certified logarithm ----

def _atanh_fixed(num: int, den: int, w: int) -> tuple[int, int]:
    """(a, err): a <= 2^w atanh(tau) < a + err for tau = num/den in [0, 1/3],
    summing tau^(2j+1)/(2j+1) in w-bit fixed point (Brent and Zimmermann,
    Modern Computer Arithmetic, 2010, ch. 4).  Every step floors, so a is a
    lower bound.  Against P_j = 2^w tau^(2j+1): t = p_0 is short by less
    than 1, t2 of 2^w tau^2 by less than 2 tau + 1 <= 5/3, and p_j by
    e_j < e_(j-1) tau^2 + (5/3) tau + 1 <= e_(j-1)/9 + 14/9, so e_j < 2;
    each term by less than 2 + 1 = 3.  The loop stops at the first p_j = 0,
    after j + 1 terms, with P_j < 2, so the tail after it is below
    2 tau^2 / (3 (1 - tau^2)) <= 1/12 < 1."""
    if not num:
        return 0, 0
    t = (num << w) // den
    t2 = t * t >> w
    a = p = t
    j = 0
    while p:
        j += 1
        p = p * t2 >> w
        a += p // (2 * j + 1)
    return a, 3 * (j + 1) + 1


_LOG2_CACHE: dict[int, tuple[int, int]] = {}


def _log_fixed(m: int, e: int, prec: int) -> Iv:
    """Enclosure [lo, hi] 2^-w of log(m 2^e) for m > 0, unrounded.  With
    h = 2^(bits(m) - 1) and m 2^e = (m/h) 2^k, log(m 2^e) =
    2 atanh((m - h)/(m + h)) + k log 2, and log 2 = 2 atanh(1/3).  A series
    stops within w/3 + 1 steps, so err < 2w and hi - lo < 4w (1 + |k|): the
    guard bits of w keep that below 2^(w - prec - 8)."""
    s = m.bit_length()
    h = 1 << (s - 1)
    k = e + s - 1
    w = prec + 12 + prec.bit_length() + abs(k).bit_length()
    log2 = _LOG2_CACHE.get(w)
    if log2 is None:
        b, err = _atanh_fixed(1, 3, w)
        log2 = _LOG2_CACHE[w] = 2 * b, 2 * (b + err)
    a, err = _atanh_fixed(m - h, m + h, w)
    lo2, hi2 = log2 if k >= 0 else log2[::-1]
    return _iv(2 * a + k * lo2, 2 * (a + err) + k * hi2, -w)


def log_iv(x: Iv, prec: int) -> Iv:
    """Certified enclosure of log over a positive interval: one integer
    series per endpoint (one for an exact point), rounded once."""
    if not x.is_positive():
        raise ValueError("log over an interval not certified positive")
    lo = _log_fixed(x.lo, x.e, prec)
    hi = lo if x.hi == x.lo else _log_fixed(x.hi, x.e, prec)
    return Iv(lo.lo, lo.e, hi.hi, hi.e).round(prec + 4)


# ---- the precision ladder ----

class Ladder:
    """The precision schedule of every refinement: iterating yields
    ``start, 2*start, 4*start, ...`` clipped to ``cap``, so the last rung is
    the cap itself.  Asking for a rung past the cap raises UndecidableSign
    when ``zero_possible`` (the caller cannot rule out an exact zero of an
    irrational quantity), PrecisionCapExceeded otherwise.
    """

    __slots__ = ("cap", "what", "zero_possible", "start")

    def __init__(self, cap: int, what: str, zero_possible: bool = False,
                 start: int = START_PREC):
        self.cap = cap
        self.what = what
        self.zero_possible = zero_possible
        self.start = start

    def __iter__(self):
        prec = self.start
        while True:
            yield prec
            if prec >= self.cap:
                cls = UndecidableSign if self.zero_possible else PrecisionCapExceeded
                raise cls(f"{self.what}: not certified at {self.cap} bits")
            prec = min(2 * prec, self.cap)
