"""Dyadic interval arithmetic with certified outward rounding.

This is the single numeric kernel every sign decision in the library goes
through.  An interval stores its exact dyadic endpoints as two integer
mantissas over one shared exponent, so +, -, * are exact and need no
comparison of scales: only division, conversion from a general rational,
and the logarithm round.  They round outward, each endpoint to about prec
bits of its own value, so an endpoint never depends on how its interval
happens to be stored, nor a determinant on the order of its terms: the
cofactor expansion computes each minor once (:func:`iv_adjugate`).

Adaptive precision lives in one place, :class:`Ladder`: it owns the start
(64 bits), the doubling, the cap, and the error class raised when a
refinement would have to go past the cap.  Every refinement loop in the
library iterates a ladder; :func:`adaptive_sign` is its simplest consumer.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable

from .errors import PrecisionCapExceeded, UndecidableSign

START_PREC = 64
DEFAULT_PREC_CAP = 4096


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

    def scale2(self, k: int) -> "Iv":
        return _iv(self.lo, self.hi, self.e + k)

    # ---- rounding: each endpoint to about prec bits of its own value ----

    def div(self, other: "Iv", prec: int) -> "Iv":
        """self / other, outward rounded; other must exclude 0."""
        if other.sign() not in (-1, 1):
            raise ZeroDivisionError("interval denominator contains 0")
        a, b = self.lo_fraction(), self.hi_fraction()
        c, d = other.lo_fraction(), other.hi_fraction()
        quots = (a / c, a / d, b / c, b / d)
        return Iv.bounds(min(quots), max(quots), prec)

    def div_int(self, c: int, prec: int) -> "Iv":
        lo, hi = Fraction(self.lo, c), Fraction(self.hi, c)
        if c < 0:
            lo, hi = hi, lo
        return Iv.bounds(lo, hi, prec).scale2(self.e)

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

_LOG2_CACHE: dict[int, Iv] = {}


def _atanh_series(t: Iv, w: int) -> Iv:
    """Enclosure of atanh(t) for 0 <= t <= 1/3, working at w bits."""
    # terms decay like 3^-(2k+1); pick K so the tail is below 2^-(w+1)
    if not (t.lo or t.hi):
        return Iv.ZERO
    K = max(1, int(w * 0.3155) + 2)
    t2 = (t * t).round(w)
    p = t
    acc = t
    for k in range(1, K + 1):
        p = (p * t2).round(w)
        acc = acc + p.div_int(2 * k + 1, w)
    # tail <= t^(2K+3)/(2K+3) * 1/(1-t^2) <= (1/3)^(2K+3) * 9/8 <= 2^-(w+1)
    tail = Iv(0, 0, 1, -(w + 1))
    return acc + tail


def log2_iv(prec: int) -> Iv:
    """Certified enclosure of log 2."""
    iv = _LOG2_CACHE.get(prec)
    if iv is None:
        w = prec + 8
        third = Iv.ONE.div_int(3, w)
        iv = _atanh_series(third, w).scale2(1).round(prec + 4)
        _LOG2_CACHE[prec] = iv
    return iv


def _log_dyadic(m: int, e: int, prec: int) -> Iv:
    """Enclosure of log(m * 2^e) for m > 0."""
    w = prec + 8
    s = m.bit_length()
    k = e + s - 1                      # m*2^e = f * 2^k with f in [1,2)
    # f = m / 2^(s-1); t = (f-1)/(f+1) = (m - 2^(s-1)) / (m + 2^(s-1))
    half = 1 << (s - 1)
    t = Iv.from_fraction(Fraction(m - half, m + half), w)
    logf = _atanh_series(t, w).scale2(1)
    return logf + log2_iv(w).mul_int(k)


def log_iv(x: Iv, prec: int) -> Iv:
    """Certified enclosure of log over a positive interval."""
    if not x.is_positive():
        raise ValueError("log over an interval not certified positive")
    lo = _log_dyadic(x.lo, x.e, prec)
    if x.lo == x.hi:
        return lo.round(prec + 4)
    hi = _log_dyadic(x.hi, x.e, prec)
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


def adaptive_sign(
    evaluate: Callable[[int], Iv],
    cap: int = DEFAULT_PREC_CAP,
    zero_possible: bool = False,
    what: str = "sign",
) -> int:
    """Certify the sign of a quantity given an interval evaluator.

    ``evaluate(prec)`` must return an enclosure that (weakly) shrinks as prec
    grows; the precisions and the error at the cap are the ladder's.
    """
    for prec in Ladder(cap, what, zero_possible):
        s = evaluate(prec).sign()
        if s is not None:
            return s
