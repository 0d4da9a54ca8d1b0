"""Signed fundamental domain construction and the orbit net-count verifier.

For each permutation of the units the generators are the partial products;
the cone sign is a ratio of determinant signs, and each face is half-open on
the side away from the distinguished basis vector e_n.  One generator pass
and one exact elimination per permutation give both the sign of the
generators' determinant and the exact inverse the cone keeps; every later
decision reads only the signs of cone coordinates.  The net-count
verifier enumerates, for a sample point x, every unit power that could land
in a cone (via a certified box in log coordinates) and adds up the signed
memberships; the theorem under test says the total is 1 for every positive x.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .dyadic import START_PREC, U, UP, Iv, Ladder, iv_adjugate
from .errors import InputError, NotTotallyPositive, UndecidableSign
from .exactlinalg import _eliminate, as_fraction, signed_inverse
from .field import FieldElement, NumberField, _perm_sign, common_denominator
from .geometry import adaptive_vector, coordinates, field_map, int_map

FLAG_CLOSED = "closed"   # coefficient >= 0; e_n on the generator's side
FLAG_OPEN = "open"       # coefficient > 0;  e_n on the far side


def _admits(c, flag: str) -> bool:
    """The half-open rule: a coordinate c, or its sign, passes the face flag."""
    return c > 0 or (c == 0 and flag == FLAG_CLOSED)


def colmez_generators(units, sigma, field: NumberField):
    """Partial products f_1 = 1, f_i = eps_{sigma(1)} ... eps_{sigma(i-1)}."""
    gens = [field.one]
    for i in range(field.degree - 1):
        gens.append(gens[-1] * units[sigma[i]])
    return gens


def _signed_cone(units, sigma, field: NumberField, reg_sign: int):
    """(generators, w_sigma, (A, m)) for one permutation, from one generator
    pass and one elimination of the coefficient matrix C, whose inverse is
    A / m (None when C is singular, and then w = 0).
    w_sigma = (-1)^(n-1) sgn(sigma) sign(det f) / sign(det Log eps): the
    embedded f is V C (V the conjugates of the power basis), and det V has
    the embedding order's parity."""
    n = field.degree
    gens = colmez_generators(units, sigma, field)
    det_sign, inverse = signed_inverse(*common_denominator(gens))
    w = (-1) ** (n - 1) * _perm_sign(sigma) * field.vandermonde_sign * det_sign * reg_sign
    return gens, w, inverse


class SignedCone:
    """One cone: permutation, generators, orientation sign, half-open flags,
    and the exact inverse (A, m) of the generators' coefficient matrix."""

    __slots__ = ("sigma", "generators", "w", "flags", "field", "inverse")

    def __init__(self, sigma, generators, w, field, inverse):
        self.sigma = tuple(sigma)
        self.generators = tuple(generators)
        self.w = w
        self.field = field
        self.inverse = inverse
        # e_n is off every face plane (no zero sign) and outside the cone (a face is open)
        e_n = (0,) * (field.degree - 1) + (1,)
        self.flags = tuple(FLAG_CLOSED if s > 0 else FLAG_OPEN
                           for s in coordinates(e_n, inverse, field, False))
        assert FLAG_OPEN in self.flags

    # ---- certified membership ----

    def _contains(self, v, cap=None) -> bool:
        """The half-open rule on the certified signs of v's cone coordinates."""
        return all(map(_admits, coordinates(v, self.inverse, self.field, cap=cap), self.flags))

    def contains_vector(self, vfn, cap=None) -> bool:
        """Membership for an adaptive vector ``vfn(prec) -> list of Iv``
        (certified): every coordinate sign is certified before the flags
        are read."""
        return self._contains(vfn, cap)

    def contains_element(self, x: FieldElement) -> bool:
        """Exact membership for a field-rational point: by the signs of A x."""
        return self._contains(x)

    def to_json(self):
        return {
            "sigma": [i + 1 for i in self.sigma],
            "w": self.w,
            "generators": [[_ratio_str(a, g.den) for a in g.num] for g in self.generators],
            "flags": list(self.flags),
        }


def _ratio_str(a: int, den: int) -> str:
    """str(Fraction(a, den)) for den > 0, without forming the Fraction."""
    g = math.gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


def cone_contains(cone: SignedCone, x) -> bool:
    """Membership of a strictly positive point in the half-open cone."""
    if isinstance(x, FieldElement):
        return cone.contains_element(x)
    return cone.contains_vector(adaptive_vector(x))


# ---- the float64 stage ----
#
# Candidate pruning and membership are decided in float64 first; whatever
# the float bounds cannot certify goes to the dyadic ladder (the interval
# filter of Shewchuk 1997 and Bronnimann, Burnikel and Pion 2001).  The
# stage computes with Python floats one scalar at a time: its vectors have
# n - 1 or n entries, too short for a vector library to repay its import
# and per-call cost, so `verify` loads nothing beyond the standard library.
# The arithmetic is IEEE round-to-nearest with unit roundoff u = 2^-53, and
# every bound rests on Higham's model (Accuracy and Stability of Numerical
# Algorithms, 2nd ed., 2002, section 2.2)
#     fl(a op b) = (a op b)(1 + d),  |d| <= u,                            (M)
# and two consequences of it: a product of k factors (1 + d_i)^(+-1) is
# 1 + theta_k with |theta_k| <= gamma_k = ku/(1 - ku) <= 2ku for ku <= 1/2
# (Lemmas 3.1 and 3.3), and a dot product of length m, in any order and with
# or without FMA, is off by at most gamma_m * sum |x_i y_i| (eq. 3.5).  The
# sums below run left to right from 0.0, so a sum over a prefix of the terms
# is the same float as the first steps of the full sum.
#
# (M) fails only for a product that underflows or overflows.  So every float
# that enters a product is 0 or of magnitude in [2^-300, 2^300]: _tame
# flushes smaller ones into their radius, unit powers, points and cofactors
# outside the range go to the ladder, and logs, exponents and the log-lattice
# data are far below 2^300 for any input that fits in memory (the inverse
# too: its determinant is n times the regulator of the units, and every
# regulator exceeds field._REGULATOR_MIN = 1/5, Friedman 1989).  No product meets more than
# three such factors and one constant >= 2^-53, so it is 0 or lies in
# [2^-953, 2^900], in the normal range.  A sum below the normal range is exact.
#
# Every radius is a sum of products of nonnegative floats.  Evaluated with
# k < 2^12 roundings its computed value is at least (1 - u)^k times the exact
# one, so one more product with UP gives an upper bound:
# (1 - u)^(k+1) (1 + 2^-40) >= (1 - 2^-41)(1 + 2^-40) > 1.

_SAFE = 2.0 ** -300


def _gamma(k: int) -> float:
    """An upper bound of gamma_k for ku <= 1/2, exact in floats."""
    return 2 * k * U


def _in_range(v) -> bool:
    """Every entry of v lies in [2^-300, 2^300] (false for inf and nan)."""
    return all(_SAFE <= c <= 1 / _SAFE for c in v)


def _tame(mid: float, rad: float) -> tuple[float, float]:
    """Flush a midpoint of magnitude below _SAFE to 0 and raise the radius
    to at least _SAFE; |q - mid| <= rad still holds: a flushed midpoint had
    |mid| < _SAFE <= rad, so doubling rad (exact) covers it."""
    rad = max(rad, _SAFE)
    if abs(mid) < _SAFE:
        return 0.0, 2 * rad
    return mid, rad


def _mid_rad(lo: float, hi: float) -> tuple[float, float]:
    """Float (mid, rad) of the float interval [lo, hi]: every point q of it
    has |q - mid| <= rad.  mid = fl(lo + hi) / 2 lies in [lo, hi] (rounding
    is monotone and 2 lo, 2 hi are floats); each of hi - mid and mid - lo is
    rounded once, so one nextafter step up bounds it."""
    mid = (lo + hi) / 2
    return _tame(mid, math.nextafter(max(hi - mid, mid - lo), math.inf))


def _mid_rad_rows(rows):
    """The (mid, rad) matrices of a matrix of Iv, by _mid_rad of each
    entry's outward float bounds."""
    pairs = [[_mid_rad(*iv.float_bounds()) for iv in row] for row in rows]
    return ([[m for m, _ in row] for row in pairs],
            [[r for _, r in row] for row in pairs])


def _positive_floats(ivs):
    """Lower float ends lo and one error count k for positive Iv's: every
    point of entry j is lo[j] (1 + theta) with 0 <= theta <= k u, so
    1 + theta = (1 + d)^k with 0 <= d <= u: a theta_k.  The relative width
    is rounded upward (nextafter after each rounded step); the division by
    u is exact.  When an end lies outside [2^-300, 2^300]
    the ends are replaced by 1 and k is inf, which defers every decision."""
    bounds = [iv.float_bounds() for iv in ivs]
    if not _in_range(c for b in bounds for c in b):
        return [1.0] * len(bounds), math.inf
    width = max(math.nextafter(math.nextafter(hi - lo, math.inf) / lo, math.inf)
                for lo, hi in bounds)
    return [lo for lo, _ in bounds], float(math.ceil(width / U))


_LOG2 = 0.6931471805599453      # the float nearest log 2: |_LOG2 - log 2| < 2^-54
_ATANH = [1.0 / (2 * j + 1) for j in range(10, -1, -1)]     # Horner order


def _log_float(m: int, e: int) -> tuple[float, float]:
    """(y, rad) with |log(m * 2^e) - y| <= rad, for an integer m > 0.

    m * 2^e = f * 2^k with f in [2^-1/2, 2^1/2], and log f = 2 atanh t with
    t = (f - 1)/(f + 1), |t| <= 3 - 2 sqrt2 < 0.1716.  The error budget, in
    the notation of the float-stage comment:
    - f^ = fl(f) = f (1 + theta_1) (int / int is correctly rounded), so
      |log f^ - log f| <= gamma_1;
    - f^ - 1 is exact (Sterbenz), so t^ = t (1 + theta_2) for
      t = (f^ - 1)/(f^ + 1), and |atanh t^ - atanh t| <= 1.04 gamma_2 |t^|
      (atanh' <= 1/(1 - 0.1716^2) < 1.031);
    - 11 series terms leave a tail below
      |t^| 0.1716^22 / (23 (1 - 0.1716^2)) < 2^-60 |t^|;
    - Horner on z^ = fl(t^2) with positive terms: coefficients theta_1,
      powers of z^ theta_10, 20 roundings, then the product with t^, so
      S^ = t^ P (1 + theta_32) with P <= 1.011;
    - fl(k _LOG2) = k log 2 (1 + theta_2) for |k| < 2^53; the last sum adds
      u (|A| + 2 |S^|) with A = fl(k _LOG2).
    In all |log - y| <= gamma_37 (1 + |A| + 2.1 |t^|) < 38 u (1 + |A| + 3 |t^|);
    the radius 2^-46 (1 + |A| + 3 |t^|) = 128 u (...) stays above that after
    its own 3 roundings.  |t^| is 0 or >= 2^-56 (f^ - 1 is a multiple of
    2^-54), so nothing underflows.
    """
    bits = m.bit_length()
    k = e + bits
    f = m / (1 << bits)                 # in [1/2, 1]
    if f < 0.7071067811865476:
        f, k = 2 * f, k - 1
    t = (f - 1) / (f + 1)
    z = t * t
    p = _ATANH[0]
    for c in _ATANH[1:]:
        p = p * z + c
    a = k * _LOG2
    return a + 2 * (t * p), 2.0 ** -46 * (1 + abs(a) + 3 * abs(t))


def _log_enclosure(iv: Iv) -> tuple[float, float]:
    """Float (mid, rad) with |log q - mid| <= rad on a positive interval:
    log q lies in [y_lo - rad_lo, y_hi + rad_hi]."""
    if not iv.is_positive():
        raise ValueError("log over an interval not certified positive")
    y, rad = _log_float(iv.lo, iv.e)
    y_hi, rad_hi = _log_float(iv.hi, iv.e)
    return y, UP * (abs(y_hi - y) + rad + rad_hi)


def _lattice_corners(d, target):
    """The exponent vectors a, in lexicographic order, whose log image
    mat a can meet the target box (mid, rad per coordinate): every integer
    point of the bounding box of the parallelotope inv (target) that is not
    certified to miss it."""
    im, ir = d["im"], d["ir"]
    r = len(target)
    ranges = []
    for im_row, ir_row in zip(im, ir):
        # exponent box = inv target: per term |im| tr + ir (|tm| + tr), plus
        # the dot product's gamma_r |im| |tm|
        cm = rad = err = 0.0
        for (tm, tr), m, mr in zip(target, im_row, ir_row):
            cm += tm * m
            rad += (tr + _gamma(r) * abs(tm)) * abs(m)
            err += (abs(tm) + tr) * mr
        cr = UP * (rad + err)
        # one rounding each, so one nextafter step outward encloses the ends
        ranges.append(range(math.ceil(math.nextafter(cm - cr, -math.inf)),
                            math.floor(math.nextafter(cm + cr, math.inf)) + 1))
    # The corner's log image mat a has centre fl(sum_i lm[k][i] a_i) and
    # radius fl(sum_i q[k][i] |a_i|); it meets the target iff the centres
    # differ by at most the sum of the radii; the difference is rounded
    # once, inside UP.  Both sums are built one exponent at a time, so the
    # corners of one prefix share its partial sums.
    cols = d["log_cols"]
    out = []

    def extend(i, prefix, cen, rad):
        lm_col, q_col = cols[i]
        if i < r - 1:
            for a in ranges[i]:
                extend(i + 1, prefix + (a,), [s + m * a for s, m in zip(cen, lm_col)],
                       [s + q * abs(a) for s, q in zip(rad, q_col)])
            return
        for a in ranges[i]:
            for c, m, w, q, (tm, tr) in zip(cen, lm_col, rad, q_col, target):
                if not abs(c + m * a - tm) <= UP * (UP * (w + q * abs(a)) + tr):
                    break
            else:
                out.append(prefix + (a,))

    extend(0, (), [0.0] * r, [0.0] * r)
    return out


def _orbit_floats(xf, count, a, top, tables):
    """(v, rho) for v = fl(x prod_i eps_i^(a_i)) from the power tables: the
    exact vector is v (1 + theta) with |theta| <= rho = 2 count u, count
    being x's count and the r products (passed in) plus each power's count;
    count <= 2^40 keeps count u <= 1/2.  None when a factor or a partial
    product leaves [2^-300, 2^300], or the count exceeds 2^40."""
    v = xf
    for ai, (rows, counts) in zip(a, tables):
        row = rows[ai + top]
        if row is None:
            return None
        v = [c * e for c, e in zip(v, row)]
        count += counts[ai + top]
        if not _in_range(v):
            return None
    if not count <= 2.0 ** 40:
        return None
    return v, 2 * U * count


class SignedDomain:
    """The collection {(C_sigma, w_sigma)} for one (field, units) input."""

    def __init__(self, field: NumberField, units, cones, reg_sign: int):
        self.field = field
        self.units = tuple(units)
        self.cones = tuple(cones)
        self.reg_sign = reg_sign
        self._power_cache: dict[tuple, FieldElement] = {}
        self._enum = None
        self._member = None
        self._powers = (-1, None)

    # ---- exact unit powers (ladder fallback) ----

    def unit_power(self, expo) -> FieldElement:
        elem = self._power_cache.get(expo)
        if elem is None:
            elem = self.field.one
            for u, a in zip(self.units, expo):
                if a:
                    elem = elem * u ** int(a)
            self._power_cache[expo] = elem
        return elem

    def _power_embedding(self, expo, prec):
        return self.field.embed_iv(self.unit_power(expo), prec)

    # ---- candidate enumeration ----

    def _enum_data(self):
        """Projected-log lattice data as float (mid, rad) pairs of START_PREC
        enclosures: the LOG l(eps) matrix, its inverse and the distinct
        coordinatewise log-range boxes of the cones' projected generators,
        each with the indices of the cones that share it."""
        if self._enum is not None:
            return self._enum
        field = self.field
        prec = START_PREC
        r = field.degree - 1

        for p in Ladder(field.prec_cap, "log-matrix determinant", start=prec):
            rows = field.unit_logs(self.units, p)
            mat = [[row[j] - row[-1] for row in rows] for j in range(r)]
            cof, det = iv_adjugate(mat)
            if det.sign() is not None:
                break
        # inverse enclosure = adjugate / det, the adjugate being cof transposed
        inv = [[cof[j][i].div(det, prec) for j in range(r)] for i in range(r)]
        # The generators are f_1 = 1 and f_{i+1} = f_i eps_sigma(i), so the
        # log ratios of f_{i+1} are partial sums of the columns sigma(1..i)
        # of mat; interval sums are exact, and those of f_1 are 0.  The
        # enumeration reads nothing of a cone but its float box, so cones
        # with equal boxes share one.
        boxes = {}
        for c, cone in enumerate(self.cones):
            acc = [Iv.ZERO] * r
            los, his = [0.0] * r, [0.0] * r
            for i in cone.sigma:
                acc = [s + mat[k][i] for k, s in enumerate(acc)]
                for k, s in enumerate(acc):
                    lo, hi = s.float_bounds()
                    los[k], his[k] = min(los[k], lo), max(his[k], hi)
            box = tuple(map(_mid_rad, los, his))
            boxes.setdefault(box, []).append(c)
        lm, lr = _mid_rad_rows(mat)
        im, ir = _mid_rad_rows(inv)
        q = [[UP * (rad + _gamma(r) * abs(m)) for m, rad in zip(mrow, rrow)]
             for mrow, rrow in zip(lm, lr)]
        self._enum = {
            # per column i of mat, its centres lm[k][i] and, per unit of
            # |a_i|, the radius q[k][i] of fl(sum_i lm[k][i] a_i) around
            # sum_i mat[k][i] a_i: data radius plus the dot product's gamma_r
            "log_cols": list(zip(zip(*lm), zip(*q))),
            "im": im, "ir": ir,
            "boxes": list(boxes.items()),
        }
        return self._enum

    def candidate_exponents(self, x):
        """Per cone, the list of every exponent vector a (a tuple of ints)
        for which eps^a * x can lie in the closed cone (a certified
        superset), in increasing lexicographic order.  Cones with the same
        log-range box share one enumeration and one list.  x must be
        totally positive (NotTotallyPositive otherwise): a field element by
        its certified conjugates, a coordinate vector of n entries
        (InputError otherwise) entry by entry."""
        field = self.field
        r = field.degree - 1
        if isinstance(x, FieldElement):
            conj = field._positive_conjugates(x, START_PREC)
            ratios = [conj[k].div(conj[-1], START_PREC) for k in range(r)]
        else:
            seq = list(map(as_fraction, x))
            if len(seq) != field.degree:
                raise InputError(f"need n = {field.degree} coordinates, got {len(seq)}")
            if any(c <= 0 for c in seq):
                raise NotTotallyPositive(f"{list(x)!r} has a coordinate <= 0")
            ratios = [Iv.from_fraction(c / seq[-1], START_PREC) for c in seq[:-1]]
        logx = [_tame(*_log_enclosure(v)) for v in ratios]
        d = self._enum_data()
        out = [None] * len(self.cones)
        for box, members in d["boxes"]:
            # target = box - log x; the centre is rounded once, so it is off
            # by at most u |bm - ym| <= u (|bm| + |ym|)
            target = [_tame(bm - ym, UP * (br + yr + U * (abs(bm) + abs(ym))))
                      for (bm, br), (ym, yr) in zip(box, logx)]
            cands = _lattice_corners(d, target)
            for c in members:
                out[c] = (self.cones[c], cands)
        return out

    # ---- float membership ----

    def _member_data(self):
        """Per unit, the float conjugates of eps_i and eps_i^-1 with their
        error counts; per cone and cone coordinate i, the (mid, rad, |mid|)
        triples of C[j][i] = sum_k cof[j][k] A[i][k] (cof of the field map
        at START_PREC, A of the cone) with the sign of det V folded in, or
        None when some entry is out of float range."""
        if self._member is None:
            field = self.field
            units = [(_positive_floats(field._positive_conjugates(u, START_PREC)),
                      _positive_floats(field._positive_conjugates(u.inverse(), START_PREC)))
                     for u in self.units]
            cof = field_map(field).adjugate(START_PREC)[0]
            sign = field.vandermonde_sign
            cofactors = []
            for c in self.cones:
                cm, cr = _mid_rad_rows([int_map(c.inverse[0], row) for row in cof])
                cols = [[(m * sign, rad, abs(m)) for m, rad in zip(mcol, rcol)]
                        for mcol, rcol in zip(zip(*cm), zip(*cr))]
                usable = all(abs(m) <= 1 / _SAFE and rad <= 1 / _SAFE
                             for col in cols for m, rad, _ in col)
                cofactors.append(cols if usable else None)
            self._member = (units, cofactors)
        return self._member

    def _power_floats(self, top: int):
        """Per unit i, float conjugates of eps_i^a for a = -top..top (row
        a + top), by repeated multiplication, each with its error count
        |a| (k + 1); a row outside [2^-300, 2^300] is None.  Powers are
        monotone in a, so a row in range was built from rows in range.
        Tables grow geometrically."""
        have, tables = self._powers
        if have >= top:
            return have, tables
        top = max(top, 2 * have)
        units, _ = self._member_data()
        one = [1.0] * self.field.degree
        tables = []
        for (up, kup), (dn, kdn) in units:
            pos, neg = [one], [one]
            for _ in range(top):
                pos.append([p * e for p, e in zip(pos[-1], up)])
                neg.append([p * e for p, e in zip(neg[-1], dn)])
            rows = [row if _in_range(row) else None for row in neg[:0:-1] + pos]
            counts = [a * (kdn + 1) for a in range(top, 0, -1)] + [0.0] + \
                [a * (kup + 1) for a in range(1, top + 1)]
            tables.append((rows, counts))
        self._powers = (top, tables)
        return self._powers

    def _float_verdicts(self, x, per_cone):
        """Per cone, a list of ints over its candidates: 1 when eps^a x is
        certified inside (every cone coordinate > 0), 0 when certified
        outside (some coordinate < 0), -1 when the float bound cannot tell
        (exact zeros, and with them every open/closed-flag case).  Each
        eps^a x is computed once and shared by every cone."""
        field = self.field
        n = field.degree
        if isinstance(x, FieldElement):
            xf, kx = _positive_floats(field._positive_conjugates(x, START_PREC))
        else:
            xf, kx = _positive_floats([Iv.from_fraction(as_fraction(c), START_PREC) for c in x])
        _, cofactors = self._member_data()
        top, tables = self._power_floats(
            max((abs(e) for _, cands in per_cone for a in cands for e in a), default=0))
        gamma_n = _gamma(n)
        orbit = {}
        out = []
        for (_, cands), cols in zip(per_cone, cofactors):
            verdicts = []
            for a in cands:
                if a not in orbit:
                    orbit[a] = _orbit_floats(xf, kx + n - 1, a, top, tables)
                point = orbit[a]
                if cols is None or point is None:
                    verdicts.append(-1)
                    continue
                v, rho = point
                # Coordinate i of the exact vector is
                # sum_j v_j (1 + theta_j) C[j][i], the computed one
                # fl(sum_j v_j cm[j][i]), and they differ by at most
                #   sum_j v_j ((1 + rho) cr[j][i] + (rho + gamma_n) |cm[j][i]|).
                verdict = 1
                for col in cols:
                    coord = rad = mag = 0.0
                    for vj, (m, cr, am) in zip(v, col):
                        coord += vj * m
                        rad += vj * cr
                        mag += vj * am
                    bound = UP * ((1 + rho) * rad + (rho + gamma_n) * mag)
                    if coord < -bound:
                        verdict = 0
                        break
                    if not coord > bound:
                        verdict = -1
                verdicts.append(verdict)
            out.append(verdicts)
        return out

    def __getstate__(self):
        raise TypeError("SignedDomain is rebuilt per process, not pickled")


def build_signed_domain(units, field: NumberField) -> SignedDomain:
    """Compute all cone signs and half-open flags, and drop the degenerate
    (w = 0) cones.  The units are checked by the regulator sign
    (NumberField.check_units; DependentUnits for dependent units)."""
    units = [field.element_like(u) for u in units]
    return _signed_domain(units, field, field.signed_regulator_sign(units))


def _signed_domain(units, field: NumberField, reg_sign: int) -> SignedDomain:
    """`build_signed_domain` of units whose regulator sign the caller certified."""
    cones = []
    for sigma in itertools.permutations(range(field.degree - 1)):
        gens, w, inverse = _signed_cone(units, sigma, field, reg_sign)
        if w != 0:
            cones.append(SignedCone(sigma, gens, w, field, inverse))
    return SignedDomain(field, units, cones, reg_sign)


# Eliminations `cheapest_basis` may spend, (n - 1)! per basis, in whole sweeps of
# its moves: 8 at n = 3, 144 at n = 4, 2496 at n = 5, so none at n >= 5.
_SEARCH_ELIMINATIONS = 600


def _basis_cost(units, field: NumberField, bound) -> int | Fraction | None:
    """sum over sigma of |det C_sigma|, C_sigma the coefficient matrix of
    the cone's generators (a sum's R-set points per unit covolume), or
    None once a partial sum reaches the bound.  The generators are the
    products over prefix sets of sigma, each formed once (without 1)."""
    prods = [field.one]             # prods[k]: the product over the bits of k
    for u in units:
        prods += [u] + [p * u for p in prods[1:]]
    total = 0
    for sigma in itertools.permutations(range(len(units))):
        masks = itertools.accumulate(1 << i for i in sigma)
        mat, d = common_denominator([prods[m] for m in masks])
        # C's first column is f_1 = 1 = e_1: det C is that of the minor without it
        det = abs(_eliminate(mat[1:], False)[1])
        total += det if d == 1 else Fraction(det, d ** (len(mat) - 1))
        if total >= bound:
            return None
    return total


def cheapest_basis(units, field: NumberField) -> list:
    """The basis of the group the units generate that greedy descent on
    `_basis_cost` reaches: moves eps_i <- eps_i prod_(j != i) eps_j^(a_j),
    a_j in {-1, 0, 1}, in a fixed order, each kept only when the cost
    strictly falls, until a sweep keeps none or the next would pass
    _SEARCH_ELIMINATIONS.  A move adds other rows of the unit-log matrix to
    row i: the group, signed regulator, total positivity, order and class
    mod f stay.  The caller checks the units."""
    units = [field.element_like(u) for u in units]
    r = len(units)
    spent = math.factorial(r)
    sweep = spent * r * (3 ** (r - 1) - 1)          # r! eliminations per move
    if not sweep or spent + sweep > _SEARCH_ELIMINATIONS:
        return units
    moves = [(i, a) for i in range(r) for a in itertools.product((0, 1, -1), repeat=r)
             if a[i] == 0 and any(a)]
    best, kept = _basis_cost(units, field, math.inf), True
    while kept and spent + sweep <= _SEARCH_ELIMINATIONS:
        spent, kept = spent + sweep, False
        powers = [{1: u, -1: u.inverse()} for u in units]
        for i, a in moves:
            trial = math.prod((powers[j][e] for j, e in enumerate(a) if e), start=units[i])
            cost = _basis_cost(units[:i] + [trial] + units[i + 1:], field, best)
            if cost is not None:
                best, units[i], kept = cost, trial, True
                powers[i] = {1: trial, -1: trial.inverse()}
    return units


def is_true_domain(dom: SignedDomain) -> bool:
    """True when no cone carries weight -1 (then the union is a true
    fundamental domain)."""
    return all(c.w == 1 for c in dom.cones)


def orbit_net_count(dom: SignedDomain, x):
    """Signed number of intersections of the unit orbit of x with the cones:
    sum over cones of w * #(hits).  Returns (count, hits) with the hit list
    of (sigma, exponent vector) pairs.  The float stage decides most
    candidates; the rest go to the certified ladder."""
    per_cone = dom.candidate_exponents(x)
    verdicts = dom._float_verdicts(x, per_cone)
    exact = isinstance(x, FieldElement)
    if not exact:
        seq = list(map(as_fraction, x))
    hits = []
    total = 0
    for (cone, cands), verdict in zip(per_cone, verdicts):
        for a, v in zip(cands, verdict):
            if not v:                           # certified outside
                continue
            if v > 0:
                inside = True
            elif exact:
                inside = cone.contains_element(dom.unit_power(a) * x)
            else:
                def vfn(prec, a=a):
                    emb = dom._power_embedding(a, prec)
                    return [e * Iv.from_fraction(c, prec) for e, c in zip(emb, seq)]

                inside = cone.contains_vector(vfn)
            if inside:
                hits.append((cone.sigma, a))
                total += cone.w
    return total, hits


# Resamples allowed per verify point before it is reported undecidable
_MAX_RETRIES = 5


def sample_point(seed, index: int, retry: int, n: int):
    """Deterministic strictly positive sample, log-uniform per coordinate."""
    rng = random.Random(f"{seed}:{index}:{retry}")
    return tuple(Fraction(math.exp(rng.uniform(-3.0, 3.0))) for _ in range(n))


def verify_net_counts(dom: SignedDomain, samples: int, seed, start: int = 0):
    """Run the net-count check on deterministic random points; points whose
    membership hits an undecidable sign are resampled (boundary events have
    probability zero, so this only absorbs adversarial precision cases).
    ``start`` offsets the sample indices so workers can split a run."""
    n = dom.field.degree
    failures = []
    resamples = 0
    for i in range(start, start + samples):
        for retry in range(_MAX_RETRIES + 1):
            x = sample_point(seed, i, retry, n)
            try:
                count, hits = orbit_net_count(dom, x)
            except UndecidableSign:
                resamples += 1
                continue
            if count != 1:
                failures.append({"index": i, "x": [float(c) for c in x],
                                 "count": count,
                                 "hits": [[list(s), list(a)] for s, a in hits]})
            break
        else:
            failures.append({"index": i, "x": None, "count": None,
                             "hits": [], "error": "undecidable after retries"})
    return {"ok": not failures, "samples": samples, "failures": failures,
            "resamples": resamples}
