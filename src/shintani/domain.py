"""Signed fundamental domain construction and the orbit net-count verifier.

For each permutation of the units the generators are the partial products;
the cone sign is a ratio of determinant signs, and each face is half-open on
the side away from the distinguished basis vector e_n.  The net-count
verifier enumerates, for a sample point x, every unit power that could land
in a cone (via a certified box in log coordinates) and adds up the signed
memberships; the theorem under test says the total is 1 for every positive x.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .dyadic import START_PREC, Iv, Ladder, iv_adjugate, log_iv
from .errors import (
    DependentUnits,
    NotAUnit,
    NotTotallyPositive,
    UndecidableSign,
)
from .field import FieldElement, NumberField, _perm_sign, frac_to_str
from .geometry import (
    IvVec,
    Simplex,
    barycentric,
    basis_det_sign,
    basis_map,
    cone_coordinates,
)

FLAG_CLOSED = "closed"   # coefficient >= 0; e_n on the generator's side
FLAG_OPEN = "open"       # coefficient > 0;  e_n on the far side


def _admits(sign: int, flag: str) -> bool:
    """The half-open rule: a coordinate of this sign passes the face flag."""
    return sign > 0 or (sign == 0 and flag == FLAG_CLOSED)


def colmez_generators(units, sigma, field: NumberField):
    """Partial products f_1 = 1, f_i = eps_{sigma(1)} ... eps_{sigma(i-1)}."""
    gens = [field.one]
    for i in range(field.degree - 1):
        gens.append(gens[-1] * units[sigma[i]])
    return gens


def cone_sign(units, sigma, field: NumberField, reg_sign: int | None = None) -> int:
    """w_sigma = (-1)^(n-1) sgn(sigma) sign(det f) / sign(det Log eps)."""
    if reg_sign is None:
        reg_sign = field.signed_regulator_sign(units)
    if reg_sign == 0:
        raise DependentUnits("units are multiplicatively dependent")
    gens = colmez_generators(units, sigma, field)
    det = basis_det_sign(gens, field)
    if det == 0:
        return 0
    n = field.degree
    return (-1) ** (n - 1) * _perm_sign(sigma) * det * reg_sign


class SignedCone:
    """One cone: permutation, generators, orientation sign, half-open flags."""

    __slots__ = ("sigma", "generators", "w", "flags", "field", "_map", "_simplex")

    def __init__(self, sigma, generators, w, flags, field):
        self.sigma = tuple(sigma)
        self.generators = tuple(generators)
        self.w = w
        self.flags = tuple(flags)
        self.field = field
        self._map = basis_map(self.generators, field)
        self._simplex = None

    # ---- certified membership ----

    def contains_vector(self, vfn, cap=None) -> bool:
        """Membership for an adaptive vector evaluator (certified).  Each
        rung tests the still-undecided coordinates in order and returns at
        the first failed flag."""
        cmap = self._map
        pending = range(self.field.degree)
        for prec in Ladder(self.field.prec_cap if cap is None else cap,
                           "cone membership sign", zero_possible=True):
            v = vfn(prec)
            undecided = []
            for i in pending:
                s = cmap.numerator(v, i, prec).sign()
                if s is None:
                    undecided.append(i)
                elif not _admits(s * cmap.det_sign, self.flags[i]):
                    return False
            if not undecided:
                return True
            pending = undecided

    def contains_element(self, x: FieldElement) -> bool:
        """Exact membership for a field-rational point."""
        coords = cone_coordinates(x, self.generators, self.field)
        return all(map(_admits, coords.signs, self.flags))

    def to_json(self):
        return {
            "sigma": [i + 1 for i in self.sigma],
            "w": self.w,
            "generators": [[frac_to_str(c) for c in g.coeffs] for g in self.generators],
            "flags": list(self.flags),
        }


def cone_contains(cone: SignedCone, x, field: NumberField | None = None) -> bool:
    """Membership of a strictly positive point in the half-open cone."""
    if isinstance(x, FieldElement):
        return cone.contains_element(x)
    vv = IvVec.wrap(x)
    return cone.contains_vector(vv.at)


def projected_simplex(cone: SignedCone) -> Simplex:
    """The simplex cut out of the hyperplane slice by the cone (vertices are
    the projected generators); cached per cone."""
    if cone._simplex is None:
        field = cone.field

        def rows_fn(prec):
            verts = []
            for g in cone.generators:
                conj = field._positive_conjugates(g, prec)
                verts.append([c.div(conj[-1], prec) for c in conj[:-1]])
            return verts

        cone._simplex = Simplex(rows_fn=rows_fn, known_sign=None,
                                cap=field.prec_cap)
    return cone._simplex


def cone_contains_via_simplex(cone: SignedCone, x) -> bool:
    """Independent membership route: project to the hyperplane slice and test
    the half-open simplex via barycentric signs (same flag per vertex)."""
    field = cone.field
    simplex = projected_simplex(cone)

    if isinstance(x, FieldElement):
        def pfn(prec):
            conj = field._positive_conjugates(x, prec)
            return [c.div(conj[-1], prec) for c in conj[:-1]]
        p = IvVec(pfn)
    else:
        seq = tuple(Fraction(c) for c in x)
        p = tuple(c / seq[-1] for c in seq[:-1])
    coords = barycentric(p, simplex, cap=field.prec_cap)
    return all(map(_admits, coords.signs, cone.flags))


# ---- the float64 stage ----
#
# Only this stage computes with NumPy, and each of its functions imports it
# where it runs, so building a domain (`cones`) does not load NumPy.
#
# Candidate pruning and membership are decided in float64 first; whatever
# the float bounds cannot certify goes to the dyadic ladder (the interval
# filter of Shewchuk 1997 and Bronnimann, Burnikel and Pion 2001).  The
# arithmetic is IEEE round-to-nearest with unit roundoff u = 2^-53, and every
# bound rests on Higham's model (Accuracy and Stability of Numerical
# Algorithms, 2nd ed., 2002, section 2.2)
#     fl(a op b) = (a op b)(1 + d),  |d| <= u,                            (M)
# and two consequences of it: a product of k factors (1 + d_i)^(+-1) is
# 1 + theta_k with |theta_k| <= gamma_k = ku/(1 - ku) <= 2ku for ku <= 1/2
# (Lemmas 3.1 and 3.3), and a dot product of length m, in any order and with
# or without FMA, is off by at most gamma_m * sum |x_i y_i| (eq. 3.5).
#
# (M) fails only for a product that underflows or overflows.  So every float
# that enters a product is 0 or of magnitude in [2^-300, 2^300]: _tame
# flushes smaller ones into their radius, unit powers, points and cofactors
# outside the range go to the ladder, and logs, exponents and the log-lattice
# data are far below 2^300 for any input that fits in memory (the inverse
# too: its determinant is n times the regulator of the units, and every
# regulator exceeds 0.2, Friedman 1989).  No product meets more than
# three such factors and one constant >= 2^-53, so it is 0 or lies in
# [2^-953, 2^900], in the normal range.  A sum below the normal range is exact.
#
# Every radius is a sum of products of nonnegative floats.  Evaluated with
# k < 2^12 roundings its computed value is at least (1 - u)^k times the exact
# one, so one more product with _UP gives an upper bound:
# (1 - u)^(k+1) (1 + 2^-40) >= (1 - 2^-41)(1 + 2^-40) > 1.

_U = 2.0 ** -53
_SAFE = 2.0 ** -300
_UP = 1.0 + 2.0 ** -40


def _gamma(k: int) -> float:
    """An upper bound of gamma_k for ku <= 1/2, exact in floats."""
    return 2 * k * _U


def _tame(mid, rad):
    """Flush midpoints of magnitude below _SAFE to 0 and raise radii to at
    least _SAFE; |q - mid| <= rad still holds: a flushed midpoint had
    |mid| < _SAFE <= rad, so doubling rad (exact) covers it."""
    import numpy as np

    rad = np.maximum(rad, _SAFE)
    small = np.abs(mid) < _SAFE
    return np.where(small, 0.0, mid), np.where(small, 2 * rad, rad)


def _mid_rad(ivs):
    """Float (mid, rad) arrays of a nested list of Iv: every point q of an
    entry has |q - mid| <= rad.  mid = fl(lo + hi) / 2 lies in [lo, hi]
    (rounding is monotone and 2 lo, 2 hi are floats); each of hi - mid and
    mid - lo is rounded once, so one nextafter step up bounds it."""
    import numpy as np

    cells = np.array(ivs, dtype=object)
    bounds = np.array([iv.float_bounds() for iv in cells.flat]).reshape(cells.shape + (2,))
    lo, hi = bounds[..., 0], bounds[..., 1]
    mid = (lo + hi) / 2
    return _tame(mid, np.nextafter(np.maximum(hi - mid, mid - lo), np.inf))


def _positive_floats(ivs):
    """Lower float ends lo and one error count k for positive Iv's: every
    point of entry j is lo[j] (1 + theta) with 0 <= theta <= k u, so
    1 + theta = (1 + d)^k with 0 <= d <= u: a theta_k.  The relative width
    is rounded upward (nextafter after each rounded step); the division by
    u is exact.  When an end lies outside [2^-300, 2^300]
    the ends are replaced by 1 and k is inf, which defers every decision."""
    import numpy as np

    lo, hi = np.array([iv.float_bounds() for iv in ivs]).T
    if not np.all((lo >= _SAFE) & (hi <= 1 / _SAFE)):
        return np.ones_like(lo), math.inf
    width = np.nextafter(np.nextafter(hi - lo, np.inf) / lo, np.inf)
    return lo, float(np.ceil(width / _U).max())


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
    y, rad = _log_float(iv.lm, iv.le)
    y_hi, rad_hi = _log_float(iv.um, iv.ue)
    return y, _UP * (abs(y_hi - y) + rad + rad_hi)


class SignedDomain:
    """The collection {(C_sigma, w_sigma)} for one (field, units) input."""

    def __init__(self, field: NumberField, units, cones, reg_sign: int):
        self.field = field
        self.units = tuple(units)
        self.cones = tuple(cones)
        self.reg_sign = reg_sign
        self._power_cache: dict[tuple, FieldElement] = {}
        self._emb_cache: dict[tuple, list] = {}
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
        key = (expo, prec)
        out = self._emb_cache.get(key)
        if out is None:
            out = self.field.embed_iv(self.unit_power(expo), prec)
            self._emb_cache[key] = out
        return out

    # ---- candidate enumeration ----

    def _enum_data(self):
        """Projected-log lattice data as float (mid, rad) pairs of START_PREC
        enclosures: the LOG l(eps) matrix, its inverse and, per cone, the
        coordinatewise log-range box of the projected generators."""
        import numpy as np

        if self._enum is not None:
            return self._enum
        field = self.field
        prec = START_PREC
        n = field.degree
        r = n - 1

        def log_matrix(p):
            cols = []
            for u in self.units:
                conj = field._positive_conjugates(u, p)
                logs = [log_iv(c, p) for c in conj]
                cols.append([logs[j] - logs[-1] for j in range(r)])
            return [[cols[i][j] for i in range(r)] for j in range(r)]

        for p in Ladder(field.prec_cap, "log-matrix determinant", start=prec):
            mat = log_matrix(p)
            cof, det = iv_adjugate(mat)
            if det.sign() is not None:
                break
        # inverse enclosure = adjugate / det, the adjugate being cof transposed
        inv = [[cof[j][i].div(det, prec) for j in range(r)] for i in range(r)]
        boxes = []
        for cone in self.cones:
            los = [None] * r
            his = [None] * r
            for g in cone.generators:
                conj = field._positive_conjugates(g, prec)
                for k in range(r):
                    lg = log_iv(conj[k].div(conj[-1], prec), prec)
                    if los[k] is None or lg.lo_fraction() < los[k]:
                        los[k] = lg.lo_fraction()
                    if his[k] is None or lg.hi_fraction() > his[k]:
                        his[k] = lg.hi_fraction()
            boxes.append([Iv.bounds(lo, hi, prec) for lo, hi in zip(los, his)])
        lm, lr = _mid_rad(mat)
        im, ir = _mid_rad(inv)
        bm, br = _mid_rad(boxes)
        self._enum = {
            # per unit of |a_i|, the radius of fl(sum_i lm[k, i] a_i) around
            # sum_i mat[k, i] a_i: data radius plus the dot product's gamma_r
            "lm": lm, "q": _UP * (lr + _gamma(r) * np.abs(lm)),
            "im": im, "ir": ir, "bm": bm, "br": br,
        }
        return self._enum

    def candidate_exponents(self, x):
        """Per cone, an (N, n-1) int array of every exponent vector a for
        which eps^a * x can lie in the closed cone (a certified superset), in
        lexicographic order."""
        import numpy as np

        field = self.field
        r = field.degree - 1
        if isinstance(x, FieldElement):
            conj = field._positive_conjugates(x, START_PREC)
            ratios = [conj[k].div(conj[-1], START_PREC) for k in range(r)]
        else:
            seq = [Fraction(c) for c in x]
            ratios = [Iv.from_fraction(c / seq[-1], START_PREC) for c in seq[:-1]]
        ym, yr = _tame(*np.array([_log_enclosure(v) for v in ratios]).T)
        d = self._enum_data()
        bm = d["bm"]
        # target = box - log x per cone; the centre is rounded once, so it is
        # off by at most u |bm - ym| <= u (|bm| + |ym|)
        tm, tr = _tame(bm - ym, _UP * (d["br"] + yr + _U * (np.abs(bm) + np.abs(ym))))
        # exponent box = inv @ target: per term |im| tr + ir (|tm| + tr), plus
        # the dot product's gamma_r |im| |tm|
        im, atm = d["im"], np.abs(tm)
        cm = tm @ im.T
        cr = _UP * ((tr + _gamma(r) * atm) @ np.abs(im).T + (atm + tr) @ d["ir"].T)
        # one rounding each, so one nextafter step outward encloses the ends
        lo = np.ceil(np.nextafter(cm - cr, -np.inf)).astype(np.int64)
        hi = np.floor(np.nextafter(cm + cr, np.inf)).astype(np.int64)
        # the ranges bound the parallelotope's bounding box; discard the
        # corners certified outside the parallelotope itself
        grids = [np.indices(np.maximum(h - l + 1, 0)).reshape(r, -1).T + l
                 for l, h in zip(lo, hi)]
        sizes = [len(g) for g in grids]
        which = np.repeat(np.arange(len(grids)), sizes)
        af = np.concatenate(grids).astype(float)
        # the corner's log image mat @ a has centre fl(lm @ a) and radius
        # q @ |a|; it meets the target iff the centres differ by at most the
        # sum of the radii; the difference is rounded once, inside _UP
        near = np.abs(af @ d["lm"].T - tm[which])
        keep = (near <= _UP * (_UP * (np.abs(af) @ d["q"].T) + tr[which])).all(axis=1)
        keeps = np.split(keep, np.cumsum(sizes)[:-1])
        return [(cone, g[k]) for cone, g, k in zip(self.cones, grids, keeps)]

    # ---- float membership ----

    def _member_data(self):
        """Per unit, the float conjugates of eps_i and eps_i^-1 with their
        error counts; per cone, the cofactors' (mid, rad) pairs with the
        orientation sign folded in, and whether they are in float range."""
        import numpy as np

        if self._member is None:
            field = self.field
            units = [(_positive_floats(field._positive_conjugates(u, START_PREC)),
                      _positive_floats(field._positive_conjugates(u.inverse(), START_PREC)))
                     for u in self.units]
            cm, cr = _mid_rad([c._map.adjugate(START_PREC)[0] for c in self.cones])
            cm = cm * np.array([c._map.det_sign for c in self.cones])[:, None, None]
            usable = ((np.abs(cm) <= 1 / _SAFE) & (cr <= 1 / _SAFE)).all(axis=(1, 2))
            self._member = (units, cm, cr, usable)
        return self._member

    def _power_floats(self, top: int):
        """Per unit i, float conjugates of eps_i^a for a = -top..top (row
        a + top), by repeated multiplication (np.cumprod is sequential), each
        with its error count |a| (k + 1) and whether the row stays within
        [2^-300, 2^300].  Powers are monotone in a, so a row in range was
        built from rows in range.  Tables grow geometrically."""
        import numpy as np

        have, tables = self._powers
        if have >= top:
            return have, tables
        top = max(top, 2 * have)
        units, _, _, _ = self._member_data()
        n = self.field.degree
        a = np.arange(-top, top + 1)
        tables = []
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for (up, kup), (dn, kdn) in units:
                pos = np.cumprod(np.vstack([np.ones(n), np.tile(up, (top, 1))]), axis=0)
                neg = np.cumprod(np.vstack([np.ones(n), np.tile(dn, (top, 1))]), axis=0)
                table = np.vstack([neg[:0:-1], pos])
                valid = ((table >= _SAFE) & (table <= 1 / _SAFE)).all(axis=1)
                count = np.where(a == 0, 0.0, np.abs(a) * np.where(a < 0, kdn + 1, kup + 1))
                tables.append((np.where(valid[:, None], table, 1.0), count, valid))
        self._powers = (top, tables)
        return self._powers

    def _float_verdicts(self, x, per_cone):
        """Per cone, an int array over its candidates: 1 when eps^a x is
        certified inside (every cone coordinate > 0), 0 when certified
        outside (some coordinate < 0), -1 when the float bound cannot tell
        (exact zeros, and with them every open/closed-flag case)."""
        import numpy as np

        field = self.field
        n = field.degree
        if isinstance(x, FieldElement):
            xf, kx = _positive_floats(field._positive_conjugates(x, START_PREC))
        else:
            xf, kx = _positive_floats([Iv.from_fraction(Fraction(c), START_PREC) for c in x])
        expos = np.concatenate([cands for _, cands in per_cone])
        sizes = [len(cands) for _, cands in per_cone]
        which = np.repeat(np.arange(len(sizes)), sizes)
        _, cm, cr, usable = self._member_data()
        top, tables = self._power_floats(int(np.abs(expos).max(initial=0)))
        # v = x * prod_i eps_i^(a_i): r products on top of the factors' counts
        v = np.tile(xf, (len(expos), 1))
        count = np.full(len(expos), kx + n - 1)
        ok = usable[which]
        for i, (table, cnt, valid) in enumerate(tables):
            row = expos[:, i] + top
            v = v * table[row]
            count += cnt[row]
            inside = ((v >= _SAFE) & (v <= 1 / _SAFE)).all(axis=1)
            ok &= valid[row] & inside
            v = np.where(inside[:, None], v, 1.0)
        # The exact vector is v (1 + theta) with |theta| <= rho = 2 count u
        # (count <= 2^40 keeps count u <= 1/2).  Its coordinate i is
        # sum_j v_j (1 + theta_j) C[j, i], the computed one
        # fl(sum_j v_j cm[j, i]), and they differ by at most
        #   sum_j v_j ((1 + rho) cr[j, i] + (rho + gamma_n) |cm[j, i]|).
        ok &= count <= 2.0 ** 40
        rho = 2 * _U * np.where(ok, count, 0.0)
        v = v[:, None, :]
        coord = (v @ cm[which])[:, 0]
        bound = _UP * ((1 + rho)[:, None] * (v @ cr[which])[:, 0]
                       + (rho + _gamma(n))[:, None] * (v @ np.abs(cm)[which])[:, 0])
        verdict = np.where(ok & (coord > bound).all(axis=1), 1,
                           np.where(ok & (coord < -bound).any(axis=1), 0, -1))
        return np.split(verdict, np.cumsum(sizes)[:-1])

    def __getstate__(self):
        raise TypeError("SignedDomain is rebuilt per process, not pickled")


def build_signed_domain(units, field: NumberField) -> SignedDomain:
    """Validate the units, compute all cone signs and half-open flags, and
    drop the degenerate (w = 0) cones."""
    units = [field.element_like(u) for u in units]
    if len(units) != field.degree - 1:
        raise DependentUnits(f"need exactly {field.degree - 1} units")
    for u in units:
        if u.is_zero() or not field.is_unit(u):
            raise NotAUnit(f"{u!r} is not a unit")
        if not field.is_totally_positive(u):
            raise NotTotallyPositive(f"{u!r} is not totally positive")
    reg_sign = field.signed_regulator_sign(units)
    if reg_sign == 0:
        raise DependentUnits("units are multiplicatively dependent")
    n = field.degree
    e_n = tuple(Fraction(int(i == n - 1)) for i in range(n))
    cones = []
    for sigma in itertools.permutations(range(n - 1)):
        w = cone_sign(units, sigma, field, reg_sign=reg_sign)
        if w == 0:
            continue
        gens = colmez_generators(units, sigma, field)
        coords = cone_coordinates(e_n, gens, field, zero_possible=False)
        flags = tuple(FLAG_CLOSED if s > 0 else FLAG_OPEN for s in coords.signs)
        # e_n has a zero coordinate, so it lies outside the closed cone and
        # at least one face must be open
        assert FLAG_OPEN in flags
        cones.append(SignedCone(sigma, gens, w, flags, field))
    return SignedDomain(field, units, cones, reg_sign)


def is_true_domain(dom: SignedDomain) -> bool:
    """True when no cone carries weight -1 (then the union is a true
    fundamental domain)."""
    return all(c.w == 1 for c in dom.cones)


def orbit_net_count(dom: SignedDomain, x):
    """Signed number of intersections of the unit orbit of x with the cones:
    sum over cones of w * #(hits).  Returns (count, hits) with the hit list
    of (sigma, exponent vector) pairs.  The float stage decides most
    candidates; the rest go to the certified ladder."""
    import numpy as np

    per_cone = dom.candidate_exponents(x)
    verdicts = dom._float_verdicts(x, per_cone)
    exact = isinstance(x, FieldElement)
    if not exact:
        seq = [Fraction(c) for c in x]
    hits = []
    total = 0
    for (cone, cands), verdict in zip(per_cone, verdicts):
        for k in np.flatnonzero(verdict):       # inside, or undecided
            a = tuple(cands[k].tolist())
            if verdict[k] > 0:
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


def sample_point(seed, index: int, retry: int, n: int):
    """Deterministic strictly positive sample, log-uniform per coordinate."""
    rng = random.Random(f"{seed}:{index}:{retry}")
    return tuple(Fraction(math.exp(rng.uniform(-3.0, 3.0))) for _ in range(n))


def verify_net_counts(dom: SignedDomain, samples: int, seed,
                      max_retries: int = 5, start: int = 0):
    """Run the net-count check on deterministic random points; points whose
    membership hits an undecidable sign are resampled (boundary events have
    probability zero, so this only absorbs adversarial precision cases).
    ``start`` offsets the sample indices so workers can split a run."""
    n = dom.field.degree
    failures = []
    resamples = 0
    for i in range(start, start + samples):
        for retry in range(max_retries + 1):
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
