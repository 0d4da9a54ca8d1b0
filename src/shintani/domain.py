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

from .dyadic import START_PREC, Iv, Ladder, iv_det, log_iv
from .errors import (
    DependentUnits,
    NotAUnit,
    NotTotallyPositive,
    UndecidableSign,
)
from .exactlinalg import mat_det
from .field import FieldElement, NumberField, _perm_sign, frac_to_str
from .geometry import IvVec, Simplex, barycentric, cone_coordinates

FLAG_CLOSED = "closed"   # coefficient >= 0; e_n on the generator's side
FLAG_OPEN = "open"       # coefficient > 0;  e_n on the far side


def colmez_generators(units, sigma, field: NumberField):
    """Partial products f_1 = 1, f_i = eps_{sigma(1)} ... eps_{sigma(i-1)}."""
    gens = [field.one]
    for i in range(field.degree - 1):
        gens.append(gens[-1] * units[sigma[i]])
    return gens


def _embedded_det_sign(gens, field: NumberField) -> int:
    """Exact sign of det of the embedded generator matrix: the embedding
    matrix factors through the root Vandermonde (positive for ascending
    order), so the sign is the rational coordinate determinant's sign times
    the order's parity."""
    m = [[Fraction(g.coeffs[i]) for g in gens] for i in range(field.degree)]
    d = mat_det(m)
    if d == 0:
        return 0
    return field.vandermonde_sign * (1 if d > 0 else -1)


def cone_sign(units, sigma, field: NumberField, reg_sign: int | None = None) -> int:
    """w_sigma = (-1)^(n-1) sgn(sigma) sign(det f) / sign(det Log eps)."""
    if reg_sign is None:
        reg_sign = field.signed_regulator_sign(units)
    if reg_sign == 0:
        raise DependentUnits("units are multiplicatively dependent")
    gens = colmez_generators(units, sigma, field)
    det = _embedded_det_sign(gens, field)
    if det == 0:
        return 0
    n = field.degree
    return (-1) ** (n - 1) * _perm_sign(sigma) * det * reg_sign


class SignedCone:
    """One cone: permutation, generators, orientation sign, half-open flags."""

    __slots__ = ("sigma", "generators", "w", "flags", "field",
                 "_det_sign", "_cof_cache", "_simplex")

    def __init__(self, sigma, generators, w, flags, field):
        self.sigma = tuple(sigma)
        self.generators = tuple(generators)
        self.w = w
        self.flags = tuple(flags)
        self.field = field
        self._det_sign = _embedded_det_sign(self.generators, field)
        self._cof_cache: dict[int, list] = {}
        self._simplex = None

    # ---- certified membership ----

    def _cofactors(self, prec: int):
        """Cofactor matrix C with C[j][i] the cofactor of entry (j, i) of the
        embedded generator matrix, so det(col i -> v) = sum_j v_j C[j][i]."""
        cached = self._cof_cache.get(prec)
        if cached is not None:
            return cached
        field = self.field
        n = field.degree
        embs = [field.embed_iv(g, prec) for g in self.generators]
        rows = [[embs[i][j] for i in range(n)] for j in range(n)]
        cof = [[None] * n for _ in range(n)]
        for j in range(n):
            for i in range(n):
                minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
                d = iv_det(minor) if n > 1 else Iv.ONE
                if (i + j) % 2:
                    d = -d
                cof[j][i] = d
        self._cof_cache[prec] = cof
        return cof

    def coordinate_sign_fn(self, vfn):
        """Returns sign_at(i, prec) -> Iv of det(col i -> v) * det-sign."""
        def dot(i, prec):
            cof = self._cofactors(prec)
            v = vfn(prec)
            acc = v[0] * cof[0][i]
            for j in range(1, self.field.degree):
                acc = acc + v[j] * cof[j][i]
            return acc.mul_int(self._det_sign)
        return dot

    def contains_vector(self, vfn, cap=None) -> bool:
        """Membership for an adaptive vector evaluator (certified).  Each
        rung tests the still-undecided coordinates in order and returns at
        the first failed flag."""
        dot = self.coordinate_sign_fn(vfn)
        pending = range(self.field.degree)
        for prec in Ladder(self.field.prec_cap if cap is None else cap,
                           "cone membership sign", zero_possible=True):
            undecided = []
            for i in pending:
                s = dot(i, prec).sign()
                if s is None:
                    undecided.append(i)
                elif s < 0 or (s == 0 and self.flags[i] == FLAG_OPEN):
                    return False
            if not undecided:
                return True
            pending = undecided

    def contains_element(self, x: FieldElement) -> bool:
        """Exact membership for a field-rational point."""
        coords = cone_coordinates(x, self.generators, self.field)
        for c, flag in zip(coords.values, self.flags):
            if flag == FLAG_OPEN:
                if c <= 0:
                    return False
            elif c < 0:
                return False
        return True

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
    for b, flag in zip(coords.signs, cone.flags):
        if flag == FLAG_OPEN:
            if b <= 0:
                return False
        elif b < 0:
            return False
    return True


class SignedDomain:
    """The collection {(C_sigma, w_sigma)} for one (field, units) input."""

    def __init__(self, field: NumberField, units, cones, reg_sign: int):
        self.field = field
        self.units = tuple(units)
        self.cones = tuple(cones)
        self.reg_sign = reg_sign
        self._power_cache: dict[tuple, FieldElement] = {}
        self._emb_cache: dict[tuple, list] = {}
        self._enum_cache: dict[int, dict] = {}

    # ---- enumeration machinery ----

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

    def _enum_data(self, prec: int):
        """Projected-log lattice data: inverse of the LOG l(eps) matrix and,
        per cone, the coordinatewise log-range box of the projected
        generators."""
        data = self._enum_cache.get(prec)
        if data is not None:
            return data
        field = self.field
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
            det = iv_det(mat)
            if det.sign() is not None:
                break
        # inverse enclosure via adjugate / det
        inv = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                minor = [row[:i] + row[i + 1:] for k, row in enumerate(mat) if k != j]
                d = iv_det(minor) if r > 1 else Iv.ONE
                if (i + j) % 2:
                    d = -d
                inv[i][j] = d.div(det, prec)
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
        data = {"inv": inv, "mat": mat, "boxes": boxes}
        self._enum_cache[prec] = data
        return data

    def candidate_exponents(self, x, prec: int = START_PREC):
        """Per cone, every integer exponent vector a for which eps^a * x can
        lie in the closed cone (a certified superset)."""
        field = self.field
        n = field.degree
        r = n - 1
        if isinstance(x, FieldElement):
            conj = field._positive_conjugates(x, prec)
            loglx = [log_iv(conj[k].div(conj[-1], prec), prec) for k in range(r)]
        else:
            seq = [Fraction(c) for c in x]
            lx = [c / seq[-1] for c in seq[:-1]]
            loglx = [log_iv(Iv.from_fraction(v, prec), prec) for v in lx]
        data = self._enum_data(prec)
        mat = data["mat"]
        out = []
        for cone, box in zip(self.cones, data["boxes"]):
            target = [box[k] - loglx[k] for k in range(r)]
            ranges = []
            for i in range(r):
                acc = data["inv"][i][0] * target[0]
                for k in range(1, r):
                    acc = acc + data["inv"][i][k] * target[k]
                lo = math.ceil(acc.lo_fraction())
                hi = math.floor(acc.hi_fraction())
                ranges.append(range(lo, hi + 1))
            # the ranges bound the parallelotope's bounding box; discard the
            # corners certified outside the parallelotope itself
            cands = []
            tlo = [t.lo_fraction() for t in target]
            thi = [t.hi_fraction() for t in target]
            for a in itertools.product(*ranges):
                ok = True
                for k in range(r):
                    acc = mat[k][0].mul_int(a[0])
                    for i in range(1, r):
                        acc = acc + mat[k][i].mul_int(a[i])
                    if acc.lo_fraction() > thi[k] or acc.hi_fraction() < tlo[k]:
                        ok = False
                        break
                if ok:
                    cands.append(a)
            out.append((cone, cands))
        return out

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
    of (sigma, exponent vector) pairs."""
    field = dom.field
    hits = []
    total = 0
    for cone, cands in dom.candidate_exponents(x):
        for a in cands:
            if isinstance(x, FieldElement):
                v = dom.unit_power(a) * x
                inside = cone.contains_element(v)
            else:
                seq = [Fraction(c) for c in x]

                def vfn(prec, a=a, seq=seq):
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
