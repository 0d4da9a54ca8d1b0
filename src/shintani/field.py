"""Totally real number fields: exact power-basis arithmetic, certified real
embeddings, unit predicates, log vectors and the signed regulator.

The unit contract (n - 1 totally positive units) is checked in one place,
NumberField.check_units, and the certified unit logs are computed in one,
NumberField.unit_logs, whose rows make every log matrix: the regulator sign,
its identity and the domain's log lattice.

A field is defined by a monic irreducible integer polynomial with all-real
roots; irreducibility is decided by Kronecker's test over the isolated
roots, so no nonzero element has a zero conjugate.  Embeddings are
evaluation at the isolated roots; by convention the roots are ordered
ascending, but any fixed permutation may be requested
(the distinguished "last" embedding moves with it, and so do all derived
signs; the net-count theorem is order-independent and the test suite checks
that).
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction

from .dyadic import (
    DEFAULT_PREC_CAP,
    START_PREC,
    Iv,
    Ladder,
    iv_det,
    log_iv,
)
from .errors import (
    DegreeTooSmall,
    DependentUnits,
    InputError,
    NotAUnit,
    NotIrreducible,
    NotMonic,
    NotSquarefree,
    NotTotallyPositive,
    NotTotallyReal,
    SchemaError,
    ZeroElement,
)
from .exactlinalg import charpoly, int_inverse
from .polyroots import _poly_rem, count_real_roots, is_squarefree, isolate_real_roots


def _perm_sign(perm) -> int:
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def reduced(num, den: int):
    """(num, den) as the one stored form of the rational vector num / den:
    integer numerators over one denominator den > 0 with gcd(num, den) = 1
    (Cohen, GTM 138, 4.2), so equal vectors are equal tuples."""
    if den < 0:
        num, den = [-a for a in num], -den
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [a // g for a in num], den // g
    return tuple(num), den


def common_denominator(elems):
    """(M, d): the columns of M / d are the elements in power coordinates,
    M an integer matrix and d the lcm of their denominators."""
    d = math.lcm(*(e.den for e in elems))
    return [list(row) for row in zip(*([a * (d // e.den) for a in e.num] for e in elems))], d


class FieldElement:
    """Element (sum_i num[i] t^i) / den of the field, in :func:`reduced`
    form over the power basis 1, t, ..., t^(n-1)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "NumberField", num, den: int = 1):
        self.field = field
        self.num, self.den = reduced(num, den)
        if len(self.num) != field.degree:
            raise ValueError("coordinate vector has wrong length")

    @property
    def coeffs(self) -> tuple:
        """The power coordinates as Fractions, for output."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other):
        other = self.field.element_like(other)
        d, e = self.den, other.den
        return FieldElement(self.field, [a * e + b * d for a, b in zip(self.num, other.num)], d * e)

    def __sub__(self, other):
        other = self.field.element_like(other)
        d, e = self.den, other.den
        return FieldElement(self.field, [a * e - b * d for a, b in zip(self.num, other.num)], d * e)

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        other = self.field.element_like(other)
        return FieldElement(self.field, self.field.mul_coeffs(self.num, other.num),
                            self.den * other.den)

    def __truediv__(self, other):
        other = self.field.element_like(other)
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        """(num / den)^-1 = den * num^-1, num^-1 the first column of the
        inverse of the matrix of multiplication by num."""
        if self.is_zero():
            raise ZeroElement("inverse of zero")
        a, m = int_inverse(self.field.mult_matrix(self.num))
        return FieldElement(self.field, [self.den * row[0] for row in a], m)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.field.one
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field.poly == other.field.poly
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.poly, self.num, self.den))

    def norm(self) -> Fraction:
        cp = self.field.charpoly_of(self)
        n = self.field.degree
        return Fraction((-1) ** n) * cp[0]

    def trace(self) -> Fraction:
        cp = self.field.charpoly_of(self)
        return -cp[self.field.degree - 1]

    def __repr__(self):
        return f"FieldElement({[str(c) for c in self.coeffs]})"


# Every number field K has regulator R_K > 0.2052 (Friedman, Invent. Math.
# 97, 1989).  For n - 1 independent units generating V, |det Log eps| =
# [E : V] R_K >= R_K > 0.2052, E the units modulo torsion; for dependent
# units det = 0.  So an enclosure of det inside (-1/5, 1/5) proves
# dependence, and any other enclosure that holds 0 goes to the next rung.
_REGULATOR_MIN = Fraction(1, 5)


class NumberField:
    """Context object: defining polynomial, ordered certified real roots,
    and a working precision cap (at least START_PREC bits) for all adaptive
    sign decisions."""

    def __init__(self, coeffs, embedding_order=None, prec_cap: int = DEFAULT_PREC_CAP):
        if prec_cap < START_PREC:
            raise InputError(f"precision cap {prec_cap} is below {START_PREC} bits")
        coeffs = tuple(int(c) for c in coeffs)
        n = len(coeffs) - 1
        if n < 2:
            raise DegreeTooSmall(f"degree {n} < 2")
        if coeffs[-1] != 1:
            raise NotMonic("defining polynomial must be monic")
        if not is_squarefree(coeffs):
            raise NotSquarefree("defining polynomial has repeated roots")
        if count_real_roots(coeffs) != n:
            raise NotTotallyReal("defining polynomial is not totally real")
        self.poly = coeffs
        self.degree = n
        self.prec_cap = prec_cap
        self._order_embeddings(embedding_order)
        # the roots, their lock and their ascending enclosures per precision
        # do not depend on the embedding order: a copy of the field that
        # _order_embeddings reorders shares them
        self._lock = threading.Lock()
        self._root_iv_cache: dict[int, tuple] = {}
        try:
            self._roots = isolate_real_roots(coeffs)   # ascending
            self._check_irreducible()
        except ValueError as exc:       # a bisection point was a root
            raise NotIrreducible(f"defining polynomial is reducible: {exc}")

    def _order_embeddings(self, embedding_order):
        """The embedding order, its Vandermonde sign and fresh caches."""
        n = self.degree
        if embedding_order is None:
            embedding_order = tuple(range(n))
        self.embedding_order = tuple(embedding_order)
        if sorted(self.embedding_order) != list(range(n)):
            raise ValueError("embedding_order must be a permutation of 0..n-1")
        # sign of the Vandermonde determinant of the ordered roots: positive
        # for the ascending order, flips with the permutation parity
        self.vandermonde_sign = _perm_sign(self.embedding_order)
        self._embed_cache: dict[tuple, tuple] = {}
        # (element coefficients, precision) -> its row of unit_logs
        self._log_cache: dict[tuple, tuple] = {}
        # the power basis's geometry.CramerMap, built by geometry.field_map
        self._power_map = None
        # generator numbers, (s, face) -> certified face integral and
        # (s, cone generators) -> face sums, filled by zeta._face_sums
        self._face_cache: dict[tuple, object] = {}
        self.one = self.element([1] + [0] * (n - 1))
        self.zero = self.element([0] * n)
        self.gen = self.element([0, 1] + [0] * (n - 2))

    # ---- construction helpers ----

    def element(self, coeffs) -> FieldElement:
        """The element with the given rational power coordinates: ints,
        Fractions or anything else Fraction reads, such as "p/q"."""
        fr = [Fraction(c) for c in coeffs]
        d = math.lcm(*(c.denominator for c in fr))
        return FieldElement(self, [c.numerator * (d // c.denominator) for c in fr], d)

    def element_like(self, v) -> FieldElement:
        if isinstance(v, FieldElement):
            if v.field.poly != self.poly:
                raise ValueError("element from a different field")
            return v
        if isinstance(v, (int, Fraction)):
            return FieldElement(self, [v.numerator] + [0] * (self.degree - 1), v.denominator)
        raise TypeError(f"cannot coerce {type(v)!r}")

    def _check_irreducible(self):
        """Kronecker's test: a monic factor of degree k <= n/2 is the product
        of (x - theta) over a set S of k roots, with integer coefficients.
        S is ruled out once an interval coefficient of that product holds no
        integer; once each holds exactly one, exact division confirms or
        rejects the candidate; the other sets go to the next rung."""
        n = self.degree
        pending = [S for k in range(1, n // 2 + 1)
                   for S in itertools.combinations(range(n), k)]
        for prec in Ladder(self.prec_cap, "irreducibility"):
            roots = self.roots_iv(prec)
            undecided = []
            for S in pending:
                c = [Iv.ONE]
                for j in S:
                    c = [a - roots[j] * b for a, b in zip([Iv.ZERO, *c], [*c, Iv.ZERO])]
                ints = [(math.ceil(iv.lo_fraction()), math.floor(iv.hi_fraction()))
                        for iv in c[:-1]]
                if any(lo > hi for lo, hi in ints):
                    continue
                if any(lo < hi for lo, hi in ints):
                    undecided.append(S)
                    continue
                factor = [lo for lo, _ in ints] + [1]
                if not any(_poly_rem(self.poly, factor)):
                    raise NotIrreducible(f"defining polynomial has the factor {factor} "
                                         "(low degree first)")
            pending = undecided
            if not pending:
                return

    # ---- exact arithmetic ----

    def mul_coeffs(self, a, b):
        """The integer power coordinates of a * b for integer ones: the
        product polynomial reduced modulo the monic integral poly."""
        n, poly = self.degree, self.poly
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        for k in range(2 * n - 2, n - 1, -1):
            q = prod[k]
            if q:
                for j in range(n):
                    prod[k - n + j] -= q * poly[j]
        return prod[:n]

    def mult_matrix(self, a):
        """Integer matrix of multiplication by integer power coordinates a
        (columns a * t^j)."""
        t = [int(i == 1) for i in range(self.degree)]
        cols = [list(a)]
        for _ in range(self.degree - 1):
            cols.append(self.mul_coeffs(cols[-1], t))
        return [list(row) for row in zip(*cols)]

    def charpoly_of(self, elem: FieldElement):
        return charpoly(self.mult_matrix(elem.num), elem.den)

    # ---- certified embeddings ----

    def roots_iv(self, prec: int):
        """Root enclosures of width <= 2^-prec, in embedding order."""
        with self._lock:
            asc = self._root_iv_cache.get(prec)
            if asc is None:
                target = Fraction(1, 1 << prec)
                for r in self._roots:
                    r.refine_below(target)
                asc = tuple(_iv_pair(r.lo, r.hi) for r in self._roots)
                self._root_iv_cache[prec] = asc
        return tuple(asc[i] for i in self.embedding_order)

    def embed_iv(self, elem: FieldElement, prec: int):
        """Interval enclosures of all conjugates, in embedding order.
        Memoized: generators and unit powers recur in the hot loops."""
        key = (elem.num, elem.den, prec)
        cached = self._embed_cache.get(key)
        if cached is not None:
            return list(cached)
        roots = self.roots_iv(prec)
        # each coordinate rounded from its own lowest terms
        cs = [Iv.from_fraction(Fraction(a, elem.den), prec + 8) for a in elem.num]
        out = []
        for t in roots:
            acc = cs[-1]
            for c in reversed(cs[:-1]):
                acc = acc * t + c
            out.append(acc.round(prec + 8))
        if len(self._embed_cache) > 8192:
            self._embed_cache.clear()
        self._embed_cache[key] = tuple(out)
        return out

    def _positive_conjugates(self, elem: FieldElement, prec: int):
        """Conjugate enclosures certified positive, refining as needed past
        the requested precision: ZeroElement for 0, and NotTotallyPositive
        as soon as a conjugate is certified negative.  The library's one
        certificate of total positivity."""
        for p in Ladder(self.prec_cap, "conjugate positivity", start=prec):
            conj = self.embed_iv(elem, p)
            if all(iv.is_positive() for iv in conj):
                return conj
            if elem.is_zero():
                raise ZeroElement("conjugates of zero are not positive")
            if any(iv.sign() == -1 for iv in conj):
                raise NotTotallyPositive(f"{elem!r} is not totally positive")

    # ---- predicates ----

    def is_totally_positive(self, elem: FieldElement) -> bool:
        """Whether every conjugate is positive, decided on the one ladder
        of :meth:`_positive_conjugates` (ZeroElement for 0)."""
        try:
            self._positive_conjugates(elem, START_PREC)
        except NotTotallyPositive:
            return False
        return True

    def is_unit(self, elem: FieldElement) -> bool:
        """Algebraic-integer unit test via the exact characteristic
        polynomial: integral coefficients and constant term +-1."""
        if elem.is_zero():
            raise ZeroElement("unit test of zero")
        cp = self.charpoly_of(elem)
        if any(c.denominator != 1 for c in cp):
            return False
        return abs(cp[0]) == 1

    def check_units(self, units):
        """The unit contract of the regulator and the domain: exactly n - 1
        units, each a unit and totally positive (independence is left to
        the regulator sign)."""
        if len(units) != self.degree - 1:
            raise DependentUnits(f"need exactly {self.degree - 1} units")
        for u in units:
            if u.is_zero() or not self.is_unit(u):
                raise NotAUnit(f"{u!r} is not a unit")
            if not self.is_totally_positive(u):
                raise NotTotallyPositive(f"{u!r} is not totally positive")

    # ---- logs and the regulator ----

    def unit_logs(self, units, prec: int):
        """Per unit, the log enclosures of all n conjugates: the rows of the
        certified unit-log matrix that the regulator sign, its identity and
        the domain's log lattice read.  Any totally positive element has
        such a row.  Rows are cached per element and precision."""
        rows = []
        for u in units:
            key = (u.num, u.den, prec)
            row = self._log_cache.get(key)
            if row is None:
                row = tuple(log_iv(iv, prec) for iv in self._positive_conjugates(u, prec))
                if len(self._log_cache) > 8192:
                    self._log_cache.clear()
                self._log_cache[key] = row
            rows.append(list(row))
        return rows

    def signed_regulator_sign(self, units) -> int:
        """Sign (+1 or -1) of det(Log eps_1, ..., Log eps_{n-1}), certified
        by adaptive precision.  The units' one door: DependentUnits exactly
        when they are multiplicatively dependent, certified once an
        enclosure of det (the exact point 0 included) lies inside
        (-_REGULATOR_MIN, _REGULATOR_MIN)."""
        units = [self.element_like(u) for u in units]
        self.check_units(units)
        r = self.degree - 1
        for prec in Ladder(self.prec_cap, "regulator sign"):
            rows = self.unit_logs(units, prec)
            det = iv_det([[row[j] for row in rows] for j in range(r)])
            s = det.sign()
            if s:
                return s
            if -_REGULATOR_MIN < det.lo_fraction() and det.hi_fraction() < _REGULATOR_MIN:
                raise DependentUnits("units are multiplicatively dependent")

    def check_regulator_identity(self, units, tol: float = 1e-10) -> bool:
        """Diagnostic: det(LOG l(eps_i)) must equal n * det(Log eps_i) to
        within tol, decided once the enclosure of the difference is narrower
        than tol/10 (PrecisionCapExceeded if the cap comes first).  The
        units must meet the regulator's contract, which
        signed_regulator_sign checks (DependentUnits for dependent units)."""
        units = [self.element_like(u) for u in units]
        self.signed_regulator_sign(units)
        n = self.degree
        r = n - 1
        for prec in Ladder(self.prec_cap, f"regulator identity at tolerance {tol}"):
            rows = self.unit_logs(units, prec)
            lhs = iv_det([[row[j] - row[-1] for row in rows] for j in range(r)])
            rhs = iv_det([[row[j] for row in rows] for j in range(r)])
            diff = lhs - rhs.mul_int(n)
            if diff.width_fraction() < Fraction(tol) / 10:
                return abs(diff.mid_fraction()) <= Fraction(tol)

    def __repr__(self):
        return f"NumberField({list(self.poly)})"


def _iv_pair(lo: Fraction, hi: Fraction) -> Iv:
    a = Iv.from_fraction(lo, 0)   # endpoints are dyadic, so this is exact
    b = Iv.from_fraction(hi, 0)
    return Iv(a.lo, a.e, b.hi, b.e)


# ---- spec-level functions ----

def _json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def field_from_json(obj, prec_cap: int = DEFAULT_PREC_CAP):
    """Parse the field JSON {"poly": [...], "units": [["p/q", ...], ...]}:
    "poly" is a list of JSON integers, low degree first, and "units"
    (default none) a list of coordinate lists whose entries are JSON
    integers or rational strings.  Anything else is a SchemaError."""
    poly, units = obj["poly"], obj.get("units", [])
    if not isinstance(poly, list) or not all(map(_json_int, poly)):
        raise SchemaError(f'"poly" must be a list of integers, got {poly!r}')
    if not (isinstance(units, list)
            and all(isinstance(u, list) for u in units)
            and all(_json_int(c) or isinstance(c, str) for u in units for c in u)):
        raise SchemaError('"units" must be a list of coordinate lists of integers '
                          f'or "p/q" strings, got {units!r}')
    fld = NumberField(poly, prec_cap=prec_cap)
    if any(len(u) != fld.degree for u in units):
        raise SchemaError(f"each unit needs {fld.degree} coordinates, got {units!r}")
    try:
        units = [fld.element(u) for u in units]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f'a unit coordinate is not a rational: {exc}')
    return fld, units

