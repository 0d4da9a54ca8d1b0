"""Fractional-ideal arithmetic over a declared integral basis (HNF-based)
and exact enumeration of the finite R-sets attached to a cone.

Lattices are stored as a canonical integer row-HNF over the order basis plus
a positive denominator, so ideal equality is literal equality.  All R-set
work is exact rational arithmetic end to end: membership in a half-open
interval is discrete and must be bit-exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import NotValidated, ZeroIdeal
from .exactlinalg import (
    hnf_rows,
    hnf_solve,
    int_kernel,
    mat_det,
    mat_inv,
    mat_solve,
    mat_vec,
)
from .field import FieldElement, NumberField


class Order:
    """Ring of integers given by an explicit Z-basis (default: the power
    basis, with a declared monogenicity assumption)."""

    def __init__(self, field: NumberField, basis, assumed_maximal: bool):
        self.field = field
        self.basis = tuple(basis)
        self.assumed_maximal = assumed_maximal
        n = field.degree
        # columns = basis elements in power coordinates
        self.basis_matrix = [[Fraction(self.basis[j].coeffs[i]) for j in range(n)]
                             for i in range(n)]
        self.basis_matrix_inv = mat_inv(self.basis_matrix)

    def to_order_coords(self, elem: FieldElement):
        return mat_vec(self.basis_matrix_inv, list(elem.coeffs))

    def from_order_coords(self, coords) -> FieldElement:
        return self.field.element(mat_vec(self.basis_matrix, [Fraction(c) for c in coords]))

    def contains(self, elem: FieldElement) -> bool:
        return all(c.denominator == 1 for c in self.to_order_coords(elem))

    def discriminant(self) -> Fraction:
        n = self.field.degree
        tr = [[(self.basis[i] * self.basis[j]).trace() for j in range(n)]
              for i in range(n)]
        return mat_det(tr)

    def power_basis_index(self) -> int:
        """Index [O : Z[theta]] (the order must contain the power order)."""
        d = mat_det(self.basis_matrix)
        idx = 1 / abs(d)
        if idx.denominator != 1:
            raise NotValidated("order does not contain the power basis")
        return int(idx)

    def mult_matrix(self, elem: FieldElement):
        """Multiplication by elem on the order basis (rational entries)."""
        n = self.field.degree
        cols = [self.to_order_coords(elem * b) for b in self.basis]
        return [[cols[j][i] for j in range(n)] for i in range(n)]


def integral_basis(field: NumberField, basis=None) -> Order:
    """The order used for ideal arithmetic.  Default: power basis, asserted
    monogenic (fixtures are chosen so).  A user-supplied basis is validated:
    contains 1 and the power order, closed under multiplication, and the
    discriminant ratio to the power order is the square of the index."""
    if basis is None:
        gen_powers = [field.one]
        for _ in range(field.degree - 1):
            gen_powers.append(gen_powers[-1] * field.gen)
        return Order(field, gen_powers, assumed_maximal=True)
    basis = [field.element_like(b) for b in basis]
    if len(basis) != field.degree:
        raise NotValidated("basis must have n elements")
    try:
        order = Order(field, basis, assumed_maximal=False)
    except ZeroDivisionError:
        raise NotValidated("basis is not full rank")
    one_coords = order.to_order_coords(field.one)
    if any(c.denominator != 1 for c in one_coords):
        raise NotValidated("1 is not in the span of the basis")
    for b in basis:
        if not order.contains(b * field.gen):
            raise NotValidated("basis not closed under multiplication by the generator")
    for i, bi in enumerate(basis):
        for bj in basis[i:]:
            if not order.contains(bi * bj):
                raise NotValidated("basis not closed under multiplication")
    idx = order.power_basis_index()
    power_disc = Order(field, integral_basis(field).basis, True).discriminant()
    if order.discriminant() * idx * idx != power_disc:
        raise NotValidated("discriminant inconsistent with the basis index")
    return order


class FractionalIdeal:
    """(1/den) * L with L an integer full-rank lattice over the order basis,
    L in canonical row HNF, gcd(den, content(L)) = 1."""

    __slots__ = ("order", "hnf", "den")

    def __init__(self, order: Order, hnf, den: int = 1):
        self.order = order
        self.hnf = tuple(tuple(int(x) for x in row) for row in hnf)
        self.den = int(den)
        self._normalize()

    def _normalize(self):
        if self.den < 0:
            raise ValueError("denominator must be positive")
        g = self.den
        for row in self.hnf:
            for x in row:
                g = math.gcd(g, x)
        if g > 1:
            self.hnf = tuple(tuple(x // g for x in row) for row in self.hnf)
            self.den //= g

    # ---- constructors ----

    @staticmethod
    def whole_ring(order: Order) -> "FractionalIdeal":
        n = order.field.degree
        return FractionalIdeal(order, [[int(i == j) for j in range(n)] for i in range(n)], 1)

    @staticmethod
    def from_rational_rows(order: Order, rows) -> "FractionalIdeal":
        """Module generated by vectors of rational order-coordinates."""
        rows = [[Fraction(x) for x in row] for row in rows]
        den = math.lcm(*(x.denominator for row in rows for x in row))
        int_rows = [[int(x * den) for x in row] for row in rows]
        h = hnf_rows(int_rows, order.field.degree)
        if len(h) != order.field.degree:
            raise ZeroIdeal("generators do not span a full lattice")
        return FractionalIdeal(order, h, den)

    @staticmethod
    def from_generators(order: Order, elems) -> "FractionalIdeal":
        """O-module generated by field elements (Z-span of elem * basis)."""
        rows = []
        for e in elems:
            e = order.field.element_like(e)
            for b in order.basis:
                rows.append(order.to_order_coords(e * b))
        if not rows or all(not any(r) for r in rows):
            raise ZeroIdeal("zero ideal")
        return FractionalIdeal.from_rational_rows(order, rows)

    # ---- accessors ----

    def basis_vectors_order_coords(self):
        return [[Fraction(x, self.den) for x in row] for row in self.hnf]

    def basis_elements(self):
        return [self.order.from_order_coords(v) for v in self.basis_vectors_order_coords()]

    def power_basis_matrix(self):
        """Columns = lattice basis vectors in power coordinates."""
        n = self.order.field.degree
        elems = self.basis_elements()
        return [[elems[j].coeffs[i] for j in range(n)] for i in range(n)]

    def norm(self) -> Fraction:
        n = self.order.field.degree
        det = 1
        for i in range(n):
            det *= self.hnf[i][i]
        return Fraction(det, self.den ** n)

    def contains(self, elem: FieldElement) -> bool:
        coords = [c * self.den for c in self.order.to_order_coords(elem)]
        if any(c.denominator != 1 for c in coords):
            return False
        return hnf_solve(self.hnf, [int(c) for c in coords]) is not None

    def is_whole_ring(self) -> bool:
        return self == FractionalIdeal.whole_ring(self.order)

    def __eq__(self, other):
        return (isinstance(other, FractionalIdeal)
                and self.hnf == other.hnf and self.den == other.den)

    def __hash__(self):
        return hash((self.hnf, self.den))

    def __repr__(self):
        return f"FractionalIdeal(hnf={self.hnf}, den={self.den})"

    def to_json(self):
        return {"hnf": [list(r) for r in self.hnf], "den": self.den}

    @staticmethod
    def from_json(order: Order, obj) -> "FractionalIdeal":
        """Parse and validate: rows must already be the canonical HNF of a
        full lattice that is closed under multiplication by the order."""
        ideal = FractionalIdeal(order, obj["hnf"], obj.get("den", 1))
        n = order.field.degree
        if hnf_rows(ideal.hnf, n) != list(ideal.hnf):
            raise NotValidated("ideal matrix is not in canonical HNF")
        closed = FractionalIdeal.from_generators(order, ideal.basis_elements())
        if closed != ideal:
            raise NotValidated("lattice is not a module over the order")
        return ideal


def principal_ideal(order: Order, elem: FieldElement) -> FractionalIdeal:
    elem = order.field.element_like(elem)
    if elem.is_zero():
        raise ZeroIdeal("principal ideal of 0")
    return FractionalIdeal.from_generators(order, [elem])


def ideal_mul(a: FractionalIdeal, b: FractionalIdeal) -> FractionalIdeal:
    """Product module: HNF of the n^2 pairwise generator products."""
    ea, eb = a.basis_elements(), b.basis_elements()
    rows = [a.order.to_order_coords(x * y) for x in ea for y in eb]
    return FractionalIdeal.from_rational_rows(a.order, rows)


def ideal_add(a: FractionalIdeal, b: FractionalIdeal) -> FractionalIdeal:
    rows = [a.order.to_order_coords(x) for x in a.basis_elements() + b.basis_elements()]
    return FractionalIdeal.from_rational_rows(a.order, rows)


def ideal_inverse(a: FractionalIdeal) -> FractionalIdeal:
    """Inverse fractional ideal via exact lattice intersection:
    a^-1 = {x : x * g in O for every basis generator g}."""
    order = a.order
    n = order.field.degree
    gens = a.basis_elements()
    # preimage lattice of Z^n under multiplication by each generator
    lattices = []
    for g in gens:
        t = order.mult_matrix(g)
        lattices.append(mat_inv(t))      # columns span {x : g*x in O}
    cur = lattices[0]
    for nxt in lattices[1:]:
        cur = _lattice_intersect(cur, nxt)
    cols = [[cur[i][j] for i in range(n)] for j in range(n)]
    return FractionalIdeal.from_rational_rows(order, cols)


def _lattice_intersect(a_cols, b_cols):
    """Intersection of two full lattices given by rational basis columns."""
    n = len(a_cols)
    den = math.lcm(*(Fraction(x).denominator for mat in (a_cols, b_cols)
                     for row in mat for x in row))
    block = [[int(Fraction(a_cols[i][j]) * den) for j in range(n)]
             + [-int(Fraction(b_cols[i][j]) * den) for j in range(n)]
             for i in range(n)]
    kern = int_kernel(block)
    out_cols = []
    for vec in kern:
        u = vec[:n]
        col = [sum(Fraction(a_cols[i][j]) * u[j] for j in range(n)) for i in range(n)]
        out_cols.append(col)
    # rows for HNF = the intersection vectors
    rows = hnf_rows_rational(out_cols)
    return [[rows[i][j] for i in range(n)] for j in range(n)]


def hnf_rows_rational(vectors):
    """Canonical basis (as rows) of the lattice spanned by rational vectors."""
    den = math.lcm(*(Fraction(x).denominator for v in vectors for x in v))
    int_rows = [[int(Fraction(x) * den) for x in v] for v in vectors]
    h = hnf_rows(int_rows, len(vectors[0]))
    return [[Fraction(x, den) for x in row] for row in h]


# ---- R-set enumeration ----

class RSigmaSet:
    """All lattice (or coset) points in the half-open parallelepiped spanned
    by the scaled cone generators, with their exact box coordinates."""

    __slots__ = ("points", "index", "scale", "shift")

    def __init__(self, points, index, scale, shift):
        self.points = points            # list of (FieldElement, tuple[Fraction])
        self.index = index
        self.scale = scale
        self.shift = shift


def parallelepiped_index(cone, lattice: FractionalIdeal, scale: int = 1) -> int:
    """Exact index [lattice : Z-span of the scaled generators], as
    |det G| / |det B| in power coordinates: the determinant oracle for the
    enumeration cardinality, independent of the enumeration's own solve."""
    gens = [g * scale for g in cone.generators]
    if not all(lattice.contains(g) for g in gens):
        raise ValueError("scaled generators do not lie in the lattice")
    n = lattice.order.field.degree
    g_det = mat_det([[g.coeffs[i] for g in gens] for i in range(n)])
    return int(abs(g_det / mat_det(lattice.power_basis_matrix())))


def coset_enumerate_R(cone, lattice: FractionalIdeal, shift, scale: int = 1) -> RSigmaSet:
    """Points of shift + lattice in the half-open parallelepiped on the
    generators scale * f_i, exactly.

    Writing the lattice basis in the scaled-generator basis gives an integer
    matrix N whose determinant is the number of points; each residue of the
    quotient is shifted coordinatewise into [0,1) or (0,1] according to the
    cone's half-open flags.
    """
    order = lattice.order
    field = order.field
    n = field.degree
    if cone.w == 0:
        raise ValueError("enumeration needs a nondegenerate cone")
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    shift = field.element_like(shift) if not isinstance(shift, FieldElement) else shift

    b = lattice.power_basis_matrix()
    g_cols = [[Fraction(scale) * cone.generators[j].coeffs[i] for j in range(n)]
              for i in range(n)]
    # N = B^-1 G: integer iff every scaled generator lies in the lattice
    n_cols = [mat_solve(b, [g_cols[i][j] for i in range(n)]) for j in range(n)]
    if any(x.denominator != 1 for col in n_cols for x in col):
        raise ValueError("scaled generators do not lie in the lattice")
    n_mat = [[int(n_cols[j][i]) for j in range(n)] for i in range(n)]
    index = abs(int(mat_det(n_mat)))

    # residues of N^-1 Z^n / Z^n ~ Z^n / N Z^n via the HNF diagonal box
    h = hnf_rows([[n_mat[i][j] for i in range(n)] for j in range(n)], n)
    diag = [h[i][next(k for k, x in enumerate(h[i]) if x)] for i in range(len(h))]
    assert len(diag) == n

    g_mat = [[g_cols[i][j] for j in range(n)] for i in range(n)]
    tau0 = mat_solve(g_mat, list(shift.coeffs))
    n_inv = mat_inv([[Fraction(x) for x in row] for row in n_mat])

    open_flags = [fl == "open" for fl in cone.flags]
    points = []
    seen = set()
    for u in itertools.product(*[range(d) for d in diag]):
        t = [tau0[i] + sum(n_inv[i][j] * u[j] for j in range(n)) for i in range(n)]
        tt = []
        for ti, is_open in zip(t, open_flags):
            if is_open:
                shifted = ti - (math.ceil(ti) - 1)     # into (0, 1]
            else:
                shifted = ti - math.floor(ti)          # into [0, 1)
            tt.append(shifted)
        z = field.element(mat_vec(g_mat, tt))
        assert lattice.contains(z - shift)
        key = z.coeffs
        assert key not in seen
        seen.add(key)
        points.append((z, tuple(tt)))
    assert len(points) == index
    return RSigmaSet(points, index, scale, shift)


def enumerate_R_sigma(cone, lattice: FractionalIdeal) -> RSigmaSet:
    """Lattice points in the half-open parallelepiped of the cone."""
    return coset_enumerate_R(cone, lattice, shift=0, scale=1)


def smallest_positive_rational_integer(ideal: FractionalIdeal) -> int:
    """Positive generator of Z intersected with the ideal."""
    order = ideal.order
    one_coords = order.to_order_coords(order.field.one)
    scaled = [c * ideal.den for c in one_coords]
    # t minimal with t * scaled in the HNF lattice: triangular solve over Q
    return math.lcm(*(q.denominator for q in _triangular_coords(ideal.hnf, scaled)))


def _triangular_coords(hrows, v):
    v = [Fraction(x) for x in v]
    coords = []
    for row in hrows:
        c = next(i for i, x in enumerate(row) if x != 0)
        q = v[c] / row[c]
        coords.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    assert not any(v)
    return coords
