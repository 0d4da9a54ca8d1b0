"""Fractional-ideal arithmetic over a declared integral basis and exact
enumeration of the finite R-sets attached to a cone.

An ideal is (1/den) * L with L an integer lattice in order coordinates,
stored as its canonical row HNF with gcd(den, content(L)) = 1, so ideal
equality is literal equality.  Ideal arithmetic is integer-lattice code over
the order's multiplication table (`Order.table`, the structure constants of
the basis): products and sums stack integer rows, and the inverse is the
dual lattice (O : a).  Field elements appear only where the R-set code needs
points.  All R-set work is exact rational arithmetic end to end: membership
in a half-open interval is discrete and must be bit-exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .errors import NotValidated, SchemaError, ZeroIdeal
from .exactlinalg import (
    hnf_rows,
    hnf_solve,
    int_inverse,
    mat_det,
    mat_inv,
    mat_solve,
    mat_vec,
)
from .field import FieldElement, NumberField, _json_int


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
        # structure constants: table[i][j] = order coordinates of b_i * b_j,
        # each an int where its denominator is 1
        self.table = tuple(
            tuple(tuple(int(c) if c.denominator == 1 else c
                        for c in self.to_order_coords(bi * bj))
                  for bj in self.basis)
            for bi in self.basis)

    def to_order_coords(self, elem: FieldElement):
        return mat_vec(self.basis_matrix_inv, list(elem.coeffs))

    def from_order_coords(self, coords) -> FieldElement:
        return self.field.element(mat_vec(self.basis_matrix, [Fraction(c) for c in coords]))

    def mul_basis(self, x):
        """Order coordinates of x * b_j for every basis element b_j, with x
        given in order coordinates."""
        n = len(x)
        terms = [(xi, ti) for xi, ti in zip(x, self.table) if xi]
        return [[sum(xi * ti[j][k] for xi, ti in terms) for k in range(n)]
                for j in range(n)]

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
    if any(isinstance(c, Fraction) for row in order.table for entry in row for c in entry):
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
    def from_int_rows(order: Order, rows, den: int = 1) -> "FractionalIdeal":
        """(1/den) * the Z-span of integer order-coordinate rows."""
        h = hnf_rows(rows, order.field.degree)
        if len(h) != order.field.degree:
            raise ZeroIdeal("generators do not span a full lattice")
        return FractionalIdeal(order, h, den)

    @staticmethod
    def from_rational_rows(order: Order, rows) -> "FractionalIdeal":
        """Module generated by vectors of rational order-coordinates."""
        rows = [[Fraction(x) for x in row] for row in rows]
        den = math.lcm(*(x.denominator for row in rows for x in row))
        return FractionalIdeal.from_int_rows(
            order, [[int(x * den) for x in row] for row in rows], den)

    @staticmethod
    def from_generators(order: Order, elems) -> "FractionalIdeal":
        """O-module generated by field elements (Z-span of elem * basis)."""
        coords = [order.to_order_coords(order.field.element_like(e)) for e in elems]
        den = math.lcm(*(c.denominator for v in coords for c in v))
        rows = [row for v in coords for row in order.mul_basis([int(c * den) for c in v])]
        if not any(any(r) for r in rows):
            raise ZeroIdeal("zero ideal")
        return FractionalIdeal.from_int_rows(order, rows, den)

    # ---- accessors ----

    def basis_elements(self):
        return [self.order.from_order_coords([Fraction(x, self.den) for x in row])
                for row in self.hnf]

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
        """Parse and validate {"hnf": n rows of n integers, "den": integer
        >= 1, default 1}: the rows must already be the canonical HNF of a
        full lattice that is closed under multiplication by the order."""
        n = order.field.degree
        if not isinstance(obj, dict):
            raise SchemaError(f'an ideal must be an object {{"hnf", "den"}}, got {obj!r}')
        hnf, den = obj.get("hnf"), obj.get("den", 1)
        if not (isinstance(hnf, list) and len(hnf) == n
                and all(isinstance(row, list) and len(row) == n
                        and all(map(_json_int, row)) for row in hnf)):
            raise SchemaError(f'ideal "hnf" must be {n} lists of {n} integers, got {hnf!r}')
        if not _json_int(den) or den < 1:
            raise SchemaError(f'ideal "den" must be an integer >= 1, got {den!r}')
        ideal = FractionalIdeal(order, hnf, den)
        if hnf_rows(ideal.hnf, n) != list(ideal.hnf):
            raise NotValidated("ideal matrix is not in canonical HNF")
        rows = [row for h in ideal.hnf for row in order.mul_basis(h)]
        if FractionalIdeal.from_int_rows(order, rows, ideal.den) != ideal:
            raise NotValidated("lattice is not a module over the order")
        return ideal


def principal_ideal(order: Order, elem: FieldElement) -> FractionalIdeal:
    elem = order.field.element_like(elem)
    if elem.is_zero():
        raise ZeroIdeal("principal ideal of 0")
    return FractionalIdeal.from_generators(order, [elem])


def ideal_mul(a: FractionalIdeal, b: FractionalIdeal) -> FractionalIdeal:
    """Product module: HNF of the n^2 pairwise products of the basis rows."""
    n = a.order.field.degree
    rows = []
    for x in a.hnf:
        xb = a.order.mul_basis(x)              # x * b_j
        rows += [[sum(yj * xbj[k] for yj, xbj in zip(y, xb)) for k in range(n)]
                 for y in b.hnf]
    return FractionalIdeal.from_int_rows(a.order, rows, a.den * b.den)


def ideal_add(a: FractionalIdeal, b: FractionalIdeal) -> FractionalIdeal:
    den = math.lcm(a.den, b.den)
    rows = ([[x * (den // a.den) for x in row] for row in a.hnf]
            + [[x * (den // b.den) for x in row] for row in b.hnf])
    return FractionalIdeal.from_int_rows(a.order, rows, den)


def ideal_inverse(a: FractionalIdeal) -> FractionalIdeal:
    """The colon ideal (O : a) = {x : x * g in den * O for every basis row g}
    of a = (1/den) L, as a dual lattice.  The rows of the matrices of
    multiplication by each g span a lattice with HNF H; x satisfies every
    condition iff H x lies in den * Z^n, so (O : a) is spanned by the
    columns of den * H^-1."""
    order = a.order
    n = order.field.degree
    rows = []
    for g in a.hnf:
        rows += zip(*order.mul_basis(g))       # rows of the matrix of g
    h_inv = mat_inv(hnf_rows(rows, n))
    return FractionalIdeal.from_rational_rows(
        order, [[a.den * h_inv[i][j] for i in range(n)] for j in range(n)])


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


def coset_enumerate_R(cone, lattice: FractionalIdeal, shift, scale: int = 1) -> RSigmaSet:
    """Points of shift + lattice in the half-open parallelepiped on the
    generators scale * f_i, exactly.

    Writing the lattice basis in the scaled-generator basis G gives an
    integer matrix N whose determinant is the number of points; each
    residue u of the quotient gives box coordinates t = G^-1 shift + N^-1 u,
    shifted coordinatewise into [0,1) or (0,1] according to the cone's
    half-open flags.  The loop runs in integers over one common denominator
    D of G^-1 shift and N^-1: t D is reduced by % into [0, D) or (0, D], and
    the numerators of z = G t over den(G) D are integer dot products.  Each
    point's membership in shift + lattice is checked on its own, in the
    lattice's HNF in order coordinates, independently of N.
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
    g_mat = [[Fraction(scale) * cone.generators[j].coeffs[i] for j in range(n)]
             for i in range(n)]
    # N = B^-1 G: integer iff every scaled generator lies in the lattice
    b_inv, mb = int_inverse(b)
    n_mat = [[Fraction(sum(map(mul, row, col)), mb) for col in zip(*g_mat)] for row in b_inv]
    if any(x.denominator != 1 for row in n_mat for x in row):
        raise ValueError("scaled generators do not lie in the lattice")
    n_mat = [[int(x) for x in row] for row in n_mat]
    index = abs(int(mat_det(n_mat)))

    # residues of N^-1 Z^n / Z^n ~ Z^n / N Z^n via the HNF diagonal box
    h = hnf_rows([[n_mat[i][j] for i in range(n)] for j in range(n)], n)
    diag = [h[i][next(k for k, x in enumerate(h[i]) if x)] for i in range(len(h))]
    assert len(diag) == n

    # G^-1 = A / (m scale) from the cone's C^-1 = A / m: tau0 = G^-1 shift
    # and N^-1 = G^-1 B
    a, m = cone.inverse
    tau0 = [Fraction(sum(map(mul, row, shift.coeffs)), m * scale) for row in a]
    n_inv = [[Fraction(sum(map(mul, row, col)), m * scale) for col in zip(*b)] for row in a]
    d = math.lcm(*(x.denominator for x in tau0),
                 *(x.denominator for row in n_inv for x in row))
    t0 = [int(x * d) for x in tau0]
    n_inv_d = [[int(x * d) for x in row] for row in n_inv]
    gd = math.lcm(*(x.denominator for row in g_mat for x in row))
    g_num = [[int(x * gd) for x in row] for row in g_mat]
    e = gd * d                                  # z = z_num / e
    # membership: den * (order coordinates of z - shift) = m_num (z_num -
    # shift_num) / (bd e) must be an integer vector in the HNF lattice
    shift_num = [x * e for x in shift.coeffs]
    assert all(x.denominator == 1 for x in shift_num)
    shift_num = [int(x) for x in shift_num]
    bd = math.lcm(*(x.denominator for row in order.basis_matrix_inv for x in row))
    m_num = [[int(x * bd) * lattice.den for x in row] for row in order.basis_matrix_inv]
    q = bd * e

    open_flags = [fl == "open" for fl in cone.flags]
    points = []
    seen = set()
    for u in itertools.product(*[range(k) for k in diag]):
        r = []
        for t0_i, row, is_open in zip(t0, n_inv_d, open_flags):
            x = (t0_i + sum(a * uj for a, uj in zip(row, u))) % d
            r.append(d if is_open and x == 0 else x)    # (0, D] or [0, D)
        z_num = [sum(a * rj for a, rj in zip(row, r)) for row in g_num]
        diff = [a - c for a, c in zip(z_num, shift_num)]
        v = [sum(a * x for a, x in zip(row, diff)) for row in m_num]
        assert all(x % q == 0 for x in v)
        assert hnf_solve(lattice.hnf, [x // q for x in v]) is not None
        key = tuple(z_num)
        assert key not in seen
        seen.add(key)
        points.append((field.element([Fraction(x, e) for x in z_num]),
                       tuple(Fraction(x, d) for x in r)))
    assert len(points) == index
    return RSigmaSet(points, index, scale, shift)


def smallest_positive_rational_integer(ideal: FractionalIdeal) -> int:
    """Positive generator of Z intersected with the ideal: the least t with
    t * den * (coordinates of 1) in the HNF lattice."""
    order = ideal.order
    scaled = [c * ideal.den for c in order.to_order_coords(order.field.one)]
    coords = mat_solve([list(col) for col in zip(*ideal.hnf)], scaled)
    return math.lcm(*(q.denominator for q in coords))
