"""Fractional-ideal arithmetic over a declared integral basis and exact
enumeration of the finite R-sets attached to a cone.

An ideal is (1/den) * L with L an integer lattice in order coordinates,
stored as its canonical row HNF with gcd(den, content(L)) = 1, so ideal
equality is literal equality.  Ideal arithmetic is integer-lattice code over
the order's multiplication table (`Order.table`, the structure constants of
the basis): products and sums stack integer rows, and the inverse is the
dual lattice (O : a).  Field elements appear only where the R-set code needs
points.  Every rational vector here is integers over one denominator, as
field elements are (`field.reduced`): membership in a half-open interval is
discrete, and integer arithmetic decides it exactly.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .errors import NotValidated, SchemaError, ZeroIdeal
from .exactlinalg import hnf_rows, hnf_solve, int_inverse, mat_det, mat_mul
from .field import FieldElement, NumberField, _json_int, common_denominator, reduced


class Order:
    """Ring of integers given by an explicit Z-basis (default: the power
    basis, with a declared monogenicity assumption).  NotValidated if the
    basis is not closed under multiplication."""

    def __init__(self, field: NumberField, basis):
        self.field = field
        self.basis = tuple(basis)
        # B = basis_matrix / basis_den, columns the basis elements in power
        # coordinates, and B^-1 = A / m with (A, m) = self.inverse
        self.basis_matrix, self.basis_den = common_denominator(self.basis)
        self.inverse = int_inverse(self.basis_matrix, self.basis_den)
        # structure constants: table[i][j] = order coordinates of b_i * b_j
        table = [[self.to_order_coords(bi * bj) for bj in self.basis] for bi in self.basis]
        if any(den != 1 for row in table for _, den in row):
            raise NotValidated("basis not closed under multiplication")
        self.table = tuple(tuple(num for num, _ in row) for row in table)

    def to_order_coords(self, elem: FieldElement):
        """(x, d): the order coordinates of elem are x / d in lowest terms."""
        a, m = self.inverse
        return reduced([sum(map(mul, row, elem.num)) for row in a], m * elem.den)

    def mul_basis(self, x):
        """Order coordinates of x * b_j for every basis element b_j, with x
        given in order coordinates."""
        n = len(x)
        terms = [(xi, ti) for xi, ti in zip(x, self.table) if xi]
        return [[sum(xi * ti[j][k] for xi, ti in terms) for k in range(n)]
                for j in range(n)]

    def contains(self, elem: FieldElement) -> bool:
        return self.to_order_coords(elem)[1] == 1

    def discriminant(self):
        n = self.field.degree
        tr = [[(self.basis[i] * self.basis[j]).trace() for j in range(n)]
              for i in range(n)]
        return mat_det(tr)

    def power_basis_index(self) -> int:
        """Index [O : Z[theta]] (the order must contain the power order)."""
        idx = self.basis_den ** self.field.degree / abs(mat_det(self.basis_matrix))
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
        return Order(field, gen_powers)
    basis = [field.element_like(b) for b in basis]
    if len(basis) != field.degree:
        raise NotValidated("basis must have n elements")
    try:
        order = Order(field, basis)
    except ZeroDivisionError:
        raise NotValidated("basis is not full rank")
    if not order.contains(field.one):
        raise NotValidated("1 is not in the span of the basis")
    for b in basis:
        if not order.contains(b * field.gen):
            raise NotValidated("basis not closed under multiplication by the generator")
    idx = order.power_basis_index()
    power_disc = integral_basis(field).discriminant()
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
    def from_generators(order: Order, elems) -> "FractionalIdeal":
        """O-module generated by field elements (Z-span of elem * basis)."""
        coords = [order.to_order_coords(order.field.element_like(e)) for e in elems]
        den = math.lcm(*(d for _, d in coords))
        rows = [row for x, d in coords for row in order.mul_basis([c * (den // d) for c in x])]
        if not any(any(r) for r in rows):
            raise ZeroIdeal("zero ideal")
        return FractionalIdeal.from_int_rows(order, rows, den)

    # ---- accessors ----

    def power_basis_matrix(self):
        """(M, d): the columns of M / d are the lattice basis vectors in
        power coordinates."""
        order = self.order
        hnf_cols = [list(col) for col in zip(*self.hnf)]
        return mat_mul(order.basis_matrix, hnf_cols), order.basis_den * self.den

    def norm(self):
        return mat_det(self.hnf) / self.den ** self.order.field.degree

    def contains(self, elem: FieldElement) -> bool:
        """den * (order coordinates x / d of elem) is in L; x / d is in
        lowest terms, so den * x / d is integral exactly when d divides den."""
        x, d = self.order.to_order_coords(elem)
        if self.den % d:
            return False
        return hnf_solve(self.hnf, [c * (self.den // d) for c in x]) is not None

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
    columns of den * H^-1 = den * A / m."""
    order = a.order
    n = order.field.degree
    rows = []
    for g in a.hnf:
        rows += zip(*order.mul_basis(g))       # rows of the matrix of g
    h_inv, m = int_inverse(hnf_rows(rows, n))
    cols = [[a.den * x for x in col] for col in zip(*h_inv)]
    return FractionalIdeal.from_int_rows(order, cols, m)


# ---- R-set enumeration ----

class RSigmaSet:
    """All lattice (or coset) points in the half-open parallelepiped spanned
    by the scaled cone generators, with their exact box coordinates t / den."""

    __slots__ = ("points", "index", "den")

    def __init__(self, points, index, den):
        self.points = points            # list of (FieldElement, t: tuple[int])
        self.index = index
        self.den = den


def coset_enumerate_R(cone, lattice: FractionalIdeal, shift, scale: int = 1) -> RSigmaSet:
    """Points of shift + lattice in the half-open parallelepiped on the
    generators scale * f_i, exactly.

    Writing the lattice basis in the scaled-generator basis G gives an
    integer matrix N whose determinant is the number of points; each
    residue u of the quotient gives box coordinates t = G^-1 shift + N^-1 u,
    shifted coordinatewise into [0,1) or (0,1] according to the cone's
    half-open flags.  The loop runs in integers over one common denominator
    D of G^-1 shift and N^-1: t D is reduced by % into [0, D) or (0, D], and
    z = G t is a field element.  Each point's membership in shift + lattice
    is checked on its own, in the lattice's HNF, independently of N.
    """
    field = lattice.order.field
    n = field.degree
    if cone.w == 0:
        raise ValueError("enumeration needs a nondegenerate cone")
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    shift = field.element_like(shift)

    # B = b / bd, the lattice basis, and G = scale C = scale c / cd, the
    # scaled generators, in power coordinates; C^-1 = A / m from the cone
    b, bd = lattice.power_basis_matrix()
    c, cd = common_denominator(cone.generators)
    a, m = cone.inverse
    # N = B^-1 G: integer iff every scaled generator lies in the lattice
    b_inv, mb = int_inverse(b, bd)
    n_num, n_den = mat_mul(b_inv, c), mb * cd
    if any(scale * x % n_den for row in n_num for x in row):
        raise ValueError("scaled generators do not lie in the lattice")
    n_mat = [[scale * x // n_den for x in row] for row in n_num]
    index = abs(int(mat_det(n_mat)))

    # residues of N^-1 Z^n / Z^n ~ Z^n / N Z^n via the HNF diagonal box
    h = hnf_rows([list(col) for col in zip(*n_mat)])
    diag = [next(x for x in row if x) for row in h]
    assert len(diag) == n

    # tau0 = G^-1 shift and N^-1 = G^-1 B over one denominator D
    d = m * scale * shift.den * bd
    t0 = [sum(map(mul, row, shift.num)) * bd for row in a]
    n_inv = [[x * shift.den for x in row] for row in mat_mul(a, b)]

    open_flags = [fl == "open" for fl in cone.flags]
    points = []
    for u in itertools.product(*[range(k) for k in diag]):
        r = []
        for t0_i, row, is_open in zip(t0, n_inv, open_flags):
            x = (t0_i + sum(map(mul, row, u))) % d
            r.append(d if is_open and x == 0 else x)    # (0, D] or [0, D)
        z = FieldElement(field, [scale * sum(map(mul, row, r)) for row in c], cd * d)
        assert lattice.contains(z - shift)
        points.append((z, tuple(r)))
    assert len(set(z for z, _ in points)) == len(points) == index
    return RSigmaSet(points, index, d)


def smallest_positive_rational_integer(ideal: FractionalIdeal) -> int:
    """Positive generator of Z intersected with the ideal: the least t with
    t * den * (coordinates of 1) in the HNF lattice, the denominator of the
    lattice coordinates of den * 1."""
    x, d = ideal.order.to_order_coords(ideal.order.field.one)
    a, m = int_inverse([list(col) for col in zip(*ideal.hnf)])
    return reduced([sum(map(mul, row, x)) * ideal.den for row in a], m * d)[1]
