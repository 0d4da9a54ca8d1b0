"""Frozen fixture fields and units used across the test suite.

Units marked "generates E+" were derived as follows and are relied on by the
zeta consistency tests: the fundamental pair of the cubic field below was
found by exhaustive small-coordinate search (its regulator matches the known
field regulator), the sign map of the full unit group onto {+-1}^3 is
surjective, so the totally positive units are exactly the squares of the
fundamental ones.  The remaining fixtures only need independent totally
positive units (any finite index works for the net count).
"""

import copy
from fractions import Fraction
from functools import partial

from shintani.exactlinalg import mat_det
from shintani.field import NumberField

F12 = Fraction(1, 2)


def q_sqrt2():
    """x^2 - 2 with eps = 3 + 2*sqrt2 (generates E+)."""
    fld = NumberField([-2, 0, 1])
    return fld, [fld.element([3, 2])]


def q_sqrt3():
    """x^2 - 3 with eps = 2 + sqrt3 (generates E+)."""
    fld = NumberField([-3, 0, 1])
    return fld, [fld.element([2, 1])]


def q_sqrt5():
    """x^2 - 5 with eps = (3 + sqrt5)/2: rational coordinates on purpose."""
    fld = NumberField([-5, 0, 1])
    return fld, [fld.element([Fraction(3, 2), F12])]


def cubic_81():
    """x^3 - 3x - 1 (Galois, discriminant 81) with E+ generators
    (1 + t)^2 and t^2."""
    fld = NumberField([-1, -3, 0, 1])
    return fld, [fld.element([1, 2, 1]), fld.element([0, 0, 1])]


def cubic_148():
    """x^3 - x^2 - 3x + 1 with squares of a fundamental pair (independent
    totally positive, finite index in E+)."""
    fld = NumberField([1, -3, -1, 1])
    return fld, [fld.element([10, 2, -3]), fld.element([4, -4, 1])]


def quartic_725():
    """x^4 - x^3 - 3x^2 + x + 1 (monogenic: poly disc = field disc = 725)
    with squares of a fundamental triple."""
    fld = NumberField([1, 1, -3, -1, 1])
    return fld, [fld.element([1, 2, 1, -1]),
                 fld.element([3, 3, 0, -1]),
                 fld.element([2, -3, 1, 0])]


def _real_cyclotomic(poly):
    """The field of the minimal polynomial of t = 2cos(2pi/p), low degree
    first, with the units (2cos(2pi k/p))^2 for k = 1..n-1 (independent
    totally positive cyclotomic units).  2cos(2pi k/p) is C_k(t), with
    C_0 = 2, C_1 = t and C_(k+1) = t C_k - C_(k-1)."""
    fld = NumberField(poly)
    cheb = [fld.one * 2, fld.gen]
    while len(cheb) < fld.degree:
        cheb.append(fld.gen * cheb[-1] - cheb[-2])
    return fld, [c * c for c in cheb[1:]]


def q_zeta11_plus():
    """Q(zeta11)^+: x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1, with the units
    C_k(t)^2 of _real_cyclotomic."""
    return _real_cyclotomic([1, 3, -3, -4, 1, 1])


def q_zeta13_plus():
    """Q(zeta13)^+: x^6 + x^5 - 5x^4 - 4x^3 + 6x^2 + 3x - 1, with the units
    C_k(t)^2 of _real_cyclotomic."""
    return _real_cyclotomic([-1, 3, 6, -4, -5, 1, 1])


def q_zeta17_plus():
    """Q(zeta17)^+: x^8 + x^7 - 7x^6 - 6x^5 + 15x^4 + 10x^3 - 10x^2 - 4x + 1,
    with the units (sin(pi a/17) / sin(pi/17))^2, a = 2, ..., 8, in power
    coordinates (recovered in mpmath; `check_units` confirms them)."""
    fld = NumberField([1, -4, -10, 10, 15, -6, -7, 1, 1])
    coords = [(2, 1), (1, 2, 1), (0, 0, 2, 1), (1, -2, -1, 2, 1),
              (2, 1, -4, -2, 2, 1), (1, 4, 2, -6, -3, 2, 1), (0, 0, 8, 4, -8, -4, 2, 1)]
    return fld, [fld.element(list(c) + [0] * (8 - len(c))) for c in coords]


def cubic_signed_witness():
    """x^3 - 3x - 1 with the unit pair ((1+t)^2, (1+t)^4 t^-2): found by
    search; its domain has cone signs (-1, +1), so it exercises the signed
    (non-true) case end to end."""
    fld = NumberField([-1, -3, 0, 1])
    return fld, [fld.element([1, 2, 1]), fld.element([3, 5, 2])]


def _with_inverse(make, i):
    fld, units = make()
    units = list(units)
    units[i] = units[i].inverse()
    return fld, units


def quartic_725_inverted():
    """quartic_725 with its third unit inverted: the same unit group, and
    its six cones fall into four distinct log-range boxes."""
    return _with_inverse(quartic_725, 2)


def cubic_81_inverted():
    """cubic_81 with its second unit inverted: the same unit group (E+),
    and its two cones have distinct log-range boxes."""
    return _with_inverse(cubic_81, 1)


# Unit sets whose cones do not all share one log-range box, so the float
# stage enumerates more than one box per point.
INVERTED_UNITS = {
    "quartic_725_inverted": quartic_725_inverted,
    "cubic_81_inverted": cubic_81_inverted,
}


def _power_products(make, exponents):
    """make()'s field with one unit prod_i eps_i^a_i per exponent row a."""
    fld, units = make()
    out = []
    for row in exponents:
        acc = fld.one
        for u, a in zip(units, row):
            acc = acc * u ** a
        out.append(acc)
    return fld, out


# Unit sets of the right size whose exponent rows are linearly dependent,
# so the units are multiplicatively dependent and det Log eps = 0.
DEPENDENT_UNITS = {
    "q_sqrt2-one": partial(_power_products, q_sqrt2, [[0]]),
    "cubic_81-e1-e1": partial(_power_products, cubic_81, [[1, 0], [1, 0]]),
    "cubic_81-e1-e1^2": partial(_power_products, cubic_81, [[1, 0], [2, 0]]),
    "cubic_81-e1-e1^5": partial(_power_products, cubic_81, [[1, 0], [5, 0]]),
    "cubic_81-e1^40-e1^-37": partial(_power_products, cubic_81, [[40, 0], [-37, 0]]),
    "cubic_81-e1e2-(e1e2)^-3": partial(_power_products, cubic_81, [[1, 1], [-3, -3]]),
    "quartic_725-e1^3e2^-2": partial(_power_products, quartic_725,
                                     [[1, 0, 0], [0, 1, 0], [3, -2, 0]]),
}


# Totally real squarefree polynomials that are reducible: x^2 - 1, x^3 - x,
# (x^2 - 2)(x^2 - 3), (x^3 - 3x - 1)(x^3 - x^2 - 3x + 1) and
# (x^2 - 2)(x^3 - 3x - 1), the last three without a rational root.
REDUCIBLE = [[-1, 0, 1], [0, -1, 0, 1], [6, 0, -5, 0, 1],
             [-1, 0, 10, 3, -6, -1, 1], [2, 6, -1, -5, 0, 1]]


ALL_NET_COUNT = {
    "q_sqrt2": q_sqrt2,
    "q_sqrt3": q_sqrt3,
    "q_sqrt5": q_sqrt5,
    "cubic_81": cubic_81,
    "cubic_148": cubic_148,
    "quartic_725": quartic_725,
}


def maximal_order(name, fld):
    """Ring of integers per fixture: the power basis except for x^2 - 5,
    where the units live in Z[(1+sqrt5)/2] (validated user basis)."""
    from shintani.ideals import integral_basis

    if name == "q_sqrt5":
        return integral_basis(fld, [fld.one, fld.element([F12, F12])])
    return integral_basis(fld)


def with_embedding_order(fld, order):
    """The same field with its embeddings reordered: the isolated roots and
    the irreducibility verdict are shared, not recomputed."""
    other = copy.copy(fld)
    other._order_embeddings(order)
    return other


def field_to_json(fld, units):
    """The "field" object of a job file."""
    return {"poly": [int(c) for c in fld.poly],
            "units": [[str(c) for c in u.coeffs] for u in units]}


def parallelepiped_index(cone, lattice):
    """Exact index [lattice : Z-span of the generators], as |det G| / |det B|
    in power coordinates: the determinant oracle for the R-set cardinality,
    independent of the enumeration's own solve."""
    gens = cone.generators
    assert all(lattice.contains(g) for g in gens)
    n = lattice.order.field.degree
    g_det = mat_det([[g.coeffs[i] for g in gens] for i in range(n)])
    b, d = lattice.power_basis_matrix()
    return int(abs(g_det / mat_det(b) * d ** n))


def lattice_basis(lattice):
    """The lattice's basis as field elements, the columns of its power-basis
    matrix."""
    b, d = lattice.power_basis_matrix()
    return [lattice.order.field.element([Fraction(x, d) for x in col]) for col in zip(*b)]
