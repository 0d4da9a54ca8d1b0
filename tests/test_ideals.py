import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from shintani.domain import build_signed_domain
from shintani.errors import NotValidated, ZeroIdeal
from shintani.ideals import (
    FractionalIdeal,
    coset_enumerate_R,
    ideal_add,
    ideal_inverse,
    ideal_mul,
    integral_basis,
    principal_ideal,
    smallest_positive_rational_integer,
)

from crosscheck import fraction_solve
from fixtures import (
    ALL_NET_COUNT,
    cubic_81,
    cubic_signed_witness,
    lattice_basis,
    maximal_order,
    parallelepiped_index,
    q_sqrt2,
    q_sqrt5,
    quartic_725,
)


@pytest.fixture(scope="module")
def ok2():
    fld, units = q_sqrt2()
    return fld, units, integral_basis(fld)


def test_integral_basis_power(ok2):
    fld, _, order = ok2
    assert [b.coeffs for b in order.basis] == [(1, 0), (0, 1)]
    assert order.discriminant() == 8


def test_integral_basis_cubic():
    fld, _ = cubic_81()
    order = integral_basis(fld)
    assert order.discriminant() == 81


def test_user_basis_validated():
    fld, _ = q_sqrt5()
    # maximal order Z[(1+sqrt5)/2]: disc 5 = 20 / 2^2
    order = integral_basis(fld, [fld.one, fld.element([Fraction(1, 2), Fraction(1, 2)])])
    assert order.power_basis_index() == 2
    assert order.discriminant() == 5


def test_user_basis_rejected():
    fld, _ = q_sqrt2()
    with pytest.raises(NotValidated):
        integral_basis(fld, [fld.one, fld.element([0, Fraction(1, 2)])])  # theta/2 not integral
    with pytest.raises(NotValidated):
        integral_basis(fld, [fld.gen, fld.gen * 2])                        # 1 missing


def test_whole_ring_identity(ok2):
    fld, _, order = ok2
    o = FractionalIdeal.whole_ring(order)
    a = principal_ideal(order, fld.element([3, 1]))
    assert ideal_mul(a, o) == a
    assert o.is_whole_ring()
    assert o.norm() == 1


def test_sqrt2_squared_is_two(ok2):
    fld, _, order = ok2
    p = principal_ideal(order, fld.gen)
    assert p.hnf == ((2, 0), (0, 1)) and p.den == 1
    assert p.norm() == 2
    sq = ideal_mul(p, p)
    assert sq == principal_ideal(order, fld.element([2, 0]))
    assert sq.hnf == ((2, 0), (0, 2)) and sq.den == 1


def test_norm_multiplicative(ok2):
    fld, _, order = ok2
    rng = random.Random(4)
    for _ in range(20):
        a = principal_ideal(order, fld.element([rng.randint(1, 9), rng.randint(-9, 9)]))
        b = principal_ideal(order, fld.element([rng.randint(1, 9), rng.randint(-9, 9)]))
        assert ideal_mul(a, b).norm() == a.norm() * b.norm()


def test_ideal_inverse_whole_ring(ok2):
    _, _, order = ok2
    o = FractionalIdeal.whole_ring(order)
    assert ideal_inverse(o) == o


def test_ideal_inverse_sqrt2(ok2):
    fld, _, order = ok2
    p = principal_ideal(order, fld.gen)
    inv = ideal_inverse(p)
    # (sqrt2)^-1 = Z*1 + Z*(sqrt2/2): lattice (2, 0), (0, 1) over 2
    assert inv.hnf == ((2, 0), (0, 1)) and inv.den == 2
    assert ideal_mul(p, inv).is_whole_ring()


def test_ideal_inverse_roundtrip_random():
    fld, _ = cubic_81()
    order = integral_basis(fld)
    rng = random.Random(12)
    for _ in range(10):
        e = fld.element([rng.randint(1, 6), rng.randint(-5, 5), rng.randint(-5, 5)])
        if e.is_zero() or e.norm() == 0:
            continue
        a = principal_ideal(order, e)
        assert ideal_mul(a, ideal_inverse(a)).is_whole_ring()


def test_zero_ideal_rejected(ok2):
    fld, _, order = ok2
    with pytest.raises(ZeroIdeal):
        principal_ideal(order, fld.zero)


def test_ideal_json_roundtrip(ok2):
    fld, _, order = ok2
    a = ideal_inverse(principal_ideal(order, fld.gen))
    obj = a.to_json()
    assert obj == {"hnf": [[2, 0], [0, 1]], "den": 2}
    assert FractionalIdeal.from_json(order, obj) == a


def test_enumerate_R_sqrt2_hand(ok2):
    # R = {1, 2+sqrt2} with box coordinates (1, 0) and (1/2, 1/2)
    fld, units, order = ok2
    dom = build_signed_domain(units, fld)
    r = coset_enumerate_R(dom.cones[0], FractionalIdeal.whole_ring(order), 0)
    assert r.index == 2
    got = sorted((z.coeffs, tuple(Fraction(x, r.den) for x in t)) for z, t in r.points)
    assert got == [
        ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))),
        ((Fraction(2), Fraction(1)), (Fraction(1, 2), Fraction(1, 2))),
    ]


def test_enumerate_R_cardinality_matches_index():
    for make in (q_sqrt2, cubic_81, quartic_725):
        fld, units = make()
        order = integral_basis(fld)
        dom = build_signed_domain(units, fld)
        lat = FractionalIdeal.whole_ring(order)
        for cone in dom.cones:
            r = coset_enumerate_R(cone, lat, shift=0, scale=1)
            assert r.index == parallelepiped_index(cone, lat)
            assert len(r.points) == r.index


def test_enumerate_R_halfopen_membership():
    fld, units = cubic_81()
    order = integral_basis(fld)
    dom = build_signed_domain(units, fld)
    lat = FractionalIdeal.whole_ring(order)
    for cone in dom.cones:
        r = coset_enumerate_R(cone, lat, shift=0, scale=1)
        for z, t in r.points:
            t = [Fraction(x, r.den) for x in t]
            for ti, fl in zip(t, cone.flags):
                if fl == "open":
                    assert 0 < ti <= 1
                else:
                    assert 0 <= ti < 1
            # reconstruction z = sum t_i f_i
            rec = fld.zero
            for ti, g in zip(t, cone.generators):
                rec = rec + g * ti
            assert rec == z


def test_coset_enumerate_matches_plain(ok2):
    fld, units, order = ok2
    dom = build_signed_domain(units, fld)
    lat = FractionalIdeal.whole_ring(order)
    # a shift of 0 is the zero element
    plain = coset_enumerate_R(dom.cones[0], lat, shift=0, scale=1)
    coset = coset_enumerate_R(dom.cones[0], lat, shift=fld.zero, scale=1)
    assert [(z.coeffs, t) for z, t in plain.points] == \
           [(z.coeffs, t) for z, t in coset.points]


def test_coset_enumerate_scaled_cardinality(ok2):
    fld, units, order = ok2
    dom = build_signed_domain(units, fld)
    lat = FractionalIdeal.whole_ring(order)
    base = coset_enumerate_R(dom.cones[0], lat, shift=0, scale=1)
    for scale in (2, 3):
        r = coset_enumerate_R(dom.cones[0], lat, shift=0, scale=scale)
        assert len(r.points) == scale ** fld.degree * base.index
        # coset 1 + O_K = O_K here, so shifting by 1 is the same set
        r1 = coset_enumerate_R(dom.cones[0], lat, shift=fld.one, scale=scale)
        assert sorted(z.coeffs for z, _ in r.points) == \
               sorted(z.coeffs for z, _ in r1.points)


def fraction_coset_points(cone, lattice, shift, scale):
    """Reference R-set in Fraction arithmetic: for each residue u of the
    HNF diagonal box, t = G^-1 shift + N^-1 u, each t_i moved into (0, 1]
    or [0, 1) by ceil/floor, and z = G t."""
    from shintani.exactlinalg import hnf_rows

    field = lattice.order.field
    n = field.degree
    b = [[x.coeffs[i] for x in lattice_basis(lattice)] for i in range(n)]
    g_mat = [[Fraction(scale) * cone.generators[j].coeffs[i] for j in range(n)]
             for i in range(n)]
    n_cols = [fraction_solve(b, [g_mat[i][j] for i in range(n)]) for j in range(n)]
    n_mat = [[int(n_cols[j][i]) for j in range(n)] for i in range(n)]
    h = hnf_rows([[n_mat[i][j] for i in range(n)] for j in range(n)], n)
    diag = [next(x for x in row if x) for row in h]
    tau0 = fraction_solve(g_mat, list(shift.coeffs))
    n_inv_cols = [fraction_solve(n_mat, [int(i == j) for i in range(n)]) for j in range(n)]
    points = []
    for u in itertools.product(*[range(d) for d in diag]):
        t = [tau0[i] + sum(n_inv_cols[j][i] * u[j] for j in range(n)) for i in range(n)]
        tt = tuple(ti - (math.ceil(ti) - 1) if fl == "open" else ti - math.floor(ti)
                   for ti, fl in zip(t, cone.flags))
        points.append((field.element([sum(map(mul, row, tt)) for row in g_mat]), tt))
    return points


def coset_cases():
    """(name, units, order, [(lattice, shift, scale)]): on every fixture the
    whole ring, (2)^-1, (2) scaled by 2 and the whole ring scaled by 3,
    and the R-sets of the benchmark's conductor and ray-class jobs."""
    fixtures = dict(ALL_NET_COUNT, cubic_signed_witness=cubic_signed_witness)
    for name, make in fixtures.items():
        fld, units = make()
        order = maximal_order(name, fld)
        whole = FractionalIdeal.whole_ring(order)
        two = principal_ideal(order, fld.element([2] + [0] * (fld.degree - 1)))
        yield name, units, order, [(whole, 0, 1), (ideal_inverse(two), 0, 1),
                                   (two, 1, 2), (whole, 1, 3)]
    fld, units = q_sqrt2()
    order = integral_basis(fld)
    cond = [FractionalIdeal(order, [[k, 0], [0, k]]) for k in (2, 3, 7)]
    reps = [FractionalIdeal.whole_ring(order), FractionalIdeal(order, [[1, 5], [0, 7]])]
    yield "q_sqrt2-conductors", units, order, (
        [(ideal_inverse(f), 0, 1) for f in cond]
        + [(ideal_mul(ideal_inverse(a), cond[0]), 1, 2) for a in reps])
    reps = [FractionalIdeal.whole_ring(order), FractionalIdeal(order, [[2, 0], [0, 1]])]
    yield "q_sqrt2-eps4-mod3", [fld.element([577, 408])], order, [
        (ideal_mul(ideal_inverse(a), cond[1]), 1, 3) for a in reps]
    fld, units = cubic_81()
    order = integral_basis(fld)
    two = FractionalIdeal(order, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    p3 = FractionalIdeal(order, [[1, 0, 2], [0, 1, 2], [0, 0, 3]])
    reps = [FractionalIdeal.whole_ring(order), two]
    yield "cubic_81-conductors", units, order, (
        [(ideal_inverse(two), 0, 1), (ideal_inverse(p3), 0, 1)]
        + [(ideal_mul(ideal_inverse(a), p3), 1, 3) for a in reps])


@pytest.mark.parametrize("name, units, order, cases",
                         [pytest.param(*c, id=c[0]) for c in coset_cases()])
def test_coset_enumerate_matches_fraction_reference(name, units, order, cases):
    # the integer loop gives the reference's points and box coordinates,
    # the same Fractions in the same order, and every point lies in
    # shift + lattice
    fld = order.field
    dom = build_signed_domain(units, fld)
    for lattice, shift, scale in cases:
        shift = fld.element_like(shift)
        for cone in dom.cones:
            got = coset_enumerate_R(cone, lattice, shift, scale)
            want = fraction_coset_points(cone, lattice, shift, scale)
            assert [(z.coeffs, tuple(Fraction(x, got.den) for x in t))
                    for z, t in got.points] == [(z.coeffs, t) for z, t in want]
            assert all(type(x) is int for z, t in got.points for x in z.num + t + (z.den,))
            assert all(lattice.contains(z - shift) for z, _ in want)


def test_translation_completeness():
    # a random lattice point has exactly one translate in the parallelepiped
    fld, units = cubic_81()
    order = integral_basis(fld)
    dom = build_signed_domain(units, fld)
    lat = FractionalIdeal.whole_ring(order)
    rng = random.Random(8)
    for cone in dom.cones:
        r = coset_enumerate_R(cone, lat, shift=0, scale=1)
        zset = {z.coeffs for z, _ in r.points}
        for _ in range(25):
            p = fld.element([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)])
            g_mat = [[cone.generators[j].coeffs[i] for j in range(3)] for i in range(3)]
            t = fraction_solve(g_mat, list(p.coeffs))
            import math as _m
            tt = []
            for ti, fl in zip(t, cone.flags):
                tt.append(ti - (_m.ceil(ti) - 1) if fl == "open" else ti - _m.floor(ti))
            z = fld.element([sum(g_mat[i][j] * tt[j] for j in range(3)) for i in range(3)])
            # the translate is a lattice point of the R-set, and the offsets
            # are integers
            assert z.coeffs in zset
            assert all((a - b).denominator == 1 for a, b in zip(t, tt))


def test_smallest_positive_integer(ok2):
    fld, _, order = ok2
    assert smallest_positive_rational_integer(FractionalIdeal.whole_ring(order)) == 1
    assert smallest_positive_rational_integer(principal_ideal(order, fld.element([2, 0]))) == 2
    assert smallest_positive_rational_integer(principal_ideal(order, fld.gen)) == 2
    assert smallest_positive_rational_integer(
        ideal_inverse(principal_ideal(order, fld.gen))) == 1


def test_ideal_add_coprime(ok2):
    fld, _, order = ok2
    a = principal_ideal(order, fld.element([3, 1]))    # norm 7
    b = principal_ideal(order, fld.element([2, 0]))    # norm 4
    assert ideal_add(a, b).is_whole_ring()


def test_ideal_json_validation(ok2):
    fld, _, order = ok2
    import pytest as _pytest
    # (3+sqrt2) has canonical HNF [[1,5],[0,7]]
    good = FractionalIdeal.from_json(order, {"hnf": [[1, 5], [0, 7]], "den": 1})
    assert good == principal_ideal(order, fld.element([3, 1]))
    with _pytest.raises(NotValidated):
        FractionalIdeal.from_json(order, {"hnf": [[7, 4], [0, 1]], "den": 1})
    with _pytest.raises(NotValidated):
        # full lattice but not an O-module (theta * (0,1) escapes)
        FractionalIdeal.from_json(order, {"hnf": [[7, 0], [0, 1]], "den": 1})


# ---- the integer-lattice ideal code against field-element references ----

def ref_coords(order, e):
    """Order coordinates of e by a Fraction solve in the basis."""
    n = order.field.degree
    return fraction_solve([[b.coeffs[i] for b in order.basis] for i in range(n)], e.coeffs)


def ref_ideal(order, rows):
    """The module generated by rows of rational order coordinates."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return FractionalIdeal.from_int_rows(order, [[int(x * den) for x in row] for row in rows],
                                         den)


def ref_principal(order, e):
    """Z-span of e * b over the order basis, multiplied as field elements."""
    return ref_ideal(order, [ref_coords(order, e * b) for b in order.basis])


def ref_mul(a, b):
    rows = [ref_coords(a.order, x * y) for x in lattice_basis(a) for y in lattice_basis(b)]
    return ref_ideal(a.order, rows)


def ref_add(a, b):
    rows = [ref_coords(a.order, x) for x in lattice_basis(a) + lattice_basis(b)]
    return ref_ideal(a.order, rows)


def random_element(fld, rng):
    while True:
        e = fld.element([Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3)))
                         for _ in range(fld.degree)])
        if not e.is_zero():
            return e


def fixture_orders():
    for name, make in ALL_NET_COUNT.items():
        fld, _ = make()
        yield pytest.param(name, integral_basis(fld), id=name)
        if name == "q_sqrt5":
            yield pytest.param(name, maximal_order(name, fld), id="q_sqrt5-maximal")


@pytest.mark.parametrize("name, order", fixture_orders())
def test_ideal_ops_match_field_element_reference(name, order):
    rng = random.Random(name)
    fld = order.field
    for _ in range(8):
        x, y, w = (random_element(fld, rng) for _ in range(3))
        a = principal_ideal(order, x)
        assert a == ref_principal(order, x)
        b = ideal_add(principal_ideal(order, y), principal_ideal(order, w))
        assert b == ref_add(ref_principal(order, y), ref_principal(order, w))
        assert ideal_mul(a, b) == ref_mul(a, b) == ideal_mul(b, a)
        assert ideal_add(a, b) == ref_add(a, b)
        assert ideal_inverse(a) == principal_ideal(order, x.inverse())
        assert FractionalIdeal.from_json(order, ideal_mul(a, b).to_json()) == ref_mul(a, b)


def test_colon_ideal_in_non_maximal_order():
    # a = (2, 1 + sqrt5) in Z[sqrt5] is not invertible: a^2 = 2a, so
    # (O : a) = a / 2 and a (O : a) = a, not the whole ring
    fld, _ = q_sqrt5()
    order = integral_basis(fld)
    a = FractionalIdeal.from_generators(order, [fld.element([2, 0]), fld.element([1, 1])])
    assert a.hnf == ((1, 1), (0, 2)) and a.den == 1
    inv = ideal_inverse(a)
    assert inv == FractionalIdeal(order, ((1, 1), (0, 2)), 2)
    assert ideal_mul(a, inv) == a
    assert not ideal_mul(a, inv).is_whole_ring()


@pytest.mark.parametrize("name", ["q_sqrt5", "quartic_725"])
def test_inverse_in_maximal_order(name):
    # Z[(1+sqrt5)/2] (a user basis) and the monogenic quartic: every
    # nonzero ideal is invertible, including non-principal sums
    fld, _ = ALL_NET_COUNT[name]()
    order = maximal_order(name, fld)
    rng = random.Random(3)
    for _ in range(6):
        a = ideal_add(principal_ideal(order, random_element(fld, rng)),
                      principal_ideal(order, random_element(fld, rng)))
        inv = ideal_inverse(a)
        assert ideal_mul(a, inv).is_whole_ring()
        assert inv.norm() * a.norm() == 1


def test_rows_of_deficient_rank_rejected(ok2):
    _, _, order = ok2
    with pytest.raises(ZeroIdeal):
        FractionalIdeal.from_int_rows(order, [[2, 4], [1, 2]], 2)
    with pytest.raises(ZeroIdeal):
        FractionalIdeal.from_int_rows(order, [[3, 1]])
