import random
from fractions import Fraction

import pytest

from shintani.dyadic import START_PREC, Iv
from shintani.errors import DependentBasis, UndecidableSign
from shintani.field import NumberField
from shintani.geometry import basis_inverse, cone_coordinates, coordinates

from crosscheck import (
    DegenerateSimplex,
    LastCoordinateZero,
    Simplex,
    YNotInSimplex,
    barycentric,
    cone_contains_via_simplex,
    fraction_solve,
    pierces_cone,
    pierces_simplex,
    project_ell,
    projected_simplex,
)
from fixtures import (
    ALL_NET_COUNT,
    cubic_81,
    q_sqrt2,
    q_zeta11_plus,
    quartic_725,
    with_embedding_order,
)

SQRT2 = Fraction("1.41421356237309504880168872420969808")


def _signs(xs):
    return tuple((x > 0) - (x < 0) for x in xs)


def exact_coordinates(z, basis, fld):
    """The exact cone coordinates A y / m of a field element z, y its
    coefficients and (A, m) the basis inverse."""
    a, m = basis_inverse(basis)
    return tuple(Fraction(sum(c * y for c, y in zip(row, z.coeffs)), m) for row in a)


def exact_barycentric(p, simplex):
    """The exact barycentric coordinates of a rational point in a simplex
    with exact vertices."""
    return tuple(fraction_solve(simplex.exact, [Fraction(c) for c in p] + [Fraction(1)]))


def test_project_ell_exact():
    assert project_ell((2, 4, 2)) == (Fraction(1), Fraction(2))
    assert project_ell((1, 1, 1, 1)) == (Fraction(1),) * 3
    with pytest.raises(LastCoordinateZero):
        project_ell((1, 2, 0))


def test_project_ell_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        x = [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(3)]
        e = [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(3)]
        ex = [a * b for a, b in zip(e, x)]
        lx, le, lex = project_ell(x), project_ell(e), project_ell(ex)
        assert all(a * b == c for a, b, c in zip(lx, le, lex))


def test_project_ell_adaptive():
    fld, (eps,) = q_sqrt2()
    lv = project_ell(eps)
    out = lv(64)
    # l(eps) = eps^(1)/eps^(2) = (3-2*sqrt2)/(3+2*sqrt2) = 17 - 12*sqrt2
    assert out[0].contains(17 - 12 * SQRT2)
    # a last coordinate enclosed by the exact point 0 is an input error
    with pytest.raises(LastCoordinateZero):
        project_ell(fld.zero)(64)


def test_cone_coordinates_basis_vector():
    fld, (eps,) = q_sqrt2()
    basis = [fld.one, eps]
    assert exact_coordinates(fld.one, basis, fld) == (Fraction(1), Fraction(0))
    assert cone_coordinates(fld.one, basis, fld) == (1, 0)


def test_cone_coordinates_e2_hand_value():
    # e_2 = c_1 * 1 + c_2 * (3+2*sqrt2): c_1 < 0 < c_2, c_2 = 1/(4*sqrt2)
    fld, (eps,) = q_sqrt2()
    assert cone_coordinates((0, 1), [fld.one, eps], fld) == (-1, 1)


def test_cone_coordinates_exact_combination():
    fld, (eps,) = q_sqrt2()
    v = fld.one * 2 + eps * 3
    assert exact_coordinates(v, [fld.one, eps], fld) == (Fraction(2), Fraction(3))
    assert cone_coordinates(v, [fld.one, eps], fld) == (1, 1)


def test_cone_coordinates_dependent_basis():
    fld, (eps,) = q_sqrt2()
    with pytest.raises(DependentBasis):
        cone_coordinates(fld.one, [eps, eps], fld)


def simplex2():
    return Simplex([(0, 0), (1, 0), (0, 1)])


def test_barycentric_vertices_and_centroid():
    s = simplex2()
    assert exact_barycentric((0, 0), s) == (Fraction(1), Fraction(0), Fraction(0))
    assert barycentric((0, 0), s) == (1, 0, 0)
    centroid = (Fraction(1, 3), Fraction(1, 3))
    assert exact_barycentric(centroid, s) == (Fraction(1, 3),) * 3
    assert barycentric(centroid, s) == (1, 1, 1)


def test_barycentric_affinity():
    s = Simplex([(0, 0), (2, 1), (1, 3)])
    rng = random.Random(3)
    for _ in range(40):
        x = (Fraction(rng.randint(-10, 10), 3), Fraction(rng.randint(-10, 10), 5))
        y = (Fraction(rng.randint(-10, 10), 7), Fraction(rng.randint(-10, 10), 2))
        t = Fraction(rng.randint(-5, 5), 4)
        mix = tuple((1 - t) * a + t * b for a, b in zip(x, y))
        bx, by, bm = (exact_barycentric(p, s) for p in (x, y, mix))
        assert all((1 - t) * a + t * b == c for a, b, c in zip(bx, by, bm))
        assert all(barycentric(p, s) == _signs(b) for p, b in ((x, bx), (y, by), (mix, bm)))


def test_pierces_simplex_basic():
    s = simplex2()
    # y interior: every segment pierces
    assert pierces_simplex((5, 5), (Fraction(1, 4), Fraction(1, 4)), s)
    # x = y on a facet: no interior point on the segment
    facet_pt = (Fraction(1, 2), 0)
    assert not pierces_simplex(facet_pt, facet_pt, s)
    # x on the positive side of the facet's missing vertex
    assert pierces_simplex((Fraction(1, 4), Fraction(1, 4)), facet_pt, s)
    with pytest.raises(YNotInSimplex):
        pierces_simplex((0, 0), (-1, -1), s)


def test_pierces_cone_hand_cases():
    fld, (eps,) = q_sqrt2()
    inverse = basis_inverse([fld.one, eps])
    e2 = (0, 1)
    # y = f_1: c(y) = (1, 0); piercing from e_2 iff c_2(e_2) > 0, which holds
    assert pierces_cone(e2, fld.one, inverse, fld)
    # y = f_2: c(y) = (0, 1); x = -f_1 has c_1 = -1 < 0
    assert not pierces_cone(-fld.one, eps, inverse, fld)
    # y interior
    assert pierces_cone((-5, -5), fld.one + eps, inverse, fld)
    with pytest.raises(YNotInSimplex):
        pierces_cone(e2, -fld.one, inverse, fld)


def test_en_has_no_zero_cone_coordinate():
    # the distinguished basis vector avoids every face hyperplane
    for make in (q_sqrt2, cubic_81):
        fld, units = make()
        from shintani.domain import build_signed_domain
        dom = build_signed_domain(units, fld)
        e_n = tuple(Fraction(int(i == fld.degree - 1)) for i in range(fld.degree))
        for cone in dom.cones:
            c = cone_coordinates(e_n, cone.generators, fld, zero_possible=False)
            assert all(s != 0 for s in c)


def test_origin_avoids_face_spans():
    # l(e_n), the origin of the slice, lies on no face span of a projected
    # simplex: e_n has no zero cone coordinate, which the flags certify
    fld, units = cubic_81()
    from shintani.domain import build_signed_domain
    dom = build_signed_domain(units, fld)
    e_n = (0,) * (fld.degree - 1) + (1,)
    for cone in dom.cones:
        assert 0 not in coordinates(e_n, cone.inverse, fld, zero_possible=False)


def test_coordinate_transfer_signs():
    # sign vector of cone coordinates (in R^n) matches sign vector of
    # barycentric coordinates of the projected point (in R^(n-1))
    fld, units = cubic_81()
    from shintani.domain import build_signed_domain
    dom = build_signed_domain(units, fld)
    cone = dom.cones[0]
    s = projected_simplex(cone)
    rng = random.Random(11)
    for _ in range(25):
        x = tuple(Fraction(rng.uniform(0.05, 20)) for _ in range(fld.degree))
        c = cone_coordinates(x, cone.generators, fld)
        b = barycentric(project_ell(x), s)
        assert c == b


def test_barycentric_interval_reconstruction():
    # interval path: a point z = sum_i c_i f_i built from nonzero rational
    # c projects to sum_i b_i l(f_i) with b_i = c_i f_i^(n) / z^(n), so for
    # a totally positive z the barycentric signs are those of c
    fld, units = cubic_81()
    from shintani.domain import build_signed_domain
    dom = build_signed_domain(units, fld)
    cone = dom.cones[0]
    s = projected_simplex(cone)
    rng = random.Random(2)
    done = 0
    while done < 10:
        c = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 9))
             for _ in range(3)]
        z = sum((f * ci for f, ci in zip(cone.generators, c)), fld.zero)
        if not fld.is_totally_positive(z):
            continue
        assert barycentric(project_ell(z), s) == _signs(c)
        done += 1


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateSimplex):
        Simplex([(0, 0), (1, 1), (2, 2)])


def test_boundary_vector_decisions():
    from shintani.domain import build_signed_domain, cone_contains
    from shintani.errors import UndecidableSign
    from shintani.field import NumberField

    # in the quadratic the diagonal face is spanned by (1,1), so a dyadic
    # point on it yields an exactly-zero coordinate: decided, no guessing
    fld = NumberField([-2, 0, 1], prec_cap=256)
    dom = build_signed_domain([fld.element([3, 2])], fld)
    assert cone_contains(dom.cones[0], (1.0, 1.0))
    assert cone_contains(dom.cones[0], fld.one)

    # in the cubic the face through the diagonal is irrational, so the same
    # dyadic point is a true boundary-grazing input: the kernel must refuse
    # rather than decide by tolerance (the exact field-element route works)
    cfld = NumberField([-1, -3, 0, 1], prec_cap=256)
    cdom = build_signed_domain([cfld.element([1, 2, 1]), cfld.element([0, 0, 1])], cfld)
    hit = [cone for cone in cdom.cones
           if cone_contains(cone, cfld.one)]
    assert len(hit) == 1
    with pytest.raises(UndecidableSign):
        for cone in cdom.cones:
            cone_contains(cone, (1.0, 1.0, 1.0))


def test_origin_piercing_matches_simplex_membership():
    # membership in the half-open simplex (decided from the flags) is the
    # same as the segment from the origin piercing the closed simplex
    from shintani.domain import build_signed_domain
    for make in (q_sqrt2, cubic_81):
        fld, units = make()
        dom = build_signed_domain(units, fld)
        n = fld.degree
        origin = (0,) * (n - 1)
        rng = random.Random(21)
        for cone in dom.cones:
            s = projected_simplex(cone)
            for _ in range(60):
                x = tuple(Fraction(rng.uniform(0.05, 12.0)) for _ in range(n))
                member = cone_contains_via_simplex(cone, x)
                try:
                    pier = pierces_simplex(origin, project_ell(x), s)
                except YNotInSimplex:
                    pier = False
                assert member == pier


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_cone_coordinates_of_a_cassini_basis_certify_at_cap_128():
    # a + b x and b + d x with ad - b^2 = 1 (Cassini) and coefficients near
    # 2^102: C^-1 = [[d, -b], [-b, a]] is exact, so no interval determinant
    # of the embedded basis is left to certify.  e_2 has power coordinates
    # (1/2, 1/(2 sqrt2)), so c_1 = (d - b/sqrt2)/2 < 0 < c_2 = (a/sqrt2 - b)/2:
    # b/d and a/b are near the golden ratio, which exceeds sqrt2
    a, b, d = _fibonacci(149), _fibonacci(148), _fibonacci(147)
    fld = NumberField([-2, 0, 1], prec_cap=128)
    basis = [fld.element([a, b]), fld.element([b, d])]
    assert cone_coordinates((0, 1), basis, fld, zero_possible=False) == (-1, 1)
    for z in (fld.element([0, 1]), fld.element([5, -3]), fld.element([-7, 5])):
        vv = lambda p, z=z: fld.embed_iv(z, p)
        assert cone_coordinates(vv, basis, fld) == cone_coordinates(z, basis, fld)


def test_cone_coordinates_near_zero_stop_at_cap():
    # z = 1 + 2^-200 eps has coordinates (1, 2^-200) in the basis (1, eps);
    # its embedding is known to about 2^-prec, so the second sign certifies
    # at 256 bits and not at 128
    for cap, ok in ((128, False), (256, True)):
        fld = NumberField([-2, 0, 1], prec_cap=cap)
        eps = fld.element([3, 2])
        z = fld.one + eps * Fraction(1, 1 << 200)
        vv = lambda p, fld=fld, z=z: fld.embed_iv(z, p)
        if ok:
            assert cone_coordinates(vv, [fld.one, eps], fld) == (1, 1)
        else:
            with pytest.raises(UndecidableSign):
                cone_coordinates(vv, [fld.one, eps], fld)


def _reordered(make, order):
    fld, units = make()
    other = with_embedding_order(fld, order)
    return other, [other.element(u.coeffs) for u in units]


# ALL_NET_COUNT, the degree-5 field, and two fields in a permuted embedding
# order, whose field map must follow the permutation
DIFFERENTIAL = dict(
    ALL_NET_COUNT, q_zeta11_plus=q_zeta11_plus,
    cubic_81_reordered=lambda: _reordered(cubic_81, (2, 0, 1)),
    quartic_725_reordered=lambda: _reordered(quartic_725, (1, 3, 0, 2)))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_interval_coordinates_enclose_the_exact_ones(name):
    # per cone, 30 seeded field elements z: the exact coordinates A y / m
    # (y = the coefficients of z) reconstruct z, and both the exact route
    # and the interval route (y = V^-1 of its embedding) give their signs
    from shintani.domain import build_signed_domain
    fld, units = DIFFERENTIAL[name]()
    dom = build_signed_domain(units, fld)
    rng = random.Random(name)
    for cone in dom.cones:
        gens = cone.generators
        done = 0
        while done < 30:
            z = fld.element([Fraction(rng.randint(-60, 60), rng.randint(1, 9))
                             for _ in range(fld.degree)])
            exact = exact_coordinates(z, gens, fld)
            if 0 in exact:                  # not generic: a face hyperplane
                continue
            assert sum((f * c for f, c in zip(gens, exact)), fld.zero) == z
            assert cone_coordinates(z, gens, fld) == _signs(exact)
            vv = lambda p, z=z: fld.embed_iv(z, p)
            assert cone_coordinates(vv, gens, fld) == _signs(exact)
            done += 1


def _around(c, k):
    """The exact dyadic interval [c - 2^k, c + 2^k]."""
    if k >= 0:
        return Iv(c - (1 << k), 0, c + (1 << k), 0)
    return Iv((c << -k) - 1, k, (c << -k) + 1, k)


def test_barycentric_signs_need_no_determinant():
    # vertices 2^100 + 1 and 2^100 known to 2^(100 - prec): the numerator
    # signs of 0 certify at 64 bits, the lifted determinant (1) only at 128;
    # its sign is certified once, up front, so the signs of 0 come back at
    # cap 64
    big = 1 << 100
    simplex = Simplex([lambda prec: [_around(big + 1, 100 - prec)],
                       lambda prec: [_around(big, 100 - prec)]], cap=128)
    assert simplex.map.adjugate(64)[1].sign() is None
    assert barycentric((0,), simplex, cap=64) == (-1, 1)


def test_project_ell_respects_field_cap():
    # p - q sqrt2 for a Pell convergent with q ~ 2^100: the last conjugate
    # (~2^-101) certifies nonzero only at 256 bits
    p, q = 1, 1
    while q < 1 << 100:
        p, q = p + 2 * q, p + q
    for cap, ok in ((128, False), (256, True)):
        fld = NumberField([-2, 0, 1], prec_cap=cap)
        x = project_ell(fld.element([p, -q]))
        if ok:
            # the ratio's sign is that of p - q sqrt2, i.e. of p^2 - 2 q^2 = +-1
            assert x(START_PREC)[0].sign() == p * p - 2 * q * q
        else:
            with pytest.raises(UndecidableSign):
                x(START_PREC)


def test_adjugate_once_per_basis_and_precision(monkeypatch):
    # cone work forms the adjugate of the field's power-basis map alone,
    # once per precision, however many cones there are; only the simplex
    # route adds adjugates, of its lifted vertex matrices
    from collections import Counter

    from shintani import geometry
    from shintani.domain import build_signed_domain, cone_contains

    calls = Counter()
    adjugate = geometry.iv_adjugate

    def key(rows):
        return tuple((iv.lo_fraction(), iv.hi_fraction()) for row in rows for iv in row)

    def counting(rows):
        calls[key(rows)] += 1
        return adjugate(rows)

    monkeypatch.setattr(geometry, "iv_adjugate", counting)
    for make in (cubic_81, quartic_725):
        calls.clear()
        fld, units = make()
        n = fld.degree
        dom = build_signed_domain(units, fld)
        dom._member_data()
        e_n = (0,) * (n - 1) + (1,)
        rng = random.Random(5)
        points = [tuple(Fraction(rng.uniform(0.05, 20)) for _ in range(n))
                  for _ in range(40)]
        inside = {}
        for cone in dom.cones:
            for x in points:
                inside[cone.sigma, x] = cone_contains(cone, x)
                try:
                    pier = pierces_cone(e_n, x, cone.inverse, fld)
                except YNotInSimplex:
                    pier = False
                assert inside[cone.sigma, x] == pier
        power = geometry.field_map(fld)
        assert set(calls) == {key(power._rows_at(p)) for p in power._adj}
        assert max(calls.values()) == 1 and len(calls) <= 2
        cone_keys = set(calls)
        for cone in dom.cones:
            for x in points:
                assert inside[cone.sigma, x] == cone_contains_via_simplex(cone, x)
        simplex_keys = set()
        for cone in dom.cones:
            smap = projected_simplex(cone).map
            simplex_keys |= {key(smap._rows_at(p)) for p in smap._adj}
        assert set(calls) - cone_keys == simplex_keys
        assert max(calls.values()) == 1


@pytest.mark.parametrize("permuted_first", [False, True])
def test_cone_coordinates_follow_the_embedding_order(permuted_first):
    # the same generators under two embedding orders: each field has its
    # own map, so sum_i c_i f_i gets the signs of c in both, in either order
    base, (e1, e2) = cubic_81()
    fields = [base, with_embedding_order(base, (1, 0, 2))]
    if permuted_first:
        fields.reverse()
    c = (Fraction(3), Fraction(-2), Fraction(5, 7))
    for fld in fields:
        gens = [fld.element(g.coeffs) for g in (base.one, e1, e1 * e2)]
        v = gens[0] * c[0] + gens[1] * c[1] + gens[2] * c[2]
        vv = lambda p, fld=fld, v=v: fld.embed_iv(v, p)
        for _ in range(2):
            assert cone_coordinates(vv, gens, fld) == (1, -1, 1)
        assert pierces_cone(vv, gens[0] + gens[2], basis_inverse(gens), fld) is False
