import hashlib
import itertools
import random
from fractions import Fraction

import mpmath
import pytest

from shintani.domain import (
    FLAG_CLOSED,
    FLAG_OPEN,
    SignedCone,
    _signed_cone,
    build_signed_domain,
    colmez_generators,
    cone_contains,
    is_true_domain,
    orbit_net_count,
    sample_point,
    verify_net_counts,
)
from shintani.dyadic import Iv
from shintani.errors import (
    DependentUnits,
    InputError,
    NotAUnit,
    NotTotallyPositive,
    UndecidableSign,
)
from shintani.field import FieldElement
from shintani.geometry import adaptive_vector, field_map

from crosscheck import YNotInSimplex, cone_contains_via_simplex, pierces_cone
from fixtures import (
    cubic_81,
    cubic_signed_witness,
    q_sqrt2,
    q_zeta11_plus,
    q_zeta13_plus,
    q_zeta17_plus,
    quartic_725,
    with_embedding_order,
)


def test_colmez_generators_quadratic():
    fld, units = q_sqrt2()
    gens = colmez_generators(units, (0,), fld)
    assert gens == [fld.one, units[0]]


def test_colmez_generators_cubic_swapped():
    fld, units = cubic_81()
    gens = colmez_generators(units, (1, 0), fld)
    assert gens == [fld.one, units[1], units[1] * units[0]]


def test_full_product_independent_of_sigma():
    fld, units = quartic_725()
    import itertools
    full = {tuple(colmez_generators(units, s, fld)[-1].coeffs)
            for s in itertools.permutations(range(3))}
    assert len(full) == 1


def test_build_quadratic_domain_hand():
    # exactly one cone, w = +1, flags (open, closed):
    # C = {t1*1 + t2*eps : t1 > 0, t2 >= 0}
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    assert len(dom.cones) == 1
    cone = dom.cones[0]
    assert cone.w == 1
    assert cone.flags == (FLAG_OPEN, FLAG_CLOSED)
    assert cone.generators == (fld.one, units[0])
    assert is_true_domain(dom)


def test_build_quadratic_domain_inverse_unit():
    fld, units = q_sqrt2()
    dom = build_signed_domain([units[0].inverse()], fld)
    assert len(dom.cones) == 1
    assert dom.cones[0].w == 1
    assert is_true_domain(dom)


def test_build_cubic_domain_regression():
    fld, units = cubic_81()
    dom = build_signed_domain(units, fld)
    got = {c.sigma: (c.w, c.flags) for c in dom.cones}
    assert got == {
        (0, 1): (1, (FLAG_OPEN, FLAG_CLOSED, FLAG_CLOSED)),
        (1, 0): (1, (FLAG_OPEN, FLAG_OPEN, FLAG_CLOSED)),
    }


def test_signed_witness_domain():
    fld, units = cubic_signed_witness()
    dom = build_signed_domain(units, fld)
    ws = {c.sigma: c.w for c in dom.cones}
    assert ws == {(0, 1): -1, (1, 0): 1}
    assert not is_true_domain(dom)


def test_build_validation_errors():
    fld, units = q_sqrt2()
    with pytest.raises(NotAUnit):
        build_signed_domain([fld.element([2, 0])], fld)
    with pytest.raises(NotTotallyPositive):
        build_signed_domain([fld.element([1, 1])], fld)   # 1+sqrt2: unit of norm -1
    with pytest.raises(DependentUnits):
        build_signed_domain([fld.element([1, 0])], fld)  # the unit 1 is dependent


def test_cone_contains_hand_cases():
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    cone = dom.cones[0]
    # x = 1+eps interior
    assert cone_contains(cone, fld.one + units[0])
    # x = (1,1) = field one: t = (1, 0), closed flag at generator 2
    assert cone_contains(cone, fld.one)
    # x = eps: t = (0, 1) violates the open flag at generator 1
    assert not cone_contains(cone, units[0])


def test_cone_contains_vector_inputs():
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    cone = dom.cones[0]
    assert cone_contains(cone, (1.0, 2.0))
    assert not cone_contains(cone, (1.0, 40.0))   # far outside the cone


def test_membership_agrees_with_piercing_and_simplex():
    for make in (q_sqrt2, cubic_81, cubic_signed_witness):
        fld, units = make()
        dom = build_signed_domain(units, fld)
        rng = random.Random(5)
        n = fld.degree
        for _ in range(40):
            x = tuple(Fraction(rng.uniform(0.05, 10.0)) for _ in range(n))
            for cone in dom.cones:
                inside = cone_contains(cone, x)
                try:
                    pier = pierces_cone(
                        tuple(Fraction(int(i == n - 1)) for i in range(n)),
                        x, cone.inverse, fld)
                except YNotInSimplex:
                    pier = False
                assert inside == pier
                assert inside == cone_contains_via_simplex(cone, x)


def test_negated_points_are_outside_on_every_route():
    # l(-x) = l(x) and x is inside, so the simplex route must read the sign
    # of x_n itself; -1 once climbed to the cap there, -(1, 2) was let in
    fld, (eps,) = q_sqrt2()
    (cone,) = build_signed_domain([eps], fld).cones
    for x in ((1, 2), fld.one, fld.one + eps):
        assert cone_contains(cone, x) and cone_contains_via_simplex(cone, x)
        neg = -x if isinstance(x, FieldElement) else tuple(-c for c in x)
        assert not cone_contains(cone, neg)
        with pytest.raises(YNotInSimplex):
            pierces_cone((0, 1), neg, cone.inverse, fld)
        assert not cone_contains_via_simplex(cone, neg)


def test_contains_vector_honours_its_cap():
    # 1 = f_1 has two coordinates exactly 0 on irrational faces, so no rung
    # decides them: the ladder stops at the cap it is given, not the field's
    fld, units = cubic_81()
    cone = build_signed_domain(units, fld).cones[0]
    asked = []

    def vfn(prec):
        asked.append(prec)
        return adaptive_vector((1, 1, 1))(prec)

    with pytest.raises(UndecidableSign, match=r"\b128 bits"):
        cone.contains_vector(vfn, 128)
    assert max(asked) == 128 < fld.prec_cap


def test_orbit_net_count_unit_point():
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    count, hits = orbit_net_count(dom, fld.one)
    assert count == 1
    assert hits == [((0,), (0,))]


@pytest.mark.parametrize("x", [[-1, 2], [0, 1], [1.0, -2.0]])
def test_orbit_net_count_rejects_a_vector_not_totally_positive(x):
    # a coordinate vector is checked entry by entry where it comes in
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    with pytest.raises(NotTotallyPositive):
        orbit_net_count(dom, x)


@pytest.mark.parametrize("x", [[1, 2, 3], [2]])
def test_orbit_net_count_rejects_a_vector_of_the_wrong_length(x):
    # n = 2 coordinates, no more and no fewer: an extra entry was dropped
    # and a short vector counted 0
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    with pytest.raises(InputError, match=f"need n = 2 coordinates, got {len(x)}"):
        orbit_net_count(dom, x)


def test_orbit_net_count_random_and_orbit_invariance():
    fld, units = cubic_81()
    dom = build_signed_domain(units, fld)
    rng = random.Random(17)
    for _ in range(20):
        x = tuple(Fraction(rng.uniform(0.05, 10.0)) for _ in range(3))
        count, hits = orbit_net_count(dom, x)
        assert count == 1
        # scale by a unit: same count, exponents shifted by -1 in that unit
        xs = tuple(c * e for c, e in zip(
            [iv.mid_fraction() for iv in fld.embed_iv(units[0], 80)], x))
        count2, hits2 = orbit_net_count(dom, xs)
        assert count2 == 1


def test_orbit_net_count_witness_multi_hit():
    # the signed domain must still net to 1 even with a -1 cone
    fld, units = cubic_signed_witness()
    dom = build_signed_domain(units, fld)
    rng = random.Random(23)
    seen_multi = False
    for _ in range(60):
        x = tuple(Fraction(rng.uniform(0.05, 10.0)) for _ in range(3))
        count, hits = orbit_net_count(dom, x)
        assert count == 1
        if len(hits) > 1:
            seen_multi = True
    assert seen_multi       # cancellations actually occur


def test_verify_net_counts_deterministic():
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    rep1 = verify_net_counts(dom, samples=25, seed=42)
    rep2 = verify_net_counts(dom, samples=25, seed=42)
    assert rep1 == rep2
    assert rep1["ok"] and rep1["samples"] == 25


def test_net_count_degree_5():
    # Q(zeta11)^+ with 24 cones: every net count of 60 seeded points is 1
    fld, units = q_zeta11_plus()
    dom = build_signed_domain(units, fld)
    assert len(dom.cones) == 24
    rep = verify_net_counts(dom, samples=60, seed=11)
    assert rep["ok"] and rep["failures"] == [] and rep["samples"] == 60


# sha256 of repr([(sigma, w, flags) per cone]) for Q(zeta13)^+, frozen from
# the domain built with per-cone interval adjugates, before cone coordinates
# went through the power basis
ZETA13_CONES = "c959e4e3aa71aca073eedb8992a5372fafc9bf1e7c60e48a6e5ea06a88a8eff4"


def test_degree_6_domain_and_net_counts():
    # Q(zeta13)^+ with 120 cones: the signs and flags are the frozen ones,
    # and every net count of 10 seeded points is 1
    fld, units = q_zeta13_plus()
    dom = build_signed_domain(units, fld)
    assert len(dom.cones) == 120
    rows = [(c.sigma, c.w, c.flags) for c in dom.cones]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ZETA13_CONES
    rep = verify_net_counts(dom, samples=10, seed=11)
    assert rep["ok"] and rep["failures"] == [] and rep["samples"] == 10


def _roots_60(fld):
    """The real roots of the defining polynomial at 60 digits, ascending:
    the field's default embedding order."""
    with mpmath.workdps(60):
        return sorted(mpmath.re(r) for r in mpmath.polyroots(
            [int(c) for c in reversed(fld.poly)], maxsteps=200, extraprec=400))


def test_degree_8_units_regulator_and_field_map():
    # Q(zeta17)^+: the units are units, the certified regulator sign is the
    # sign of the 60-digit determinant of the unit logs, and the 64-bit
    # field map's adjugate satisfies sum_j V[j][k] cof[j][i] = det [i == k]
    fld, units = q_zeta17_plus()
    fld.check_units(units)
    n = fld.degree
    roots = _roots_60(fld)
    with mpmath.workdps(60):
        logs = mpmath.matrix([[mpmath.log(mpmath.polyval([int(c) for c in reversed(u.coeffs)], t))
                               for u in units] for t in roots[:n - 1]])
        want = 1 if mpmath.det(logs) > 0 else -1
    assert fld.signed_regulator_sign(units) == want == -1
    rows = field_map(fld)._rows_at(64)
    cof, det = field_map(fld).adjugate(64)
    assert det.sign() == fld.vandermonde_sign
    for k in range(n):
        for i in range(n):
            acc = sum((rows[j][k] * cof[j][i] for j in range(n)), Iv.ZERO)
            if i == k:           # both enclose det V
                assert acc.lo_fraction() <= det.hi_fraction()
                assert det.lo_fraction() <= acc.hi_fraction()
            else:
                assert acc.contains(0)


def test_degree_8_flags_certify():
    # the flags of the first 40 cones of Q(zeta17)^+ certify through the
    # field map, and are the signs of the 60-digit coordinates of e_n
    fld, units = q_zeta17_plus()
    n = fld.degree
    reg_sign = fld.signed_regulator_sign(units)
    with mpmath.workdps(60):
        vand = mpmath.matrix([[t ** k for k in range(n)] for t in _roots_60(fld)])
        y = mpmath.lu_solve(vand, mpmath.matrix([0] * (n - 1) + [1]))
    for sigma in itertools.islice(itertools.permutations(range(n - 1)), 40):
        gens, w, inverse = _signed_cone(units, sigma, fld, reg_sign)
        assert w in (1, -1)
        cone = SignedCone(sigma, gens, w, fld, inverse)
        with mpmath.workdps(60):
            signs = [mpmath.sign(mpmath.fsum(a * yk for a, yk in zip(row, y)))
                     for row in inverse[0]]
        assert cone.flags == tuple(FLAG_CLOSED if s > 0 else FLAG_OPEN for s in signs)


@pytest.mark.parametrize("make", [cubic_81, quartic_725, q_zeta13_plus],
                         ids=lambda make: make.__name__)
def test_one_generator_pass_and_one_elimination_per_cone(make, monkeypatch):
    # the build reads w and the cone's exact inverse off one elimination of
    # the generators' coefficient matrix, formed in one generator pass
    from collections import Counter
    from math import factorial

    from shintani import domain, exactlinalg

    fld, units = make()
    calls = Counter()

    def counting(name, fn):
        def f(*args):
            calls[name] += 1
            return fn(*args)
        return f

    monkeypatch.setattr(domain, "colmez_generators",
                        counting("generators", domain.colmez_generators))
    monkeypatch.setattr(exactlinalg, "_eliminate",
                        counting("eliminations", exactlinalg._eliminate))
    build_signed_domain(units, fld)
    perms = factorial(fld.degree - 1)
    assert calls == {"generators": perms, "eliminations": perms}


def test_embedding_order_invariance_small():
    fld, units = cubic_81()
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1)):
        fld2 = with_embedding_order(fld, order)
        units2 = [fld2.element(u.coeffs) for u in units]
        dom = build_signed_domain(units2, fld2)
        for i in range(10):
            x = sample_point(9, i, 0, 3)
            count, _ = orbit_net_count(dom, x)
            assert count == 1


def test_unit_replacement_invariance_small():
    fld, units = cubic_81()
    variants = [
        [units[0].inverse(), units[1]],
        [units[1], units[0]],
        [units[0], units[0] * units[1]],
    ]
    for vu in variants:
        dom = build_signed_domain(vu, fld)
        for i in range(10):
            x = sample_point(31, i, 0, 3)
            count, _ = orbit_net_count(dom, x)
            assert count == 1


def test_true_domain_single_orbit_hit():
    fld, units = quartic_725()
    dom = build_signed_domain(units, fld)
    assert is_true_domain(dom)
    for i in range(5):
        x = sample_point(77, i, 0, 4)
        count, hits = orbit_net_count(dom, x)
        assert count == 1 and len(hits) == 1


def test_cones_json_shape():
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    obj = dom.cones[0].to_json()
    assert obj == {
        "sigma": [1],
        "w": 1,
        "generators": [["1", "0"], ["3", "2"]],
        "flags": ["open", "closed"],
    }


def test_hit_and_candidate_counts_bounded():
    # hit cardinality per cone is bounded uniformly in x, and the candidate
    # boxes have x-independent size up to integer rounding
    fld, units = cubic_signed_witness()
    dom = build_signed_domain(units, fld)
    sizes = []
    max_hits = 0
    for i in range(100):
        x = sample_point(3, i, 0, 3)
        sizes.append(sum(len(c) for _, c in dom.candidate_exponents(x)))
        _, hits = orbit_net_count(dom, x)
        per_cone = {}
        for sig, _a in hits:
            per_cone[sig] = per_cone.get(sig, 0) + 1
        max_hits = max(max_hits, max(per_cone.values(), default=0))
    assert max(sizes) - min(sizes) <= 40      # volume is x-independent
    assert max_hits <= 4


def test_weight_sum_positive_on_fixtures():
    # sanity (not a theorem): the stored weights of the main fixtures sum
    # to at least 1
    from fixtures import ALL_NET_COUNT
    for make in ALL_NET_COUNT.values():
        fld, units = make()
        dom = build_signed_domain(units, fld)
        assert sum(c.w for c in dom.cones) >= 1
