import itertools
import math
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

from shintani import oracle, zeta

from shintani import domain
from shintani.domain import build_signed_domain, cheapest_basis, is_true_domain
from shintani.errors import (
    DependentUnits,
    InputError,
    NotAUnit,
    NonMonogenicPrime,
    NotTotallyPositive,
    TailBoundUnachievable,
    UnitOutsideOrder,
    ZeroElement,
)
from shintani.exactlinalg import mat_det
from shintani.ideals import (
    FractionalIdeal,
    coset_enumerate_R,
    ideal_inverse,
    integral_basis,
    principal_ideal,
    ideal_mul,
    ideal_add,
    smallest_positive_rational_integer,
)
from shintani.kernels import box_sum, em, reference, scalar
from shintani.zeta import (
    CharacterTable,
    ZetaParams,
    ZetaValue,
    dedekind_zeta_via_domain,
    euler_product_oracle,
    l_function,
    partial_zeta,
    shintani_zeta,
    tail_bound,
    trivial_character,
)

from shintani.polyroots import poly_discriminant

from fixtures import (
    ALL_NET_COUNT,
    DEPENDENT_UNITS,
    cubic_81,
    cubic_signed_witness,
    maximal_order,
    q_sqrt2,
    q_sqrt3,
    q_sqrt5,
    q_zeta11_plus,
    q_zeta13_plus,
    quartic_725,
)


@pytest.fixture(scope="module")
def dom2():
    fld, units = q_sqrt2()
    return fld, units, build_signed_domain(units, fld), integral_basis(fld)


def test_box_sum_monotone_in_radius(dom2):
    fld, units, dom, order = dom2
    cone = dom.cones[0]
    z = [1.0, 1.0]
    gens = [[1.0, 1.0],
            [float(iv.mid_fraction()) for iv in fld.embed_iv(units[0], 64)]]
    vals = [box_sum(z, gens, 2.0, m) for m in (10, 20, 40, 80, 160)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a                     # positive terms


def test_tail_bound_is_true_upper_bound(dom2):
    # doubling the radius adds less than the reported tail at the old radius
    fld, units, dom, order = dom2
    gens = [[1.0, 1.0],
            [float(iv.mid_fraction()) for iv in fld.embed_iv(units[0], 64)]]
    for radius in (50, 100, 200):
        s1 = box_sum([1.0, 1.0], gens, 2.0, radius)
        s2 = box_sum([1.0, 1.0], gens, 2.0, 4 * radius)
        gap = s2 - s1
        assert gap <= tail_bound(2, 2.0, 1, radius)
        assert gap >= 0


@pytest.mark.parametrize("n,s", [(2, 2.0), (3, 2.0), (3, 2.5), (4, 2.0)])
def test_tail_bound_tight_on_all_ones(n, s):
    # all-ones generators and z = 1: N(sum m_i f_i) = |m|^n exactly, and
    # the shell |m| = k holds C(k+n-1, n-1) terms (1+k)^(-ns); the shells
    # 40 < k <= 160 take most of the bound at level 40
    shell = math.fsum(math.comb(k + n - 1, n - 1) * (1.0 + k) ** (-n * s)
                      for k in range(41, 161))
    assert 0.6 * tail_bound(n, s, 1, 40) <= shell <= tail_bound(n, s, 1, 40)


@pytest.mark.parametrize("name", sorted(ALL_NET_COUNT))
def test_cone_norms_dominate_simplex_level(name):
    # the AM-GM step of the tail bound, exactly: N(sum m_i f_i) >= |m|^n
    fld, units = ALL_NET_COUNT[name]()
    dom = build_signed_domain(units, fld)
    rng = random.Random(name)
    for cone in dom.cones:
        assert all(g.norm() == 1 for g in cone.generators)
        for _ in range(25):
            m = [rng.choice((0, 1, rng.randint(0, 40))) for _ in cone.generators]
            if not any(m):
                continue
            elem = fld.element([Fraction(0)] * fld.degree)
            for mi, g in zip(m, cone.generators):
                elem = elem + g * mi
            assert elem.norm() >= sum(m) ** fld.degree


def _exact_simplex_sum(fld, z, gens, s, radius, scale):
    conj = lambda e: [mpmath.mpf(iv.mid_fraction().numerator)
                      / iv.mid_fraction().denominator
                      for iv in fld.embed_iv(e, 256)]
    zc, gc = conj(z), [conj(g) for g in gens]
    n = fld.degree
    total = mpmath.mpf(0)
    for m in itertools.product(range(radius + 1), repeat=n):
        if sum(m) <= radius:
            prod = mpmath.mpf(1)
            for j in range(n):
                prod *= zc[j] + scale * sum(m[i] * gc[i][j] for i in range(n))
            total += prod ** -s
    return total


@pytest.mark.parametrize("make,s,scale,target", [
    (q_sqrt2, 2.0, 1, 2e-4), (q_sqrt2, 2.5, 3, 1e-6),
    (cubic_81, 2.0, 1, 3e-5), (cubic_81, 3.0, 2, 1e-11),
    (quartic_725, 2.0, 1, 1e-5), (quartic_725, 2.5, 1, 1e-7)])
def test_roundoff_allowance_covers_mpmath_sum(make, s, scale, target):
    # the float simplex sum is within the derived roundoff allowance of the
    # exact sum of the exact conjugates, and the allowance stays small; the
    # allowance is the error bound less the tail the sum used (the smaller
    # of the AM-GM and the face bound at its level)
    fld, units = make()
    dom = build_signed_domain(units, fld)
    for cone in dom.cones[:2]:
        z = fld.one + cone.generators[-1]
        zv = shintani_zeta(s, z, cone, ZetaParams(target_error=target), scale)
        radius, tail = zeta._cone_level(cone, s, scale, target)
        assert zv.radius == radius and 8 <= radius <= 60
        assert zv.terms == math.comb(zv.radius + fld.degree, fld.degree)
        roundoff = zv.error_bound - tail
        with mpmath.workprec(160):
            exact = _exact_simplex_sum(fld, z, cone.generators, s, zv.radius, scale)
            assert abs(mpmath.mpf(zv.value) - exact) <= roundoff
        assert 0 < roundoff <= 1e-13 * zv.value


def test_required_radius_minimal(monkeypatch):
    # a cone's level is the least L >= 4 whose bound meets the target: the
    # smaller of the AM-GM and the face bound, and with the face sums
    # patched to None the AM-GM bound alone, at a level no lower
    cases = [(q_sqrt2, 2.0, 1, 1e-6), (cubic_81, 2.0, 1, 2e-7), (cubic_81, 1.5, 2, 1e-4)]
    levels = {}
    for faces in (True, False):
        if not faces:
            monkeypatch.setattr(zeta, "_face_sums", lambda cone, s: None)
        for make, s, scale, target in cases:
            fld, units = make()
            cone = build_signed_domain(units, fld).cones[0]
            n, sums = fld.degree, zeta._face_sums(cone, s)
            assert (sums is None) == (not faces)

            def bound(level):
                amgm = tail_bound(n, s, scale, level)
                return amgm if sums is None else min(
                    amgm, zeta._face_tail_bound(n, s, scale, level, sums))

            level, tail = zeta._cone_level(cone, s, scale, target)
            assert tail == bound(level) <= target
            assert level == 4 or bound(level - 1) > target
            levels[faces, make, s] = level
    for make, s, _scale, _target in cases:
        assert levels[True, make, s] <= levels[False, make, s]


def test_required_radius_cap(monkeypatch):
    # no level up to the cap meets the target, with the face bound or without
    fld, units = q_sqrt2()
    cone = build_signed_domain(units, fld).cones[0]
    with pytest.raises(TailBoundUnachievable, match="needs radius beyond the cap 200000"):
        zeta._cone_level(cone, 1.1, 1, 1e-12)
    monkeypatch.setattr(zeta, "_face_sums", lambda cone, s: None)
    with pytest.raises(TailBoundUnachievable, match="needs radius beyond the cap 200000"):
        zeta._cone_level(cone, 1.1, 1, 1e-12)


def test_shintani_zeta_rejects_bad_inputs(dom2):
    fld, units, dom, order = dom2
    cone = dom.cones[0]
    with pytest.raises(ValueError):
        shintani_zeta(0.5, fld.one, cone, ZetaParams())
    with pytest.raises(NotTotallyPositive):
        shintani_zeta(2.0, fld.gen, cone, ZetaParams())
    # the block path certifies positivity from its float enclosures
    level = zeta._cone_level(cone, 2.0, 1, 1e-6)
    with pytest.raises(NotTotallyPositive):
        zeta._zeta_block(2.0, cone, [fld.one, fld.gen], level, 1, scalar.box_sums)
    with pytest.raises(ZeroElement):
        zeta._zeta_block(2.0, cone, [fld.zero], level, 1, scalar.box_sums)


def test_quadratic_zeta_pair_matches_oracle(dom2):
    # zeta_sigma(2, 1) + zeta_sigma(2, 2+sqrt2) = zeta_K(2) to 1e-6
    fld, units, dom, order = dom2
    cone = dom.cones[0]
    r = coset_enumerate_R(cone, FractionalIdeal.whole_ring(order), 0)
    params = ZetaParams(target_error=2.5e-7)
    val = 0.0
    bound = 0.0
    for z, _ in r.points:
        zv = shintani_zeta(2.0, z, cone, params)
        val += zv.value
        bound += zv.error_bound
    ev = euler_product_oracle(2.0, fld, 10 ** 6)
    assert abs(val - ev.value) <= bound + ev.error_bound
    assert bound + ev.error_bound < 1e-6


def test_l_function_trivial_character(dom2):
    fld, units, dom, order = dom2
    lv = dedekind_zeta_via_domain(2.0, units, fld, ZetaParams(target_error=5e-7))
    ev = euler_product_oracle(2.0, fld, 10 ** 6)
    assert abs(lv.value.real - ev.value) <= lv.error_bound + ev.error_bound
    assert abs(lv.value.imag) < 1e-15


def test_l_function_zero_character(dom2):
    fld, units, dom, order = dom2
    chi = CharacterTable([FractionalIdeal.whole_ring(order)], [0j],
                         FractionalIdeal.whole_ring(order))
    lv = l_function(2.0, chi, units, fld, ZetaParams(target_error=1e-4))
    assert lv.value == 0j


def test_l_function_weight_sensitivity(monkeypatch):
    # flipping the sign of one cone weight must change the result: the
    # weights are load-bearing
    fld, units = cubic_81()
    order = integral_basis(fld)
    params = ZetaParams(target_error=1e-4)
    base = l_function(2.0, trivial_character(order), units, fld, params, order=order)

    def flipped_domain(units, field, reg_sign):
        dom = signed_domain(units, field, reg_sign)
        dom.cones[1].w = -dom.cones[1].w
        return dom

    signed_domain = zeta._signed_domain
    monkeypatch.setattr(zeta, "_signed_domain", flipped_domain)
    flipped = l_function(2.0, trivial_character(order), units, fld, params, order=order)
    assert abs(base.value - flipped.value) > 1e-3


def test_partial_zeta_whole_class(dom2):
    fld, units, dom, order = dom2
    ok = FractionalIdeal.whole_ring(order)
    pv = partial_zeta(2.0, (ok, ok, units), fld, ZetaParams(target_error=5e-7))
    ev = euler_product_oracle(2.0, fld, 10 ** 6)
    assert abs(pv.value - ev.value) <= pv.error_bound + ev.error_bound


def test_partial_zeta_representative_invariance(dom2):
    # an equivalent representative (totally positive generator) changes the
    # prefactor and the R-set consistently; the value is invariant
    fld, units, dom, order = dom2
    ok = FractionalIdeal.whole_ring(order)
    gamma = fld.element([2, 1])          # 2+sqrt2, totally positive, norm 2
    a2 = principal_ideal(order, gamma)
    params = ZetaParams(target_error=1e-6)
    v1 = partial_zeta(2.0, (ok, ok, units), fld, params)
    v2 = partial_zeta(2.0, (a2, ok, units), fld, params)
    assert abs(v1.value - v2.value) <= v1.error_bound + v2.error_bound


def test_partial_zeta_decreasing_in_s(dom2):
    fld, units, dom, order = dom2
    ok = FractionalIdeal.whole_ring(order)
    params = ZetaParams(target_error=1e-5)
    vals = [partial_zeta(s, (ok, ok, units), fld, params).value for s in (2.0, 3.0, 5.0)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_euler_oracle_vs_classical_quadratic():
    # zeta_K = zeta * L(chi_8): classical Dirichlet series reference
    fld, _ = q_sqrt2()
    ev = euler_product_oracle(2.0, fld, 10 ** 5)
    L = sum((1 if n % 8 in (1, 7) else -1) * n ** -2.0
            for n in range(1, 200001) if n % 2 == 1)
    classical = math.pi ** 2 / 6 * L
    assert abs(ev.value - classical) <= ev.error_bound


def test_euler_oracle_p_doubling():
    fld, _ = cubic_81()
    e1 = euler_product_oracle(2.0, fld, 200000)
    e2 = euler_product_oracle(2.0, fld, 400000)
    assert abs(e2.value - e1.value) <= e1.error_bound
    assert e2.error_bound < e1.error_bound


def test_euler_oracle_cubic_regression():
    # stable 8-digit regression constant for x^3-3x-1 at s=2
    fld, _ = cubic_81()
    ev = euler_product_oracle(2.0, fld, 10 ** 6)
    assert abs(ev.value - 1.17224715) < 5e-7


def test_euler_oracle_non_monogenic_prime():
    from fractions import Fraction
    from shintani.field import NumberField
    fld = NumberField([-5, 0, 1])
    order = integral_basis(fld, [fld.one, fld.element([Fraction(1, 2), Fraction(1, 2)])])
    with pytest.raises(NonMonogenicPrime):
        euler_product_oracle(2.0, fld, 1000, order=order)


def test_oracle_libm_calls_within_two_ulps():
    # euler_product_roundoff allows 2 ulps to each pow, log1p and exp
    rng = random.Random(5)
    primes = oracle._sieve(10 ** 6)
    with mpmath.workprec(113):
        for _ in range(2000):
            p = float(rng.choice(primes))
            e = -rng.randint(1, 4) * rng.choice([2.0, 2.5, 3.0, rng.uniform(1.01, 12)])
            x = p ** e
            z = rng.uniform(0, 4)
            for got, exact in [(x, mpmath.mpf(p) ** e),
                               (math.log1p(-x), mpmath.log1p(-mpmath.mpf(x))),
                               (math.exp(z), mpmath.exp(z))]:
                assert abs(mpmath.mpf(got) - exact) <= 2 * math.ulp(got)


@pytest.mark.parametrize("s", [2.0, 2.5])
@pytest.mark.parametrize("name", sorted(ALL_NET_COUNT))
def test_oracle_roundoff_covers_mpmath_product(name, s):
    # the exact product over the oracle's own primes and splitting counts:
    # only the roundoff separates it from the value
    fld, _ = ALL_NET_COUNT[name]()
    n, cap = fld.degree, 10 ** 4
    ev = euler_product_oracle(s, fld, cap)
    primes = oracle._sieve(cap)
    counts = reference.splitting_counts(fld.poly, primes)
    log_val = 0.0
    for p, cnt in zip(primes, counts):
        for d, a_d in enumerate(cnt, start=1):
            if a_d:
                log_val -= a_d * math.log1p(-float(p) ** (-d * s))
    assert math.exp(log_val) == ev.value
    roundoff = zeta.euler_product_roundoff(log_val, n * len(primes), n)
    assert roundoff <= ev.error_bound
    with mpmath.workprec(200):
        log_z = -mpmath.fsum(a_d * mpmath.log1p(-mpmath.mpf(p) ** (-d * mpmath.mpf(s)))
                             for p, cnt in zip(primes, counts)
                             for d, a_d in enumerate(cnt, start=1) if a_d)
        assert abs(mpmath.mpf(ev.value) - mpmath.exp(log_z)) <= roundoff


@pytest.mark.parametrize("cap", [1, 0, -5, 2.7, True])
def test_euler_oracle_rejects_prime_cap(cap):
    fld, _ = q_sqrt2()
    with pytest.raises(InputError):
        euler_product_oracle(2.0, fld, cap)


def test_character_congruence_coprimality():
    # gamma in the cone reduces to z with the same coprimality to the
    # conductor: gamma/z is a totally positive unit times 1 mod f, so the
    # two ideals sit in the same ray class (testable without a table)
    fld, units = q_sqrt2()
    dom = build_signed_domain(units, fld)
    order = integral_basis(fld)
    f_ideal = principal_ideal(order, fld.gen)      # (sqrt2), norm 2
    lattice = ideal_inverse(f_ideal)
    cone = dom.cones[0]
    from shintani.ideals import coset_enumerate_R
    rset = coset_enumerate_R(cone, lattice, shift=0, scale=1)
    zmap = {z.coeffs: z for z, _ in rset.points}
    rng = random.Random(6)
    for _ in range(30):
        # random gamma = z + nonneg combination of generators, in the cone
        z = rng.choice(list(zmap.values()))
        gamma = z
        for g, m in zip(cone.generators, (rng.randint(0, 4), rng.randint(0, 4))):
            gamma = gamma + g * m
        gz = ideal_mul(principal_ideal(order, gamma), f_ideal)
        zz = ideal_mul(principal_ideal(order, z), f_ideal)
        coprime_g = ideal_add(gz, f_ideal).is_whole_ring()
        coprime_z = ideal_add(zz, f_ideal).is_whole_ring()
        assert coprime_g == coprime_z


def test_class_resolution_missing(dom2):
    from shintani.errors import ClassResolutionMissing
    fld, units, dom, order = dom2
    ok = FractionalIdeal.whole_ring(order)
    chi = CharacterTable([ok, principal_ideal(order, fld.element([3, 1]))],
                         [1 + 0j, -1 + 0j], ok)
    with pytest.raises(ClassResolutionMissing):
        chi.value_of(ok)
    # with a resolver the same table works
    chi2 = CharacterTable([ok, principal_ideal(order, fld.element([3, 1]))],
                          [1 + 0j, -1 + 0j], ok, resolve=lambda ideal: 0)
    assert chi2.value_of(ok) == 1 + 0j


def test_partial_zeta_nontrivial_conductor(dom2):
    # conductor (2) in Q(sqrt2): two ray classes mod (2)*infinity, and the
    # class sum must equal zeta_K(s) with the Euler factor at the ramified
    # prime above 2 removed:  sum_c zeta(s, c) = zeta_K(s) * (1 - 2^-s).
    # This drives the scaled (f = 2) coset enumeration end to end.
    fld, units, dom, order = dom2
    ok = FractionalIdeal.whole_ring(order)
    two = principal_ideal(order, fld.element([2, 0]))
    a2 = principal_ideal(order, fld.element([3, 1]))    # nontrivial class
    params = ZetaParams(target_error=3e-7)
    v1 = partial_zeta(2.0, (ok, two, units), fld, params)
    v2 = partial_zeta(2.0, (a2, two, units), fld, params)
    ev = euler_product_oracle(2.0, fld, 10 ** 6)
    lhs = v1.value + v2.value
    rhs = ev.value * (1 - 2.0 ** -2)
    assert abs(lhs - rhs) <= v1.error_bound + v2.error_bound + ev.error_bound
    # distinct classes genuinely split the series
    assert v1.value > 1.0 > 0.1 > v2.value > 0


def test_l_function_threads_deterministic(dom2):
    fld, units, dom, order = dom2
    chi = trivial_character(order)
    a = l_function(2.0, chi, units, fld, ZetaParams(target_error=1e-5, threads=1))
    b = l_function(2.0, chi, units, fld, ZetaParams(target_error=1e-5, threads=3))
    assert a.value == b.value and a.error_bound == b.error_bound


def _cubic_character_l(s):
    # chi mod 9 with chi(2) = exp(2 pi i / 3): 2 generates (Z/9)^*
    omega = mpmath.exp(2j * mpmath.pi / 3)
    chi = {pow(2, k, 9): omega ** k for k in range(6)}
    return sum(c * mpmath.zeta(s, mpmath.mpf(a) / 9) for a, c in chi.items()) / 9 ** s


@pytest.mark.parametrize("name", ["q_sqrt5", "cubic_81"])
def test_dedekind_zeta_closed_form(name):
    # zeta_K(2) = 2 pi^4 / (75 sqrt5) for Q(sqrt5); zeta(2) |L(2, chi)|^2
    # for the cyclic cubic field of conductor 9
    with mpmath.workprec(100):
        if name == "q_sqrt5":
            fld, units = q_sqrt5()
            exact = float(2 * mpmath.pi ** 4 / (75 * mpmath.sqrt(5)))
        else:
            fld, units = cubic_81()
            exact = float(mpmath.zeta(2) * abs(_cubic_character_l(2)) ** 2)
    lv = dedekind_zeta_via_domain(2.0, units, fld, ZetaParams(target_error=1e-8),
                                  order=maximal_order(name, fld))
    assert lv.error_bound <= 1e-8
    assert abs(lv.value.real - exact) <= lv.error_bound
    assert lv.value.imag == 0


def _fake_block(s, cone, points, level, scale, box_sums):
    # reports the tail of its level as each point's error bound
    return [ZetaValue(1.0, level[1], 1, level[0])] * len(points)


def test_l_function_budgets_sum_to_half_target(dom2, monkeypatch):
    # conductor (3), inert in Q(sqrt2): some R-set points are not coprime
    # to it and get no budget; the others' budgets, weighted by
    # N(af)^-s |chi|, sum to target / 2
    fld, units, dom, order = dom2
    three = principal_ideal(order, fld.element([3, 0]))
    chi = CharacterTable([FractionalIdeal.whole_ring(order)], [1 + 0j], three)
    calls = []
    # each point's level spends its whole truncation budget
    monkeypatch.setattr(zeta, "_cone_level", lambda cone, s, scale, target: (4, target))
    monkeypatch.setattr(zeta, "_zeta_block",
                        lambda *a, **kw: calls.extend(a[2]) or _fake_block(*a, **kw))
    target = 1e-3
    lv = l_function(2.0, chi, units, fld, ZetaParams(target_error=target))
    assert abs(lv.error_bound - target / 2) <= 1e-12 * target
    rset = coset_enumerate_R(dom.cones[0], ideal_inverse(three), shift=0, scale=1)
    assert 0 < len(calls) < len(rset.points)
    ok = FractionalIdeal.whole_ring(order)
    pv = partial_zeta(2.0, (ok, three, units), fld, ZetaParams(target_error=target))
    assert abs(pv.error_bound - target / 2) <= 1e-12 * target


@pytest.mark.parametrize("rep", [1, 3])
def test_trivial_character_forms_no_ideal_product_per_point(dom2, monkeypatch, rep):
    # a trivial character on one class with conductor O never reads the
    # ideal (z) af: one product per representative, however many R-set
    # points (2 for (1), 18 for (3)), and the value is the partial zeta
    fld, units, dom, order = dom2
    a = principal_ideal(order, fld.element([rep, 0]))
    ok = FractionalIdeal.whole_ring(order)
    chi = CharacterTable([a], [1 + 0j], ok)
    assert not chi.depends_on_ideal
    products = []
    monkeypatch.setattr(zeta, "ideal_mul",
                        lambda *args: products.append(args) or ideal_mul(*args))
    params = ZetaParams(target_error=1e-6)
    lv = l_function(2.0, chi, units, fld, params, order=order)
    assert len(products) == 1
    points = sum(len(coset_enumerate_R(c, ideal_inverse(a), 0).points) for c in dom.cones)
    assert points == 2 * rep * rep
    pv = partial_zeta(2.0, (a, ok, units), fld, params, order=order)
    assert lv.value.imag == 0
    assert lv.value.real == pytest.approx(pv.value, rel=1e-13)
    assert lv.error_bound == pytest.approx(pv.error_bound, rel=1e-13)


def _reference_sum(results):
    return ZetaValue(sum(r[0] for r in results), sum(r[1] for r in results),
                     sum(r[2] for r in results), max((r[3] for r in results), default=0))


def reference_l_function(s, chi, dom, order, target):
    """L(s, chi) as the job-order sum of single-point shintani_zeta terms."""
    terms = []
    for rep in chi.representatives:
        af = ideal_mul(rep, chi.conductor)
        nfac = float(af.norm()) ** (-s)
        for cone in dom.cones:
            for z, _ in coset_enumerate_R(cone, ideal_inverse(af), 0).points:
                chi_val = chi.value_of(ideal_mul(principal_ideal(order, z), af))
                terms.append((cone, z, nfac, chi_val))
    share = target / (2 * max(1, sum(t[3] != 0 for t in terms)))
    results = []
    for cone, z, nfac, chi_val in terms:
        if chi_val == 0:
            results.append((0j, 0.0, 0, 0))
            continue
        zv = shintani_zeta(s, z, cone, ZetaParams(target_error=share / nfac))
        results.append((cone.w * nfac * chi_val * zv.value,
                        nfac * abs(chi_val) * zv.error_bound, zv.terms, zv.radius))
    return _reference_sum(results)


def reference_partial_zeta(s, a, f, dom, target):
    """zeta(s, class of a mod f) as the job-order sum of single-point
    shintani_zeta terms."""
    fld = dom.cones[0].field
    f_int = smallest_positive_rational_integer(f)
    lattice = ideal_mul(ideal_inverse(a), f)
    points = [(cone, z) for cone in dom.cones
              for z, _ in coset_enumerate_R(cone, lattice, fld.one, f_int).points]
    n_a = float(a.norm())
    params = ZetaParams(target_error=target / (2 * len(points)) * n_a ** s)
    results = []
    for cone, z in points:
        zv = shintani_zeta(s, z, cone, params, scale=f_int)
        results.append((cone.w * zv.value, zv.error_bound, zv.terms, zv.radius))
    total = _reference_sum(results)
    return ZetaValue(n_a ** (-s) * total.value, n_a ** (-s) * total.error_bound,
                     total.terms, total.radius)


DEFAULT_BLOCK = zeta._BLOCK


def _spy_blocks(monkeypatch, block):
    """Sets the block budget and records the number of points of each block."""
    sizes = []
    real = zeta._zeta_block
    monkeypatch.setattr(zeta, "_BLOCK", block)
    monkeypatch.setattr(zeta, "_zeta_block",
                        lambda *a, **kw: sizes.append(len(a[2])) or real(*a, **kw))
    return sizes


@pytest.mark.parametrize("block", [1, 150, DEFAULT_BLOCK])
@pytest.mark.parametrize("threads", [1, 2])
def test_l_function_block_path_is_single_point_sum(dom2, monkeypatch, block, threads):
    # conductor (3) with two representatives: groups of two targets, dead
    # jobs (points not coprime to 3) and complex weights; blocks of one
    # point, blocks of a few with a shorter remainder, and whole groups
    fld, units, dom, order = dom2
    three = principal_ideal(order, fld.element([3, 0]))
    reps = [FractionalIdeal.whole_ring(order), principal_ideal(order, fld.element([3, 1]))]
    chi = CharacterTable(reps, [1j, -1 + 0j], three,
                         resolve=lambda ideal: int(ideal.norm()) % 2)
    target = 1e-4
    want = reference_l_function(2.5, chi, dom, order, target)
    sizes = _spy_blocks(monkeypatch, block)
    got = l_function(2.5, chi, units, fld, ZetaParams(target_error=target, threads=threads),
                     order=order)
    assert got == want
    # 16 live points at L = 12 and 112 at L = 4: slabs of N = 13 and 5
    assert sorted(sizes) == {1: [1] * 128, 150: [5, 11, 22, 30, 30, 30],
                             DEFAULT_BLOCK: [16, 112]}[block]


@pytest.mark.parametrize("block", [1, DEFAULT_BLOCK])
def test_em_blocks_are_single_point_sums_at_any_threads(dom2, monkeypatch, block):
    # at 1e-7 the conductor-3 character of the block test above puts some
    # groups at levels where `_em_wins` and the rest on the simplex sum:
    # blocks of one point and whole groups, one thread and two, give the
    # job-order sum of single-point sums bit for bit
    fld, units, dom, order = dom2
    three = principal_ideal(order, fld.element([3, 0]))
    reps = [FractionalIdeal.whole_ring(order), principal_ideal(order, fld.element([3, 1]))]
    chi = CharacterTable(reps, [1j, -1 + 0j], three,
                         resolve=lambda ideal: int(ideal.norm()) % 2)
    target = 1e-7
    want = reference_l_function(2.5, chi, dom, order, target)
    levels = []
    em_sums = em.em_sums
    monkeypatch.setattr(em, "em_sums", lambda *a: levels.append(a[3]) or em_sums(*a))
    sizes = _spy_blocks(monkeypatch, block)
    for threads in (1, 2):
        got = l_function(2.5, chi, units, fld,
                         ZetaParams(target_error=target, threads=threads),
                         order=order)
        assert got == want
    assert levels and min(levels) >= 83 and len(levels) < len(sizes)


@pytest.mark.parametrize("block", [1, 600, DEFAULT_BLOCK])
def test_partial_zeta_block_path_is_single_point_sum(monkeypatch, block):
    # the cubic_81 ray class of (2) mod (t + 2) over the domain `partial_zeta`
    # sums, that of the cheapest basis: 216 and 144 points in two cones,
    # scale 3, L = 6, N = 28, each block bit for bit its points' single-point
    # sums
    fld, units = cubic_81()
    order = integral_basis(fld)
    dom = build_signed_domain(cheapest_basis(units, fld), fld)
    a = FractionalIdeal(order, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    p3 = FractionalIdeal(order, [[1, 0, 2], [0, 1, 2], [0, 0, 3]])
    want = reference_partial_zeta(2.0, a, p3, dom, 1e-5)
    sizes = _spy_blocks(monkeypatch, block)
    got = partial_zeta(2.0, (a, p3, units), fld, ZetaParams(target_error=1e-5, threads=2),
                       order=order)
    assert got == want
    assert sorted(sizes) == {1: [1] * 360, 600: [6, 18] + [21] * 16,
                             DEFAULT_BLOCK: [70, 144, 146]}[block]


@pytest.mark.parametrize("fn", ["l_function", "partial_zeta"])
def test_units_outside_the_order_rejected(fn):
    # (3 + sqrt5)/2 is not in Z[sqrt5], the default order of x^2 - 5
    fld, units = q_sqrt5()
    order = integral_basis(fld)
    ok = FractionalIdeal.whole_ring(order)
    with pytest.raises(UnitOutsideOrder, match="order with basis"):
        if fn == "l_function":
            l_function(2.0, trivial_character(order), units, fld, ZetaParams())
        else:
            partial_zeta(2.0, (ok, ok, units), fld, ZetaParams())


# ---- the evaluator of a job: the scalar sum or NumPy's, same floats ----

@pytest.mark.parametrize("name", sorted(ALL_NET_COUNT))
def test_scalar_and_numpy_jobs_agree_bit_for_bit(name, monkeypatch):
    # every job at the threshold 0 (all NumPy) and at infinity (all scalar
    # for s in 1/2 Z): the same ZetaValue, float for float.  The conductor
    # (2) gives partial_zeta the scale 2 and l_function a zero character
    # value on the points not coprime to it.
    fld, units = ALL_NET_COUNT[name]()
    order = maximal_order(name, fld)
    two = principal_ideal(order, fld.element([2] + [0] * (fld.degree - 1)))
    whole = FractionalIdeal.whole_ring(order)
    chi = CharacterTable([whole], [1 + 0j], two)
    calls = []
    scalar_sums = zeta.kernels.scalar.box_sums
    monkeypatch.setattr(zeta.kernels.scalar, "box_sums",
                        lambda *a: calls.append(a[3]) or scalar_sums(*a))
    results = {}
    for threshold in (0, math.inf):
        monkeypatch.setattr(zeta, "_SCALAR_TERMS", threshold)
        calls.clear()
        results[threshold] = [
            l_function(s, chi, units, fld, ZetaParams(target_error=3e-3), order)
            for s in (2.0, 2.5, 3.0)] + [
            partial_zeta(s, (whole, ideal, units), fld, ZetaParams(target_error=3e-3), order)
            for s in (2.0, 2.5, 3.0) for ideal in (whole, two)]
        assert bool(calls) == (threshold == math.inf)
    assert results[0] == results[math.inf]
    # an s outside 1/2 Z stays on NumPy's np.power at any threshold
    calls.clear()
    l_function(2.25, chi, units, fld, ZetaParams(target_error=3e-3), order)
    assert calls == []


# ---- the face bound of the tail, and a reference at s = 2 ----

def _shell_sums(cone, zs, s, scale, lo, hi):
    """Lower bounds on the sums over lo < |m| <= hi of the terms of each
    shift of zs: the difference of the float simplex sums at hi and at lo,
    less the roundoff allowance of both."""
    fld = cone.field
    floats, deltas = zeta._embed_floats(fld, [*zs, *cone.generators])
    k = len(zs)
    delta = math.nextafter(max(deltas), math.inf)
    out = []
    for top, bottom in zip(*(reference.box_sums(floats[:k], floats[k:], s, level, float(scale))
                             for level in (hi, lo))):
        err = sum(zeta.kernels.box_sum_roundoff(v, fld.degree, s, level, delta)
                  for v, level in ((top, hi), (bottom, lo)))
        out.append(top - bottom - err)
    return out


def _face_sums_with(cone, s, splits):
    """The face sums c_k of a cone at a given split budget per face, for a
    degree whose faces `zeta._face_sums` leaves unbounded."""
    floats, deltas = zeta._embed_floats(cone.field, cone.generators)
    n = cone.field.degree
    delta = math.nextafter(max(deltas), math.inf)
    return [float(n)] + [
        math.fsum(zeta._face_integral([floats[i] for i in face], s, delta, splits)
                  for face in itertools.combinations(range(n), k))
        for k in range(2, n + 1)]


TAIL_FIELDS = {**ALL_NET_COUNT, "q_zeta11_plus": q_zeta11_plus}


@pytest.mark.parametrize("s", [2.0, 2.5])
@pytest.mark.parametrize("name", sorted(TAIL_FIELDS))
def test_face_tail_covers_the_shells(name, s):
    # On every cone, at shifts near 0 (where dropping z costs least) and
    # scales 1 to 3, the face bound at level L covers the exact shells
    # L + 1 ... L + K plus the face bound at L + K; q_zeta11_plus, whose
    # faces the zeta sums leave unbounded, with 4 splits per face
    fld, units = TAIL_FIELDS[name]()
    n = fld.degree
    lo, hi = (4, 12) if n == 5 else (6, 24)
    for cone in build_signed_domain(units, fld).cones:
        sums = zeta._face_sums(cone, s) if n <= 4 else _face_sums_with(cone, s, 4)
        assert sums[0] == n and all(0 < c <= math.comb(n, k) / math.factorial(k - 1)
                                    for k, c in enumerate(sums, 1))
        gens = cone.generators
        zs = [fld.one, (gens[0] + gens[-1]) * Fraction(1, 16),
              sum(gens[1:], gens[0]) * Fraction(1, 64)]
        for scale in (1, 2, 3):
            bound = [zeta._face_tail_bound(n, s, scale, level, sums) for level in (lo, hi)]
            for shells in _shell_sums(cone, zs, s, scale, lo, hi):
                assert shells + bound[1] <= bound[0]


def _exact_face_integral(rows, s):
    """J_S of the face whose generators have the float conjugates rows (two
    or three of them), by mpmath's tanh-sinh quadrature, which resolves the
    peaks of F at the vertices."""
    n = len(rows[0])

    def f(*y):
        return mpmath.fprod(mpmath.fsum(yi * r[j] for yi, r in zip(y, rows))
                            for j in range(n)) ** -s
    with mpmath.workdps(15):
        if len(rows) == 2:
            return float(mpmath.quad(lambda t: f(1 - t, t), [0, 1]))
        return float(mpmath.quad(lambda a: mpmath.quad(lambda b: f(1 - a - b, a, b),
                                                       [0, 1 - a]), [0, 1]))


@pytest.mark.parametrize("name", sorted(ALL_NET_COUNT))
def test_face_integrals_bound_the_exact_ones(name):
    # every edge of every cone (and the top faces of cubic_81, the tight
    # case of the lfun-conductor jobs): the certified J_S at its split
    # budget lies above the quadrature, and within 1.5x of it for an edge
    # at n <= 3 and 2x for cubic_81's top faces
    fld, units = ALL_NET_COUNT[name]()
    n = fld.degree
    faces = {}
    for cone in build_signed_domain(units, fld).cones:
        floats, deltas = zeta._embed_floats(fld, cone.generators)
        for k in (2, 3) if name == "cubic_81" else (2,):
            for face in itertools.combinations(range(n), k):
                key = frozenset(cone.generators[i].coeffs for i in face)
                faces[key] = ([floats[i] for i in face],
                              math.nextafter(max(deltas[i] for i in face), math.inf))
    for rows, delta in faces.values():
        k = len(rows)
        bound = zeta._face_integral(rows, 2.0, delta, zeta._face_splits(n, k))
        exact = _exact_face_integral(rows, 2.0)
        assert exact <= bound
        if n <= 3:
            assert bound <= {2: 1.5, 3: 2.0}[k] * exact


class _SlowNumbering(dict):
    """A generator numbering whose size, once read, is handed back only
    after the other threads have run: without the lock, two threads read
    the same size and give two generators one number."""

    def __len__(self):
        size = super().__len__()
        time.sleep(1e-3)
        return size


def test_face_bounds_shared_by_threads():
    # eight threads summing the six cones of a fresh quartic field at once,
    # with a short switch interval and a numbering that yields between
    # reading its size and storing the number, number its generators and
    # fill its face cache without a lost update: every value is the serial
    # one
    params = ZetaParams(target_error=1e-3)
    fld, units = quartic_725()
    serial = [shintani_zeta(2.0, fld.one, c, params)
              for c in build_signed_domain(units, fld).cones]
    fld, units = quartic_725()
    cones = build_signed_domain(units, fld).cones
    fld._face_cache["generators"] = _SlowNumbering()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(shintani_zeta, 2.0, fld.one, c, params) for c in cones * 4]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == serial * 4


# zeta_K(-1) of each fixture field (generalised Bernoulli numbers) and the
# target of its zeta at s = 2 (q_sqrt2's goes to the Euler-Maclaurin rows)
ZETA_AT_MINUS_ONE = {
    "q_sqrt2": (q_sqrt2, Fraction(1, 12), 1e-10),
    "cubic_81": (cubic_81, Fraction(-1, 9), 1e-6),
    "cubic_signed_witness": (cubic_signed_witness, Fraction(-1, 9), 1e-6),
    "quartic_725": (quartic_725, Fraction(2, 15), 1e-6),
    "q_zeta11_plus": (q_zeta11_plus, Fraction(-20, 33), 1e-5),
    "q_zeta13_plus": (q_zeta13_plus, Fraction(152, 39), 1e-2),
}


@pytest.mark.parametrize("name", sorted(ZETA_AT_MINUS_ONE))
def test_zeta_at_two_matches_the_functional_equation(name):
    # zeta_K(2) = (-2)^n pi^(2n) zeta_K(-1) / d_K^(3/2) (Siegel), with
    # d_K = disc(f) for these monogenic fields of narrow class number 1:
    # every value lies within its error bound of it
    make, zeta_m1, target = ZETA_AT_MINUS_ONE[name]
    fld, units = make()
    n = fld.degree
    with mpmath.workdps(40):
        ref = ((-2) ** n * mpmath.pi ** (2 * n) * zeta_m1.numerator / zeta_m1.denominator
               / mpmath.mpf(poly_discriminant(fld.poly)) ** 1.5)
        zv = dedekind_zeta_via_domain(2.0, units, fld, ZetaParams(target_error=target))
        assert zv.value.imag == 0 and 0 < zv.error_bound <= target
        assert abs(zv.value.real - ref) <= zv.error_bound


# ---- independent exact references for real quadratic fields ----

def divisor_sum_zeta_minus_one(d):
    """zeta_K(-1) of the real quadratic field of discriminant d from
    Siegel's divisor sum (Zagier 1976): (1/60) sum over b^2 < d, b = d mod 2,
    of sigma_1((d - b^2)/4).  It needs no cones, units or ideals."""
    def sigma1(m):
        return sum(q for q in range(1, m + 1) if m % q == 0)
    top = math.isqrt(d - 1)
    return Fraction(sum(sigma1((d - b * b) // 4) for b in range(-top, top + 1)
                        if (b - d) % 2 == 0), 60)


def test_divisor_sum_gives_the_bernoulli_values():
    # the generalised Bernoulli values of Q(sqrt5), Q(sqrt2) and Q(sqrt3)
    assert [divisor_sum_zeta_minus_one(d) for d in (5, 8, 12)] == [
        Fraction(1, 30), Fraction(1, 12), Fraction(1, 6)]
    assert divisor_sum_zeta_minus_one(8) == ZETA_AT_MINUS_ONE["q_sqrt2"][1]


def _narrow_classes_q_sqrt3():
    fld, units = q_sqrt3()
    order = integral_basis(fld)
    whole = FractionalIdeal.whole_ring(order)
    return fld, units, [whole, FractionalIdeal(order, [[1, 1], [0, 2]])], whole


@pytest.mark.parametrize("name", ["q_sqrt2", "q_sqrt3"])
def test_zeta_at_two_brackets_the_divisor_sum(name):
    # float to exact: the domain's zeta_K(2) +- its bound, mapped through
    # zeta_K(-1) = zeta_K(2) d^(3/2) / (4 pi^4) in interval arithmetic, must
    # hold the divisor sum's rational.  Q(sqrt3) has narrow class number 2:
    # zeta_K is the sum of its two narrow classes.  At 1e-9 these sums go
    # to the Euler-Maclaurin evaluator (L in the tens of thousands), and the
    # interval is below 10^-9 wide, so a wrong discriminant or a unit of
    # index 2 lands far outside it
    target = 1e-9
    if name == "q_sqrt2":
        fld, units = q_sqrt2()
        zvs = [dedekind_zeta_via_domain(2.0, units, fld, ZetaParams(target_error=target))]
        d = 8
    else:
        fld, units, classes, whole = _narrow_classes_q_sqrt3()
        zvs = [partial_zeta(2.0, (a, whole, units), fld, ZetaParams(target_error=target))
               for a in classes]
        d = 12
    assert all(zv.radius > 10 ** 4 and 0 < zv.error_bound <= target for zv in zvs)
    value = math.fsum(zv.value.real for zv in zvs)
    bound = sum(zv.error_bound for zv in zvs)
    iv, dps = mpmath.iv, mpmath.iv.dps
    exact = divisor_sum_zeta_minus_one(d)
    try:
        iv.dps = 40
        zeta2 = iv.mpf(value) + iv.mpf([-bound, bound])
        zeta_m1 = zeta2 * iv.mpf(d) ** 1.5 / (4 * iv.pi ** 4)
        want = iv.mpf(exact.numerator) / exact.denominator
        assert zeta_m1.a <= want.a and want.b <= zeta_m1.b
        assert zeta_m1.b - zeta_m1.a < 1e-9
    finally:
        iv.dps = dps
    # and exact to float, from the same rational
    with mpmath.workdps(40):
        ref = 4 * mpmath.pi ** 4 * exact.numerator / exact.denominator / mpmath.mpf(d) ** 1.5
        assert abs(value - ref) <= bound


# ---- the basis a sum runs over ----

def _zeta_two_from_minus_one(fld, zeta_m1):
    """zeta_K(2) = (-2)^n pi^(2n) zeta_K(-1) / d_K^(3/2) (Siegel), for the
    monogenic fixture fields (d_K = disc(f))."""
    n = fld.degree
    with mpmath.workdps(40):
        return ((-2) ** n * mpmath.pi ** (2 * n) * zeta_m1.numerator / zeta_m1.denominator
                / mpmath.mpf(poly_discriminant(fld.poly)) ** 1.5)


def _r_set_points(units, fld):
    # the cost the search minimises: points of the R-sets of O, the lattice
    # of covolume 1 in power coordinates for these monogenic fields
    return sum(len(coset_enumerate_R(c, ideal_inverse(FractionalIdeal.whole_ring(
        integral_basis(fld))), 0).points) for c in build_signed_domain(units, fld).cones)


@pytest.mark.parametrize("name", ["cubic_signed_witness", "quartic_725"])
def test_basis_cost_counts_the_r_set_points(name):
    # the search's cost is the number of R-set points of O over the cones,
    # whatever the cones' signs: the witness has a w = -1 cone, and the
    # quartic fixture's determinants alternate in sign with the permutation
    fld, units = {"cubic_signed_witness": cubic_signed_witness,
                  "quartic_725": quartic_725}[name]()
    for basis in (units, cheapest_basis(units, fld)):
        assert domain._basis_cost(basis, fld, math.inf) == _r_set_points(basis, fld)


def test_witness_units_own_domain_sums_zeta_with_a_negative_cone():
    # the cheapest basis of the witness's group gives a true domain, so
    # `l_function` meets no w = -1 cone there; the witness units' own
    # domain has one, and summed over it, term by term, with its weight -1,
    # zeta_K(2) still lies within its bound of Siegel's zeta_K(-1) = -1/9
    fld, units = cubic_signed_witness()
    order = integral_basis(fld)
    assert is_true_domain(build_signed_domain(cheapest_basis(units, fld), fld))
    dom = build_signed_domain(units, fld)
    assert sorted(c.w for c in dom.cones) == [-1, 1]
    chi = trivial_character(order)
    target = 1e-3
    zv = reference_l_function(2.0, chi, dom, order, target)
    ref = _zeta_two_from_minus_one(fld, Fraction(-1, 9))
    assert zv.value.imag == 0 and abs(zv.value.real - ref) <= zv.error_bound <= target
    # without the negative cone the sum is off by far more than the bounds
    positive = SimpleNamespace(cones=[c for c in dom.cones if c.w == 1])
    part = reference_l_function(2.0, chi, positive, order, target)
    assert abs(part.value.real - ref) > 100 * (zv.error_bound + part.error_bound)


def _unimodular(rng, r):
    while True:
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        if abs(mat_det(a)) == 1:
            return a


def test_cheapest_basis_does_not_depend_on_the_basis_typed():
    # three random bases of the quartic fixture's group (unimodular
    # exponent matrices with entries in [-3, 3]) cost 62, 264 and 10 952
    # R-set points; from each the search reaches within 2x of the greedy
    # cost from the fixture's own basis, and zeta_K(2) agrees within the
    # summed bounds
    fld, units = quartic_725()
    rng = random.Random(16)
    params = ZetaParams(target_error=1e-4)
    greedy = _r_set_points(cheapest_basis(units, fld), fld)
    base = dedekind_zeta_via_domain(2.0, units, fld, params)
    for _ in range(3):
        a = _unimodular(rng, len(units))
        typed = [math.prod((u ** e for u, e in zip(units, row)), start=fld.one) for row in a]
        assert _r_set_points(cheapest_basis(typed, fld), fld) <= 2 * greedy
        zv = dedekind_zeta_via_domain(2.0, typed, fld, params)
        assert abs(zv.value - base.value) <= zv.error_bound + base.error_bound


def test_quartic_zeta_terms_budget():
    # zeta_K(2) of quartic_725 at 1e-6 took 6 026 800 terms over the
    # fixture's basis; over the cheapest basis it takes under 10^6
    fld, units = quartic_725()
    zv = dedekind_zeta_via_domain(2.0, units, fld, ZetaParams(target_error=1e-6))
    assert zv.terms <= 10 ** 6


@pytest.mark.parametrize("name", ["q_sqrt2", "cubic_81", "quartic_725", "q_zeta11_plus",
                                  "q_zeta13_plus"])
def test_basis_search_stays_within_its_budget(name, monkeypatch):
    # the search prices at most _SEARCH_ELIMINATIONS / (n - 1)! bases, and
    # none at n = 2 (one unit) or n >= 5 (a sweep does not fit)
    fld, units = {**ALL_NET_COUNT, "q_zeta11_plus": q_zeta11_plus,
                  "q_zeta13_plus": q_zeta13_plus}[name]()
    dets = []
    eliminate = domain._eliminate
    monkeypatch.setattr(domain, "_eliminate", lambda *a: dets.append(a) or eliminate(*a))
    chosen = cheapest_basis(units, fld)
    assert len(dets) <= domain._SEARCH_ELIMINATIONS
    if fld.degree in (2, 5, 6):
        assert dets == [] and chosen == units
    else:
        assert 0 < len(dets) and chosen != units


@pytest.mark.parametrize("units, error", [
    (DEPENDENT_UNITS["cubic_81-e1-e1^2"]()[1], DependentUnits),
    ([cubic_81()[0].element([2, 0, 0]), cubic_81()[1][1]], NotAUnit),
    ([cubic_81()[0].gen, cubic_81()[1][1]], NotTotallyPositive)],
    ids=["dependent", "not-a-unit", "not-totally-positive"])
def test_units_are_checked_before_the_search(units, error, monkeypatch):
    fld = units[0].field
    order = integral_basis(fld)
    monkeypatch.setattr(zeta, "cheapest_basis", lambda *a: pytest.fail("searched"))
    with pytest.raises(error):
        l_function(2.0, trivial_character(order), units, fld, ZetaParams(), order=order)
