import itertools
import math
import random
from fractions import Fraction

import pytest

from shintani.errors import (
    DegreeTooSmall,
    DependentUnits,
    InputError,
    NotIrreducible,
    NotSquarefree,
    NotTotallyPositive,
    NotTotallyReal,
    PrecisionCapExceeded,
    ZeroElement,
)
from shintani import field
from shintani.dyadic import START_PREC, Iv, iv_det
from shintani.exactlinalg import charpoly, mat_det
from shintani.field import FieldElement, NumberField, field_from_json

from crosscheck import fraction_solve
from fixtures import (
    ALL_NET_COUNT,
    DEPENDENT_UNITS,
    REDUCIBLE,
    cubic_signed_witness,
    field_to_json,
    q_zeta11_plus,
    q_zeta13_plus,
    q_zeta17_plus,
    with_embedding_order,
)

SQRT2 = Fraction("1.41421356237309504880168872420969808")


@pytest.fixture(scope="module")
def q2():
    return NumberField([-2, 0, 1])


@pytest.fixture(scope="module")
def cubic():
    return NumberField([-1, -3, 0, 1])


def test_new_field_sqrt2(q2):
    assert q2.degree == 2
    r = q2.roots_iv(40)
    assert r[0].contains(-SQRT2)
    assert r[1].contains(SQRT2)


def test_new_field_cubic_roots(cubic):
    r = cubic.roots_iv(40)
    approx = (Fraction("-1.5320888862"), Fraction("-0.3472963553"), Fraction("1.8793852415"))
    for iv, a in zip(r, approx):
        assert iv.lo_fraction() <= a + Fraction(1, 10 ** 9)
        assert iv.hi_fraction() >= a - Fraction(1, 10 ** 9)


def test_new_field_rejections():
    with pytest.raises(NotTotallyReal):
        NumberField([1, 0, 1])          # x^2 + 1
    with pytest.raises(NotSquarefree):
        NumberField([1, 2, 1])          # (x+1)^2
    with pytest.raises(DegreeTooSmall):
        NumberField([3, 1])


@pytest.mark.parametrize("poly", REDUCIBLE)
def test_reducible_polynomial_rejected(poly):
    with pytest.raises(NotIrreducible):
        NumberField(poly)


@pytest.mark.parametrize("poly", [[1, 0, -10, 0, 1], [-1, 3, 6, -4, -5, 1, 1],
                                  [-(10 ** 40 + 1), 0, 1]])
def test_irreducible_polynomial_accepted(poly):
    # sqrt2 + sqrt3, Q(zeta13)^+, and a constant term that trial division
    # could not factor in reasonable time
    assert NumberField(poly).degree == len(poly) - 1


def test_embed_rational(q2):
    out = q2.embed_iv(q2.one, START_PREC)
    for iv in out:
        assert iv.contains(Fraction(1))
        assert iv.width_fraction() == 0


def test_embed_generator(q2):
    out = q2.embed_iv(q2.gen, START_PREC)
    assert out[0].contains(-SQRT2)
    assert out[1].contains(SQRT2)
    assert all(iv.width_fraction() <= Fraction(1, 10 ** 9) for iv in out)


def test_embed_unit(q2):
    eps = q2.element([3, 2])
    out = q2.embed_iv(eps, START_PREC)
    assert out[0].contains(3 - 2 * SQRT2)     # ~0.17157
    assert out[1].contains(3 + 2 * SQRT2)     # ~5.82843
    assert out[0].is_positive()


def test_embed_precision_cap():
    # the log rows climb the ladder until the conjugates are certified
    # positive; -1 is certified negative at the first rung and stops there
    f = NumberField([-2, 0, 1], prec_cap=128)
    with pytest.raises(NotTotallyPositive):
        f.unit_logs([-f.one], START_PREC)


def test_is_totally_positive(q2):
    assert q2.is_totally_positive(q2.one)
    assert not q2.is_totally_positive(q2.gen)
    assert q2.is_totally_positive(q2.element([3, 2]))
    with pytest.raises(ZeroElement):
        q2.is_totally_positive(q2.zero)


def test_is_unit(q2, cubic):
    eps = q2.element([3, 2])
    assert q2.charpoly_of(eps) == (Fraction(1), Fraction(-6), Fraction(1))
    assert q2.is_unit(eps)
    assert not q2.is_unit(q2.element([2, 0]))
    assert cubic.is_unit(cubic.gen)           # char poly = defining poly, constant -1
    with pytest.raises(ZeroElement):
        q2.is_unit(q2.zero)


def test_is_unit_rational_coords():
    f = NumberField([-5, 0, 1])
    phi2 = f.element([Fraction(3, 2), Fraction(1, 2)])    # (3+sqrt5)/2
    assert f.is_unit(phi2)
    assert f.is_totally_positive(phi2)
    # the golden ratio has non-integral coordinates here but char poly
    # x^2 - x - 1: a unit of the maximal order, exactly as the exact
    # char-poly criterion decides
    assert f.is_unit(f.element([Fraction(1, 2), Fraction(1, 2)]))
    assert not f.is_unit(f.element([1, 1]))       # norm -4
    assert not f.is_unit(f.element([Fraction(1, 3), 0]))


def test_norm_trace_exact(q2):
    eps = q2.element([3, 2])
    assert eps.norm() == 1
    assert eps.trace() == 6
    assert q2.element([2, 0]).norm() == 4


def test_norm_containment(q2, cubic):
    # exact norm lies in the product of conjugate intervals
    for fld, coeffs in ((q2, [3, 2]), (cubic, [1, 2, 1]), (cubic, [2, -1, 3])):
        e = fld.element(coeffs)
        ivs = fld.embed_iv(e, 64)
        prod = ivs[0]
        for iv in ivs[1:]:
            prod = prod * iv
        assert prod.contains(e.norm())


def test_arithmetic_and_inverse(q2):
    eps = q2.element([3, 2])
    inv = eps.inverse()
    assert inv.coeffs == (Fraction(3), Fraction(-2))
    assert (eps * inv) == q2.one
    assert (eps ** 3) * (eps ** -3) == q2.one
    assert (eps ** 2).coeffs == (Fraction(17), Fraction(12))


def test_log_vector_zero_for_one(q2):
    (row,) = q2.unit_logs([q2.one], START_PREC)
    assert all(iv.contains(0) and iv.width_fraction() < Fraction(1, 1 << 60) for iv in row)


def test_log_vector_value(q2):
    eps = q2.element([3, 2])
    (row,) = q2.unit_logs([eps], START_PREC)
    log_eps = Fraction(-1.7627471740390861)         # log(3-2*sqrt2) to 1e-16
    assert row[0].lo_fraction() > log_eps - Fraction(1, 10 ** 15)
    assert row[0].hi_fraction() < log_eps + Fraction(1, 10 ** 15)
    assert (row[0] + row[1]).contains(0)            # the norm is 1


def test_log_vector_requires_positive(q2):
    # sqrt2 has a negative conjugate, so its log row is never formed
    with pytest.raises(NotTotallyPositive):
        q2.unit_logs([q2.gen], START_PREC)


def test_log_homomorphism(cubic):
    a = cubic.element([1, 2, 1])
    b = cubic.element([0, 0, 1])
    la, lb, lab = cubic.unit_logs([a, b, a * b], 80)
    for x, y, z in zip(la, lb, lab):
        assert (x + y - z).contains(0)


def test_signed_regulator_sign(q2):
    eps = q2.element([3, 2])
    assert q2.signed_regulator_sign([eps]) == -1
    assert q2.signed_regulator_sign([eps.inverse()]) == 1


def test_signed_regulator_antisymmetry(cubic):
    eta1 = cubic.element([1, 2, 1])
    eta2 = cubic.element([0, 0, 1])
    s = cubic.signed_regulator_sign([eta1, eta2])
    assert s in (-1, 1)
    assert cubic.signed_regulator_sign([eta2, eta1]) == -s
    assert cubic.signed_regulator_sign([eta1.inverse(), eta2]) == -s


def test_regulator_identity(q2, cubic):
    assert q2.check_regulator_identity([q2.element([3, 2])])
    assert cubic.check_regulator_identity(
        [cubic.element([1, 2, 1]), cubic.element([0, 0, 1])])


def test_embedding_order_permutation():
    f = NumberField([-2, 0, 1], embedding_order=(1, 0))
    r = f.roots_iv(40)
    assert r[0].contains(SQRT2)
    assert r[1].contains(-SQRT2)
    assert f.vandermonde_sign == -1
    eps = f.element([3, 2])
    # with the order flipped, the first log coordinate is log(3+2*sqrt2) > 0
    assert f.signed_regulator_sign([eps]) == 1


def test_field_json_roundtrip(q2):
    units = [q2.element([3, 2]), q2.element([Fraction(1, 2), Fraction(5, 3)])]
    obj = field_to_json(q2, units)
    assert obj["units"][1] == ["1/2", "5/3"]
    f2, units2 = field_from_json(obj)
    assert f2.poly == q2.poly
    assert units2[0].coeffs == units[0].coeffs
    assert units2[1].coeffs == units[1].coeffs


def test_conjugate_signs_always_certify(cubic):
    # the positivity ladder certifies every nonzero element below the cap:
    # 40 random nonzero cubic elements, each answered as its float
    # conjugates at the roots 2 cos(pi/9), 2 cos(5 pi/9), 2 cos(7 pi/9) say
    roots = [2 * math.cos(k * math.pi / 9) for k in (1, 5, 7)]
    rng = random.Random(99)
    seen = 0
    while seen < 40:
        coeffs = [rng.randint(-20, 20) for _ in range(3)]
        if not any(coeffs):
            continue
        seen += 1
        want = all(coeffs[0] + coeffs[1] * t + coeffs[2] * t * t > 0 for t in roots)
        assert cubic.is_totally_positive(cubic.element(coeffs)) == want


def test_concurrent_refinement_safe():
    import threading
    fld = NumberField([-1, -3, 0, 1])
    elem = fld.element([1, 2, 1])
    errors = []

    def worker(prec):
        try:
            out = fld.embed_iv(elem, prec)
            assert all(iv.is_positive() for iv in out)
        except Exception as exc:          # surfaced to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(64 * (1 + i % 6),))
               for i in range(24)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_norm_multiplicative_property(cubic):
    import random
    rng = random.Random(41)
    for _ in range(25):
        a = cubic.element([rng.randint(-9, 9) for _ in range(3)])
        b = cubic.element([rng.randint(-9, 9) for _ in range(3)])
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a * b).trace() == (b * a).trace()


def test_adaptive_escalation_tiny_conjugate(q2, monkeypatch):
    # eps^20 - 2p equals -(3-2*sqrt2)^20 exactly: one conjugate is ~ -2e15,
    # the other ~ -1e-16, undecidable at 64 bits; the kernel must escalate
    # and certify, never guess
    eps = q2.element([3, 2])
    e20 = eps ** 20
    elem = e20 - q2.element([2 * e20.coeffs[0], 0])
    assert q2.embed_iv(elem, 64)[1].sign() is None      # really needs refining
    rungs = []
    embed_iv = q2.embed_iv
    monkeypatch.setattr(q2, "embed_iv", lambda x, prec: rungs.append(prec) or embed_iv(x, prec))
    # the conjugate near -2e15 is certified negative at the first rung
    assert not q2.is_totally_positive(elem)
    assert rungs == [64]
    # positivity needs both conjugates, so the tiny one escalates
    rungs.clear()
    assert q2.is_totally_positive(-elem)
    assert rungs == [64, 128]


def test_escalation_respects_cap(q2):
    from shintani.field import NumberField
    fld = NumberField([-2, 0, 1], prec_cap=64)
    eps = fld.element([3, 2])
    e20 = eps ** 20
    elem = e20 - fld.element([2 * e20.coeffs[0], 0])
    with pytest.raises(PrecisionCapExceeded,
                       match="conjugate positivity: not certified at 64 bits"):
        fld.is_totally_positive(-elem)


def test_embedded_vector_width_halves(q2):
    # one precision-doubling refinement at least halves every width
    eps = q2.element([3, 2])
    w1 = q2.embed_iv(eps, 64)[0].width_fraction()
    w2 = q2.embed_iv(eps, 128)[0].width_fraction()
    assert w2 * 2 <= w1


def test_precision_cap_starts_at_64_bits():
    with pytest.raises(InputError):
        NumberField([-2, 0, 1], prec_cap=63)
    assert NumberField([-2, 0, 1], prec_cap=64).prec_cap == 64


PRECS = [64, 128, 256, 512, 1024]


def _key(ivs):
    return [(iv.lo_fraction(), iv.hi_fraction()) for iv in ivs]


@pytest.mark.parametrize("poly", [(-1, -3, 0, 1), (1, -3, -1, 1), (1, 1, -3, -1, 1)])
def test_reordering_shares_the_isolated_roots(poly, monkeypatch):
    from shintani import field

    base = NumberField(poly)
    fresh = {order: NumberField(poly, embedding_order=order)
             for order in itertools.permutations(range(len(poly) - 1))}
    calls = []
    isolate = field.isolate_real_roots
    monkeypatch.setattr(field, "isolate_real_roots",
                        lambda coeffs: calls.append(coeffs) or isolate(coeffs))
    for order, want in fresh.items():
        got = with_embedding_order(base, order)
        assert got.embedding_order == order
        assert got.vandermonde_sign == want.vandermonde_sign
        assert ([_key(got.roots_iv(p)) for p in PRECS]
                == [_key(want.roots_iv(p)) for p in PRECS])
        assert _key(got.embed_iv(got.gen + 1, 64)) == _key(want.embed_iv(want.gen + 1, 64))
    assert calls == []          # the roots were isolated once, by base
    assert _key(base.roots_iv(64)) == _key(fresh[tuple(range(len(poly) - 1))].roots_iv(64))


# ---- integer numerators over one denominator against a Fraction reference ----

def fraction_mul(poly, a, b):
    """The product of two elements with Fraction power coordinates, reduced
    modulo the monic poly: the reference for field.mul_coeffs."""
    n = len(poly) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * n - 2, n - 1, -1):
        q, prod[k] = prod[k], Fraction(0)
        for j in range(n):
            prod[k - n + j] -= q * poly[j]
    return tuple(prod[:n])


def fraction_matrix(poly, a):
    """The Fraction matrix of multiplication by a, columns a * t^j."""
    n = len(poly) - 1
    cols = [tuple(a)]
    for _ in range(n - 1):
        cols.append(fraction_mul(poly, cols[-1], [Fraction(int(i == 1)) for i in range(n)]))
    return [list(row) for row in zip(*cols)]


def fraction_inverse(poly, a):
    n = len(poly) - 1
    return tuple(fraction_solve(fraction_matrix(poly, a), [int(i == 0) for i in range(n)]))


def fraction_power(poly, a, k):
    base = fraction_inverse(poly, a) if k < 0 else tuple(a)
    acc = tuple(Fraction(int(i == 0)) for i in range(len(poly) - 1))
    for _ in range(abs(k)):
        acc = fraction_mul(poly, acc, base)
    return acc


FIELD_FIXTURES = dict(ALL_NET_COUNT, cubic_signed_witness=cubic_signed_witness,
                      q_zeta11_plus=q_zeta11_plus, q_zeta13_plus=q_zeta13_plus,
                      q_zeta17_plus=q_zeta17_plus)


def random_coords(n, rng):
    """Random rational coordinates, with a random denominator per entry."""
    while True:
        c = [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 9, 35)))
             for _ in range(n)]
        if any(c):
            return c


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_arithmetic_matches_the_fraction_reference(name):
    fld, units = FIELD_FIXTURES[name]()
    poly, n = fld.poly, fld.degree
    rng = random.Random(name)
    for _ in range(6):
        a, b = random_coords(n, rng), random_coords(n, rng)
        x, y = fld.element(a), fld.element(b)
        assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
        assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
        assert (-x).coeffs == tuple(-p for p in a)
        assert (x * y).coeffs == fraction_mul(poly, a, b)
        assert x.inverse().coeffs == fraction_inverse(poly, a)
        assert (x / y).coeffs == fraction_mul(poly, a, fraction_inverse(poly, b))
        for k in (-2, -1, 0, 3):
            assert (x ** k).coeffs == fraction_power(poly, a, k)
        m = fraction_matrix(poly, a)
        assert x.norm() == mat_det(m)
        assert x.trace() == sum(m[i][i] for i in range(n))
    # is_unit on units, unit quotients, rational multiples and random elements
    for _ in range(4):
        u = units[rng.randrange(len(units))] ** rng.choice((-2, -1, 1, 2))
        for x in (u, u / units[0], u * Fraction(1, 2), fld.element(random_coords(n, rng))):
            cp = charpoly(fraction_matrix(poly, x.coeffs))
            assert fld.is_unit(x) == (all(c.denominator == 1 for c in cp) and abs(cp[0]) == 1)


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_elements_are_stored_in_lowest_terms(name):
    fld, _ = FIELD_FIXTURES[name]()
    rng = random.Random(name)
    for _ in range(10):
        x = fld.element(random_coords(fld.degree, rng))
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
        assert x.coeffs == tuple(Fraction(a, x.den) for a in x.num)
        k = rng.choice((-6, -1, 2, 35))
        for y in (FieldElement(fld, [a * k for a in x.num], x.den * k),
                  fld.element(list(x.coeffs)), x * 1, x + fld.zero):
            assert y == x and hash(y) == hash(x)
            assert (y.num, y.den) == (x.num, x.den)
    assert (fld.zero.num, fld.zero.den) == ((0,) * fld.degree, 1)


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_embedding_rounds_each_coordinate_from_its_lowest_terms(name):
    fld, _ = FIELD_FIXTURES[name]()
    rng = random.Random(name)
    for _ in range(4):
        x = fld.element(random_coords(fld.degree, rng))
        for prec in (64, 128):
            cs = [Iv.from_fraction(c, prec + 8) for c in x.coeffs]
            want = []
            for t in fld.roots_iv(prec):
                acc = cs[-1]
                for c in reversed(cs[:-1]):
                    acc = acc * t + c
                want.append(acc.round(prec + 8))
            got = fld.embed_iv(x, prec)
            assert [(iv.lo, iv.hi, iv.e) for iv in got] == [(iv.lo, iv.hi, iv.e) for iv in want]


def test_unit_products_build_no_fraction(monkeypatch):
    fld, units = q_zeta17_plus()
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    prod = units[0] * units[1]
    quot = units[2] / units[3]
    monkeypatch.undo()
    assert built == []
    assert prod.den == quot.den == 1 and fld.is_unit(prod) and fld.is_unit(quot)


# ---- the regulator's lower bound decides dependence ----
#
# Independent units have |det Log eps| = [E : V] R_K > 0.2052 (Friedman), so
# an enclosure of det inside (-1/5, 1/5) proves dependence; no fixture's
# determinant comes near 1/5, and none needs a second rung.

REGULATOR_SIGNS = {"q_sqrt2": -1, "q_sqrt3": -1, "q_sqrt5": -1, "cubic_81": 1,
                   "cubic_148": -1, "quartic_725": -1, "cubic_signed_witness": -1,
                   "q_zeta11_plus": 1, "q_zeta13_plus": 1, "q_zeta17_plus": -1}


def _count_dets(monkeypatch):
    """The determinants that signed_regulator_sign forms, one per rung."""
    dets = []
    monkeypatch.setattr(field, "iv_det", lambda rows: dets.append(iv_det(rows)) or dets[-1])
    return dets


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_regulator_sign_of_every_fixture(name, monkeypatch):
    # q_sqrt5's |det| is 0.962, the smallest: a bound of 1 would call its
    # unit dependent
    fld, units = FIELD_FIXTURES[name]()
    dets = _count_dets(monkeypatch)
    assert fld.signed_regulator_sign(units) == REGULATOR_SIGNS[name]
    assert len(dets) == 1
    lo, hi = dets[0].lo_fraction(), dets[0].hi_fraction()
    assert lo > field._REGULATOR_MIN or hi < -field._REGULATOR_MIN


@pytest.mark.parametrize("name", DEPENDENT_UNITS)
def test_dependent_units_give_sign_zero_at_the_first_rung(name, monkeypatch):
    # one determinant, inside (-1/5, 1/5) (the exact point 0 for the unit 1
    # on q_sqrt2), refuses the units
    fld, units = DEPENDENT_UNITS[name]()
    dets = _count_dets(monkeypatch)
    with pytest.raises(DependentUnits):
        fld.signed_regulator_sign(units)
    assert len(dets) == 1


def test_regulator_sign_refines_an_enclosure_that_straddles_the_bound(monkeypatch):
    # a determinant enclosure that holds 0 but reaches past 1/5 decides
    # nothing: the ladder goes on to the next rung
    fld, units = FIELD_FIXTURES["q_sqrt2"]()
    wide = iter([Iv.bounds(Fraction(-1, 4), Fraction(1, 100), START_PREC)])
    monkeypatch.setattr(field, "iv_det", lambda rows: next(wide, None) or iv_det(rows))
    assert fld.signed_regulator_sign(units) == -1
