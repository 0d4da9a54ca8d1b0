import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani import dyadic
from shintani.dyadic import Iv, Ladder, iv_adjugate, iv_det, log_iv
from shintani.errors import PrecisionCapExceeded, UndecidableSign
from shintani.exactlinalg import mat_det
from shintani.geometry import field_map

import fixtures

fracs = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6)


@st.composite
def dyadics(draw):
    """An exact dyadic m * 2^e: zero often, exponents past +-1000."""
    m = draw(st.one_of(st.just(0), st.integers(-(1 << 100), 1 << 100)))
    return m, draw(st.integers(-1200, 1200))


def _int(v):
    """The exact interval [v, v] of an integer."""
    return Iv(v, 0, v, 0)


def _value(m, e):
    return Fraction(m) * Fraction(2) ** e


@st.composite
def intervals(draw):
    """Iv(lm, le, um, ue) with independent endpoint exponents."""
    a, b = sorted((draw(dyadics()), draw(dyadics())), key=lambda d: _value(*d))
    return Iv(*a, *b)


def _ends(iv):
    return iv.lo_fraction(), iv.hi_fraction()


def _floor_to(v, k):
    """Largest multiple of 2^k that is <= v."""
    unit = Fraction(2) ** k
    return math.floor(v / unit) * unit


def _down(v, prec):
    """v rounded down to prec bits of its own value, the rule of every
    rounding from a rational: 2^k with k = bits(num) - bits(den) - prec."""
    if v == 0:
        return v
    return _floor_to(v, v.numerator.bit_length() - v.denominator.bit_length() - prec)


def _up(v, prec):
    return -_down(-v, prec)


@given(intervals(), intervals(), st.integers(-1000, 1000))
def test_exact_operations_are_exact(x, y, c):
    (a, b), (p, q) = _ends(x), _ends(y)
    assert a <= b and p <= q
    assert _ends(x + y) == (a + p, b + q)
    assert _ends(x - y) == (a - q, b - p)
    assert _ends(-x) == (-b, -a)
    prods = (a * p, a * q, b * p, b * q)
    assert _ends(x * y) == (min(prods), max(prods))
    assert _ends(x.mul_int(c)) == (min(a * c, b * c), max(a * c, b * c))
    assert x.sign() == (1 if a > 0 else -1 if b < 0 else 0 if a == b == 0 else None)


@given(intervals(), st.integers(8, 130))
def test_round_is_determined_by_the_endpoint_values(x, prec):
    a, b = _ends(x)
    # a dyadic's bits(num) - bits(den) is one less than its bit count
    assert _ends(x.round(prec)) == (_down(a, prec - 1), _up(b, prec - 1))


@given(st.fractions(max_denominator=10 ** 30) | intervals().map(Iv.lo_fraction),
       st.integers(8, 130))
def test_from_fraction_rounds_each_endpoint_by_value(v, prec):
    iv = Iv.from_fraction(v, prec)
    if v.denominator & (v.denominator - 1) == 0:
        assert _ends(iv) == (v, v)
    else:
        assert _ends(iv) == (_down(v, prec), _up(v, prec))


@given(intervals(), intervals(), st.integers(8, 130))
def test_division_rounds_each_endpoint_by_value(x, y, prec):
    a, b = _ends(x)
    if y.sign() in (1, -1):
        p, q = _ends(y)
        quots = (a / p, a / q, b / p, b / q)
        assert _ends(x.div(y, prec)) == (_down(min(quots), prec), _up(max(quots), prec))


def test_zero_mantissa_does_not_lengthen_the_other():
    # a zero endpoint or a zero operand carries no scale: aligning to its
    # exponent would turn the 64-bit mantissas below into 302-bit ones
    for iv in (Iv.ZERO + _int(3 << 300).round(64),
               _int(3 << 300).round(64) + Iv.ZERO,
               Iv.bounds(0, 3 << 300, 64),
               Iv.bounds(-(3 << 300), 0, 64)):
        assert max(abs(iv.lo), abs(iv.hi)).bit_length() <= 65
    assert _ends(Iv.bounds(0, 3 << 300, 64)) == (0, 3 << 300)


def make_iv(fr, slack):
    lo = fr - abs(slack)
    hi = fr + abs(slack)
    return Iv.bounds(lo, hi, 80)


@given(fracs, fracs, fracs, fracs)
def test_add_mul_containment(a, b, sa, sb):
    ia, ib = make_iv(a, sa), make_iv(b, sb)
    assert (ia + ib).contains(a + b)
    assert (ia * ib).contains(a * b)
    assert (ia - ib).contains(a - b)
    assert (-ia).contains(-a)


@given(fracs, st.integers(min_value=8, max_value=120))
def test_from_fraction_outward(a, prec):
    iv = Iv.from_fraction(a, prec)
    assert iv.contains(a)
    assert iv.width_fraction() <= Fraction(4) * abs(a) / (1 << prec) + Fraction(1, 1 << prec)


@given(fracs, fracs)
def test_div_containment(a, b):
    if abs(b) < Fraction(1, 100):
        b += 1
    ia = make_iv(a, Fraction(1, 1000))
    ib = make_iv(b, Fraction(1, 1000))
    if ib.sign() in (-1, 1):
        q = ia.div(ib, 64)
        assert q.contains(a / b)


def test_round_widens_outward():
    iv = Iv.from_fraction(Fraction(10 ** 30 + 1, 3), 200)
    r = iv.round(40)
    assert r.lo_fraction() <= iv.lo_fraction()
    assert r.hi_fraction() >= iv.hi_fraction()


def test_sign_classification():
    assert _int(3).sign() == 1
    assert _int(-3).sign() == -1
    assert _int(0).sign() == 0
    assert Iv(-1, 0, 1, 0).sign() is None


LOG2_30 = Fraction("0.693147180559945309417232121458")  # 30 digits


def test_log2_value():
    iv = log_iv(_int(2), 64)
    eps = Fraction(1, 10 ** 28)
    assert iv.lo_fraction() <= LOG2_30 + eps
    assert iv.hi_fraction() >= LOG2_30 - eps
    assert iv.width_fraction() < Fraction(1, 1 << 60)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10 ** 9),
       st.integers(min_value=16, max_value=200))
@settings(max_examples=60)
def test_log_containment(x, prec):
    iv = Iv.from_fraction(x, prec + 10)
    lg = log_iv(iv, prec)
    approx = Fraction(math.log(x))
    # math.log is within 1 ulp; the certified interval must contain a tight
    # rational neighbourhood of the true value
    assert lg.lo_fraction() <= approx + Fraction(1, 10 ** 12)
    assert lg.hi_fraction() >= approx - Fraction(1, 10 ** 12)
    assert lg.width_fraction() < Fraction(1, 1 << (prec - 4))


def _adversarial_log_inputs():
    """(lo, hi, e, prec): m a power of two (tau = 0), m = 2^s - 1 (tau just
    below 1/3) and random m, with x < 1 (k < 0) and |e| up to 10^4, exact
    points and wide intervals, at 64 to 1024 bits."""
    rng = random.Random(33)
    for prec in (64, 65, 200, 1024):
        for s in (1, 2, 53, 65, prec + 3, 2 * prec):
            for e in (-s, 1 - s, 1 - s - 10 ** 4, 10 ** 4, rng.randint(-10 ** 4, 10 ** 4)):
                for m in (1 << (s - 1), (1 << s) - 1, rng.getrandbits(s) | 1 << (s - 1)):
                    yield m, m, e, prec
                    yield m, m + rng.getrandbits(rng.randint(1, s + 2)), e, prec


def test_log_encloses_mpmath_on_adversarial_inputs():
    for lo, hi, e, prec in _adversarial_log_inputs():
        lg = log_iv(Iv(lo, e, hi, e), prec)
        with mpmath.workprec(2 * prec + 64):
            a, b = (mpmath.log(mpmath.ldexp(v, e)) for v in (lo, hi))
            # before the last rounding: the fixed-point ends and their width
            f = dyadic._log_fixed(lo, e, prec)
            assert mpmath.ldexp(f.lo, f.e) <= a <= mpmath.ldexp(f.hi, f.e)
            assert f.hi - f.lo < 1 << (-f.e - prec - 8)
            assert mpmath.ldexp(lg.lo, lg.e) <= a and b <= mpmath.ldexp(lg.hi, lg.e)
            # the width bound of test_log_containment, relative once |log| > 1
            # as the last rounding keeps prec + 4 bits of the endpoint's value
            slack = (b - a) + max(1, abs(a), abs(b)) * mpmath.ldexp(1, 4 - prec)
            assert mpmath.ldexp(lg.hi - lg.lo, lg.e) < slack


def test_log_monotone_bounds():
    a = log_iv(_int(2), 64)
    b = log_iv(_int(3), 64)
    assert a.hi_fraction() < b.lo_fraction()


def test_iv_det_2x2():
    rows = [[_int(1), _int(2)], [_int(3), _int(4)]]
    d = iv_det(rows)
    assert d.contains(Fraction(-2))
    assert d.width_fraction() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iv_adjugate_is_exact_on_integer_matrices(n):
    # rows @ cof = det I, and det is the exact determinant
    rng = random.Random(n)
    for _ in range(5):
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        cof, det = iv_adjugate([[_int(x) for x in row] for row in ints])
        assert det.width_fraction() == 0 and det.contains(mat_det(ints))
        assert iv_det([[_int(x) for x in row] for row in ints]).contains(mat_det(ints))
        for k in range(n):
            for i in range(n):
                acc = Iv.ZERO
                for j in range(n):
                    acc = acc + cof[j][i].mul_int(ints[j][k])
                assert acc.width_fraction() == 0
                assert acc.contains(mat_det(ints) if i == k else 0)


def _laplace_det(rows):
    """The reference: plain cofactor expansion along row 0, every minor
    recomputed (about n n! products)."""
    if len(rows) == 1:
        return rows[0][0]
    det = Iv.ZERO
    for i, a in enumerate(rows[0]):
        t = a * _laplace_det([r[:i] + r[i + 1:] for r in rows[1:]])
        det = det - t if i % 2 else det + t
    return det


def _laplace_adjugate(rows):
    n = len(rows)
    if n == 1:
        return [[Iv.ONE]], rows[0][0]
    cof = [[_laplace_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for i in range(n)] for j in range(n)]
    cof = [[-m if (i + j) % 2 else m for i, m in enumerate(row)] for j, row in enumerate(cof)]
    return cof, _laplace_det(rows)


def _assert_as_laplace(rows):
    """iv_adjugate and iv_det give the reference's endpoints exactly."""
    cof, det = iv_adjugate(rows)
    ref_cof, ref_det = _laplace_adjugate(rows)
    assert _ends(det) == _ends(iv_det(rows)) == _ends(ref_det)
    assert [list(map(_ends, row)) for row in cof] == [list(map(_ends, row)) for row in ref_cof]


def _random_iv(rng):
    """A dyadic interval with independent endpoint exponents; a point or 0
    now and then, so exact cancellations occur too."""
    a = rng.randint(-(1 << 70), 1 << 70), rng.randint(-90, 10)
    kind = rng.random()
    if kind < 0.1:
        return Iv.ZERO
    if kind < 0.3:
        return Iv(*a, *a)
    b = rng.randint(-(1 << 70), 1 << 70), rng.randint(-90, 10)
    lo, hi = sorted((a, b), key=lambda d: _value(*d))
    return Iv(*lo, *hi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_minor_table_matches_laplace_on_random_matrices(n):
    rng = random.Random(100 + n)
    for _ in range(6 if n < 6 else 2):
        _assert_as_laplace([[_random_iv(rng) for _ in range(n)] for _ in range(n)])
    # equal rows, whose determinant encloses 0 by cancellation
    row = [_random_iv(rng) for _ in range(n)]
    _assert_as_laplace([row] * n)
    assert n == 1 or iv_det([row] * n).contains(0)


@pytest.mark.parametrize("make", [fixtures.q_sqrt2, fixtures.cubic_81, fixtures.quartic_725,
                                  fixtures.q_zeta11_plus, fixtures.q_zeta13_plus],
                         ids=lambda make: make.__name__)
def test_minor_table_matches_laplace_on_field_maps(make):
    fld, _units = make()
    for prec in (64, 128):
        _assert_as_laplace(field_map(fld)._rows_at(prec))


LOG_FIXTURES = {**fixtures.ALL_NET_COUNT, **fixtures.INVERTED_UNITS,
                "cubic_signed_witness": fixtures.cubic_signed_witness,
                "q_zeta11_plus": fixtures.q_zeta11_plus,
                "q_zeta13_plus": fixtures.q_zeta13_plus,
                "q_zeta17_plus": fixtures.q_zeta17_plus}


@pytest.mark.parametrize("name", LOG_FIXTURES)
def test_minor_table_matches_laplace_on_log_matrices(name):
    # the regulator's matrix (field.signed_regulator_sign) and the log
    # lattice's (domain._enum_data), at 64 bits
    fld, units = LOG_FIXTURES[name]()
    rows = fld.unit_logs(units, 64)
    r = fld.degree - 1
    _assert_as_laplace([[row[j] for row in rows] for j in range(r)])
    _assert_as_laplace([[row[j] - row[-1] for row in rows] for j in range(r)])


def _table_size(rows, monkeypatch):
    """The entries of the one memo that iv_adjugate(rows) fills."""
    memos = []
    minor = dyadic._minor

    def spy(rows, rs, cs, memo):
        memos.append(memo)
        return minor(rows, rs, cs, memo)

    monkeypatch.setattr(dyadic, "_minor", spy)
    iv_adjugate(rows)
    assert all(m is memos[0] for m in memos)
    return len(memos[0])


@pytest.mark.parametrize("n", range(2, 10))
def test_minor_table_holds_at_most_n_2_to_the_n_minors(n, monkeypatch):
    # the work bound that replaces n n!: a stored minor of size k >= 2 has
    # one of k + 1 row sets (a suffix of the rows, with at most one row
    # left out) and one of C(n, k) column sets, and sum_k (k + 1) C(n, k)
    # <= n 2^n; each entry costs at most n products
    rng = random.Random(n)
    rows = [[_int(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    assert _table_size(rows, monkeypatch) <= n << n


def test_ladder_rungs_end_at_the_cap():
    seen = []
    with pytest.raises(PrecisionCapExceeded, match="quantity: not certified at 300 bits"):
        for prec in Ladder(300, "quantity"):
            seen.append(prec)
    assert seen == [64, 128, 256, 300]
    seen = []
    with pytest.raises(UndecidableSign):
        for prec in Ladder(1024, "quantity", zero_possible=True, start=256):
            seen.append(prec)
    assert seen == [256, 512, 1024]


def _float_encloses(f: float, exact: Fraction, below: bool) -> bool:
    """f <= exact (below) or f >= exact, with f the nearest such float."""
    if math.isinf(f):
        return (f < 0) == below
    step = math.nextafter(f, math.inf if below else -math.inf)
    if below:
        return Fraction(f) <= exact and (math.isinf(step) or Fraction(step) > exact)
    return Fraction(f) >= exact and (math.isinf(step) or Fraction(step) < exact)


@given(st.integers(min_value=-(1 << 90), max_value=1 << 90),
       st.integers(min_value=0, max_value=1 << 90),
       st.integers(min_value=-1250, max_value=1150))
@settings(max_examples=300)
def test_float_bounds_outward_and_tight(m, width, e):
    # widths and exponents reach past both float ends: overflow to +-inf,
    # underflow through the subnormals to 0
    iv = Iv(m, e, m + width, e)
    lo, hi = iv.float_bounds()
    assert _float_encloses(lo, iv.lo_fraction(), below=True)
    assert _float_encloses(hi, iv.hi_fraction(), below=False)


def test_float_bounds_edges():
    big = Iv(1, 1100, 3, 1100)
    assert big.float_bounds() == (sys.float_info.max, math.inf)
    assert (-big).float_bounds() == (-math.inf, -sys.float_info.max)
    tiny = Iv(1, -1100, 3, -1100)
    assert tiny.float_bounds() == (0.0, 5e-324)
    assert (-tiny).float_bounds() == (-5e-324, 0.0)
    assert Iv.ZERO.float_bounds() == (0.0, 0.0)
    point = Iv.from_fraction(Fraction(1, 3), 64)
    lo, hi = point.float_bounds()
    assert lo <= 1 / 3 <= hi and math.nextafter(lo, 1) == hi
    assert Iv(5, -1074, 5, -1074).float_bounds() == (5 * 2.0 ** -1074,) * 2
