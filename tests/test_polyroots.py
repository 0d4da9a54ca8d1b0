from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shintani.polyroots import (
    count_real_roots,
    is_squarefree,
    isolate_real_roots,
    poly_sign_at,
    sturm_chain,
    sturm_count,
)


def test_sqrt2_roots():
    roots = isolate_real_roots((-2, 0, 1))
    assert len(roots) == 2
    for r in roots:
        r.refine_below(Fraction(1, 10 ** 6))
    assert abs(float(roots[0].lo) + 2 ** 0.5) < 1e-5
    assert abs(float(roots[1].lo) - 2 ** 0.5) < 1e-5


def test_cubic_roots_sorted_and_isolated():
    # x^3 - 3x - 1, three real roots near -1.532, -0.347, 1.879
    f = (-1, -3, 0, 1)
    roots = isolate_real_roots(f)
    assert len(roots) == 3
    expected = (-1.532, -0.347, 1.879)
    for r, e in zip(roots, expected):
        r.refine_below(Fraction(1, 10 ** 5))
        assert abs(float(r.lo) - e) < 1e-3
    for r1, r2 in zip(roots, roots[1:]):
        assert r1.hi <= r2.lo


def test_no_real_roots():
    assert count_real_roots((1, 0, 1)) == 0  # x^2 + 1


def _named_root(exc) -> Fraction:
    """The rational root a bisection landed on, as the error names it."""
    return Fraction(str(exc).rsplit(" ", 1)[1])


def test_bisection_on_a_rational_root_raises():
    # (x-1)(x-2)(x^2-2): the bisection of (0, 4] lands on the root 2
    f = (-4, 6, 0, -3, 1)
    with pytest.raises(ValueError, match="rational root") as info:
        isolate_real_roots(f)
    assert _named_root(info.value) == 2
    # x^2 - 1: the isolating intervals (-3, 0) and (0, 3) miss the roots,
    # and the refinement of (0, 3) lands on 3/2, 3/4, 9/8, ... never on 1
    r = isolate_real_roots((-1, 0, 1))[1]
    r.refine_below(Fraction(1, 2 ** 40))
    assert r.lo < 1 < r.hi


def test_squarefree_detection():
    assert is_squarefree((-2, 0, 1))
    assert not is_squarefree((1, 2, 1))          # (x+1)^2
    assert not is_squarefree((0, 0, 1))          # x^2


def test_sturm_count_matches_known():
    f = (-1, -3, 0, 1)
    chain = sturm_chain(f)
    assert sturm_count(chain, Fraction(-10), Fraction(10)) == 3
    assert sturm_count(chain, Fraction(0), Fraction(10)) == 1
    assert sturm_count(chain, Fraction(-10), Fraction(0)) == 2


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=5))
def test_isolation_consistent_with_sturm(coeffs):
    f = tuple(coeffs) + (1,)             # monic
    if not is_squarefree(f):
        return
    try:
        roots = isolate_real_roots(f)
    except ValueError as exc:
        # the bisection landed on a rational root, which the error names
        assert poly_sign_at(f, _named_root(exc)) == 0
        return
    assert len(roots) == count_real_roots(f)
    # each interval really contains a sign change, and they are disjoint
    for r in roots:
        assert poly_sign_at(r.poly, r.lo) * poly_sign_at(r.poly, r.hi) < 0
    for r1, r2 in zip(roots, roots[1:]):
        assert r1.hi <= r2.lo


def test_refinement_narrows_and_keeps_root():
    f = (-2, 0, 1)
    r = isolate_real_roots(f)[1]
    for _ in range(50):
        old = (r.lo, r.hi)
        r.refine()
        assert old[0] <= r.lo < r.hi <= old[1]
    assert r.width() <= Fraction(1, 2 ** 45)
