"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here; nothing is deferred to calibration.
"""

import time
from fractions import Fraction

from shintani.domain import (
    FLAG_CLOSED,
    FLAG_OPEN,
    build_signed_domain,
    cone_contains,
    is_true_domain,
    orbit_net_count,
    sample_point,
    verify_net_counts,
)
from shintani.ideals import FractionalIdeal, coset_enumerate_R, integral_basis
from shintani.zeta import ZetaParams, dedekind_zeta_via_domain, euler_product_oracle

from crosscheck import YNotInSimplex, cone_contains_via_simplex, pierces_cone
from fixtures import (
    ALL_NET_COUNT,
    cubic_81,
    cubic_signed_witness,
    maximal_order,
    parallelepiped_index,
    q_sqrt2,
    with_embedding_order,
)

_DOMAINS = {}


def get_domain(name):
    if name not in _DOMAINS:
        fld, units = ALL_NET_COUNT[name]()
        _DOMAINS[name] = (fld, units, build_signed_domain(units, fld))
    return _DOMAINS[name]


def report(num, ok, msg):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def test_criterion_1_net_count_all_fixtures():
    """1000 seeded points per fixture; every net count is exactly 1."""
    t0 = time.time()
    details = []
    all_ok = True
    for name in ALL_NET_COUNT:
        fld, units, dom = get_domain(name)
        rep = verify_net_counts(dom, samples=1000, seed=42)
        all_ok &= rep["ok"]
        details.append(f"{name}:{'ok' if rep['ok'] else rep['failures'][:2]}")
    elapsed = time.time() - t0
    report(1, all_ok and elapsed < 300,
           f"net count = 1 on 1000 points x 6 fixtures "
           f"({'; '.join(details)}) in {elapsed:.1f}s (target < 300s)")


def test_criterion_2_quadratic_closed_form():
    """Q(sqrt2), eps = 3+2sqrt2: one cone, w=+1, flags (open, closed)."""
    fld, units, dom = get_domain("q_sqrt2")
    ok = (len(dom.cones) == 1
          and dom.cones[0].w == 1
          and dom.cones[0].flags == (FLAG_OPEN, FLAG_CLOSED)
          and dom.cones[0].generators == (fld.one, units[0])
          and is_true_domain(dom))
    report(2, ok, "single cone {t1*1 + t2*eps : t1 > 0, t2 >= 0} with w = +1, "
                  "true domain")


def test_criterion_3_regulator_identity():
    """|det(LOG l(eps)) - n det(Log eps)| <= 1e-10 on all fixtures."""
    ok = True
    names = []
    for name in ALL_NET_COUNT:
        fld, units, _dom = get_domain(name)
        good = fld.check_regulator_identity(units, tol=1e-10)
        ok &= good
        names.append(f"{name}:{'ok' if good else 'FAIL'}")
    wfld, wunits = cubic_signed_witness()
    ok &= wfld.check_regulator_identity(wunits, tol=1e-10)
    report(3, ok, f"regulator identity to 1e-10 on {len(names) + 1} fixtures")


def test_criterion_4_membership_equivalences():
    """cone_contains <=> piercing from e_n <=> projected-simplex membership,
    10^4 random points per fixture, zero disagreements."""
    total_checked = 0
    disagreements = 0
    for name in ALL_NET_COUNT:
        fld, units, dom = get_domain(name)
        n = fld.degree
        e_n = tuple(Fraction(int(i == n - 1)) for i in range(n))
        ncones = len(dom.cones)
        for i in range(10 ** 4):
            x = sample_point(f"members-{name}", i, 0, n)
            cone = dom.cones[i % ncones]
            inside = cone_contains(cone, x)
            try:
                pier = pierces_cone(e_n, x, cone.inverse, fld)
            except YNotInSimplex:
                pier = False
            simp = cone_contains_via_simplex(cone, x)
            total_checked += 1
            if not (inside == pier == simp):
                disagreements += 1
    report(4, disagreements == 0,
           f"{total_checked} membership triples across 6 fixtures, "
           f"{disagreements} disagreements")


def test_criterion_5_R_set_exactness():
    """Hand R-set for Q(sqrt2) and |R| = lattice index for every cone."""
    fld, units, dom = get_domain("q_sqrt2")
    order = integral_basis(fld)
    r = coset_enumerate_R(dom.cones[0], FractionalIdeal.whole_ring(order), 0)
    got = sorted(z.coeffs for z, _ in r.points)
    hand_ok = got == [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(1))]

    counts_ok = True
    for name in ALL_NET_COUNT:
        fld, units, dom = get_domain(name)
        order = maximal_order(name, fld)
        lat = FractionalIdeal.whole_ring(order)
        for cone in dom.cones:
            rset = coset_enumerate_R(cone, lat, shift=0, scale=1)
            if len(rset.points) != parallelepiped_index(cone, lat):
                counts_ok = False
    report(5, hand_ok and counts_ok,
           "R = {1, 2+sqrt2} for Q(sqrt2); |R| = determinant index on every "
           "fixture cone")


def test_criterion_6_zeta_consistency():
    """Signed-domain zeta vs Euler oracle within 1e-6 combined, < 2 min each."""
    results = []
    ok = True
    for make, prime_cap in ((q_sqrt2, 10 ** 6), (cubic_81, 1_500_000)):
        fld, units = make()
        t0 = time.time()
        dv = dedekind_zeta_via_domain(2.0, units, fld, ZetaParams(target_error=4e-7))
        ev = euler_product_oracle(2.0, fld, prime_cap)
        elapsed = time.time() - t0
        diff = abs(dv.value - ev.value)
        combined = dv.error_bound + ev.error_bound
        good = diff <= combined <= 1e-6 and elapsed < 120
        ok &= good
        results.append(f"n={fld.degree}: |diff|={diff:.2e} <= {combined:.2e} "
                       f"in {elapsed:.0f}s")
    report(6, ok, "; ".join(results))


def test_criterion_7_invariance_suite():
    """Embedding-order permutations and unit replacements keep count = 1."""
    fld, units = cubic_81()
    variants = []
    for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        f2 = with_embedding_order(fld, order)
        variants.append((f"order{order}", f2, [f2.element(u.coeffs) for u in units]))
    variants.append(("inverse", fld, [units[0].inverse(), units[1]]))
    variants.append(("swap", fld, [units[1], units[0]]))
    variants.append(("product", fld, [units[0], units[0] * units[1]]))
    q2fld, q2units = q_sqrt2()
    variants.append(("q2-inverse", q2fld, [q2units[0].inverse()]))
    ok = True
    for name, f2, u2 in variants:
        dom = build_signed_domain(u2, f2)
        rep = verify_net_counts(dom, samples=100, seed=7)
        ok &= rep["ok"]
    report(7, ok, f"net count = 1 on 100 points for {len(variants)} variants")


def test_criterion_8_signed_necessity_witness():
    """A frozen fixture with some w = -1 still verifies the net count."""
    fld, units = cubic_signed_witness()
    dom = build_signed_domain(units, fld)
    ws = sorted(c.w for c in dom.cones)
    has_minus = ws[0] == -1
    rep = verify_net_counts(dom, samples=300, seed=13)
    cancellation = False
    for i in range(200):
        x = sample_point(99, i, 0, 3)
        count, hits = orbit_net_count(dom, x)
        if len(hits) > 1:
            cancellation = True
            break
    report(8, has_minus and rep["ok"] and not is_true_domain(dom) and cancellation,
           f"cone signs {ws}, 300-point net count ok, multi-hit cancellation "
           f"observed")
