"""The float64 stage of the net-count verifier against the dyadic ladder.

``dyadic_candidates`` below is the 64-bit dyadic corner enumeration that the
float stage replaced; it is kept here only as the reference.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shintani import domain
from shintani.domain import (
    build_signed_domain,
    orbit_net_count,
    sample_point,
    verify_net_counts,
)
from shintani.dyadic import START_PREC, Iv, iv_det, log2_iv, log_iv

from fixtures import ALL_NET_COUNT, INVERTED_UNITS, cubic_signed_witness

FIXTURES = dict(ALL_NET_COUNT, cubic_signed_witness=cubic_signed_witness,
                **INVERTED_UNITS)
_DOMAINS = {}


def get_domain(name):
    if name not in _DOMAINS:
        fld, units = FIXTURES[name]()
        _DOMAINS[name] = build_signed_domain(units, fld)
    return _DOMAINS[name]


def dyadic_candidates(dom, x, prec=START_PREC):
    """Per cone, the exponent tuples of the 64-bit dyadic enumeration:
    certified bounding box of the parallelotope, then corner pruning one at
    a time in Iv arithmetic."""
    field = dom.field
    r = field.degree - 1
    cols = []
    for u in dom.units:
        logs = [log_iv(c, prec) for c in field._positive_conjugates(u, prec)]
        cols.append([logs[j] - logs[-1] for j in range(r)])
    mat = [[cols[i][j] for i in range(r)] for j in range(r)]
    det = iv_det(mat)
    assert det.sign() is not None
    inv = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(mat) if k != j]
            d = iv_det(minor) if r > 1 else Iv.ONE
            inv[i][j] = (-d if (i + j) % 2 else d).div(det, prec)
    if isinstance(x, domain.FieldElement):
        conj = field._positive_conjugates(x, prec)
        loglx = [log_iv(conj[k].div(conj[-1], prec), prec) for k in range(r)]
    else:
        seq = [Fraction(c) for c in x]
        loglx = [log_iv(Iv.from_fraction(c / seq[-1], prec), prec) for c in seq[:-1]]
    out = []
    for cone in dom.cones:
        los, his = [None] * r, [None] * r
        for g in cone.generators:
            conj = field._positive_conjugates(g, prec)
            for k in range(r):
                lg = log_iv(conj[k].div(conj[-1], prec), prec)
                los[k] = min(lg.lo_fraction(), los[k] if los[k] is not None else lg.lo_fraction())
                his[k] = max(lg.hi_fraction(), his[k] if his[k] is not None else lg.hi_fraction())
        target = [Iv.bounds(lo, hi, prec) - lx for lo, hi, lx in zip(los, his, loglx)]
        ranges = []
        for i in range(r):
            acc = inv[i][0] * target[0]
            for k in range(1, r):
                acc = acc + inv[i][k] * target[k]
            ranges.append(range(math.ceil(acc.lo_fraction()), math.floor(acc.hi_fraction()) + 1))
        cands = []
        for a in itertools.product(*ranges):
            for k in range(r):
                acc = mat[k][0].mul_int(a[0])
                for i in range(1, r):
                    acc = acc + mat[k][i].mul_int(a[i])
                if (acc.lo_fraction() > target[k].hi_fraction()
                        or acc.hi_fraction() < target[k].lo_fraction()):
                    break
            else:
                cands.append(a)
        out.append((cone, cands, ranges))
    return out


def ladder_inside(dom, cone, a, x):
    """Membership of eps^a x decided by the dyadic ladder alone."""
    if isinstance(x, domain.FieldElement):
        return cone.contains_element(dom.unit_power(a) * x)
    seq = [Fraction(c) for c in x]

    def vfn(prec):
        emb = dom._power_embedding(a, prec)
        return [e * Iv.from_fraction(c, prec) for e, c in zip(emb, seq)]
    return cone.contains_vector(vfn)


def near_face_points(dom, rng, count, offset):
    """Vectors within about ``offset`` (relative) of a face of some cone:
    t_k = +-offset times a unit-size coordinate, generators embedded in
    float64 and the sum taken exactly."""
    field = dom.field
    n = field.degree
    points = []
    for i in range(count):
        cone = dom.cones[i % len(dom.cones)]
        gens = [[iv.mid_fraction() for iv in field.embed_iv(g, 80)] for g in cone.generators]
        t = [Fraction(rng.uniform(0.1, 1.0)) for _ in range(n)]
        t[rng.randrange(n)] = Fraction(rng.choice((-1, 1))) * Fraction(offset)
        x = tuple(sum(tj * g[k] for tj, g in zip(t, gens)) for k in range(n))
        if all(c > 0 for c in x):
            points.append(x)
    return points


def test_log2_float_is_nearest():
    iv = log2_iv(128)
    err = max(abs(Fraction(domain._LOG2) - iv.lo_fraction()),
              abs(Fraction(domain._LOG2) - iv.hi_fraction()))
    assert err < Fraction(1, 1 << 54)


@pytest.mark.parametrize("m,e", [(1, 0), (3, -2), (2 ** 64 - 1, -64), (5, 1000),
                                 (7, -1100), (2 ** 200 + 1, -199), (1, -1)])
def test_log_float_encloses_dyadic_log(m, e):
    y, rad = domain._log_float(m, e)
    lg = log_iv(Iv(m, e, m, e), 128)
    assert Fraction(y) - Fraction(rad) <= lg.lo_fraction()
    assert lg.hi_fraction() <= Fraction(y) + Fraction(rad)


def test_log_enclosure_random_intervals():
    rng = random.Random(11)
    for _ in range(300):
        lo = Fraction(rng.randrange(1, 10 ** 12), rng.randrange(1, 10 ** 12))
        lo *= Fraction(2) ** rng.randrange(-80, 80)
        hi = lo * (1 + Fraction(rng.randrange(0, 1000), 10 ** rng.randrange(3, 20)))
        iv = Iv.bounds(lo, hi, 64)
        mid, rad = domain._log_enclosure(iv)
        lg = log_iv(iv, 128)
        assert Fraction(mid) - Fraction(rad) <= lg.lo_fraction()
        assert lg.hi_fraction() <= Fraction(mid) + Fraction(rad)


@pytest.mark.parametrize("name", list(ALL_NET_COUNT) + list(INVERTED_UNITS))
def test_candidates_are_sound_and_contain_the_dyadic_enumeration(name):
    dom = get_domain(name)
    field = dom.field
    n = field.degree
    rng = random.Random(f"sound-{name}")
    points = [sample_point(f"sound-{name}", i, 0, n) for i in range(3)]
    points += near_face_points(dom, rng, 3, 1e-12)
    for x in points:
        got = dom.candidate_exponents(x)
        ref = dyadic_candidates(dom, x)
        for (cone, cands), (_, rcands, ranges) in zip(got, ref):
            mine = {tuple(a) for a in cands}
            assert set(rcands) <= mine
            # every hit in a box reaching (box size + 3) past the reference
            # box on each side is a candidate.  Float64 cone coordinates
            # (about 60 roundings of 2^-53 for these small powers) only
            # preselect; a 1e-9 relative margin keeps every true hit, and
            # the ladder decides each preselected one.
            axes = [np.arange(rg.start - len(rg) - 3, rg.stop + len(rg) + 3) for rg in ranges]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n - 1)
            ulog = np.array([[math.log(float(iv.mid_fraction()))
                              for iv in field.embed_iv(u, 80)] for u in dom.units])
            xs = np.array([float(c) for c in x])
            v = xs * np.exp(grid @ ulog)
            gens = np.array([[float(iv.mid_fraction()) for iv in field.embed_iv(g, 80)]
                             for g in cone.generators])
            coords = np.linalg.solve(gens.T, v.T).T
            scale = np.abs(np.linalg.inv(gens.T)) @ np.abs(v.T)
            maybe = (coords >= -1e-9 * scale.T).all(axis=1)
            for a in map(tuple, grid[maybe].tolist()):
                if ladder_inside(dom, cone, a, x):
                    assert a in mine, (name, x, cone.sigma, a)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_float_verdicts_agree_with_the_ladder(name):
    dom = get_domain(name)
    field = dom.field
    n = field.degree
    rng = random.Random(f"agree-{name}")
    points = [sample_point(f"agree-{name}", i, 0, n) for i in range(8)]
    for offset in (1e-12, 1e-16, 1e-20, 1e-30):
        points += near_face_points(dom, rng, 2, offset)
    decided = 0
    for x in points:
        per_cone = dom.candidate_exponents(x)
        for (cone, cands), verdict in zip(per_cone, dom._float_verdicts(x, per_cone)):
            for a, v in zip(cands, verdict):
                if v >= 0:
                    decided += 1
                    assert bool(v) == ladder_inside(dom, cone, tuple(a), x)
        ref = [(cone.sigma, a) for cone, cands, _ in dyadic_candidates(dom, x)
               for a in cands if ladder_inside(dom, cone, a, x)]
        count, hits = orbit_net_count(dom, x)
        assert hits == ref
        assert count == sum(c.w for c in dom.cones for s, _ in ref if s == c.sigma)
    assert decided > 0


@pytest.mark.parametrize("name", ["q_sqrt2", "cubic_81", "cubic_signed_witness", "quartic_725"])
def test_face_points_defer_and_near_face_points_agree(name):
    # x = sum_i t_i g_i exactly, with t_k = 0 (on a face), +-1e-12 or
    # +-1e-30 (just inside or outside) and the other t_i positive
    dom = get_domain(name)
    field = dom.field
    rng = random.Random(f"face-{name}")
    zero_a = (0,) * (field.degree - 1)
    decided_near = 0
    for ci, cone in enumerate(dom.cones):
        for k in range(field.degree):
            for offset in (0, 10 ** -12, -(10 ** -12), 10 ** -30, -(10 ** -30)):
                t = [Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
                     for _ in range(field.degree)]
                t[k] = Fraction(offset)
                x = cone.generators[0] * t[0]
                for tj, g in zip(t[1:], cone.generators[1:]):
                    x = x + g * tj
                if not field.is_totally_positive(x):
                    continue
                per_cone = dom.candidate_exponents(x)
                verdicts = dom._float_verdicts(x, per_cone)
                for a, v in zip(per_cone[ci][1], verdicts[ci]):
                    if v >= 0:
                        assert bool(v) == ladder_inside(dom, cone, tuple(a), x)
                        decided_near += tuple(a) == zero_a
                if offset == 0:
                    # on the face of the closed cone: a candidate, and the
                    # float stage always leaves it to the ladder
                    rows = [j for j, a in enumerate(per_cone[ci][1])
                            if tuple(a) == zero_a]
                    assert rows and verdicts[ci][rows[0]] == -1
                count, hits = orbit_net_count(dom, x)
                assert count == 1
    # the +-1e-12 offsets are within the float bound's reach, so the check
    # above compared real decisions next to the faces
    assert decided_near > 0


@pytest.mark.parametrize("name", list(FIXTURES))
def test_candidates_are_ordered_int_tuples_and_verdicts_are_ternary(name):
    # the hits of a verify failure are listed in this order
    dom = get_domain(name)
    n = dom.field.degree
    rng = random.Random(f"order-{name}")
    points = [sample_point(f"order-{name}", i, 0, n) for i in range(4)]
    points += near_face_points(dom, rng, 2, 1e-12)
    for x in points:
        per_cone = dom.candidate_exponents(x)
        assert [cone for cone, _ in per_cone] == list(dom.cones)
        for (_, cands), verdict in zip(per_cone, dom._float_verdicts(x, per_cone)):
            assert all(type(a) is tuple and len(a) == n - 1
                       and all(type(e) is int for e in a) for a in cands)
            assert all(a < b for a, b in zip(cands, cands[1:]))
            assert len(verdict) == len(cands)
            assert set(verdict) <= {-1, 0, 1}


@pytest.mark.parametrize("name,cones,boxes", [("quartic_725", 6, 1), ("cubic_81", 2, 1),
                                              ("quartic_725_inverted", 6, 4),
                                              ("cubic_81_inverted", 2, 2)])
def test_cones_share_one_enumeration_per_distinct_box(name, cones, boxes):
    dom = get_domain(name)
    groups = [members for _, members in dom._enum_data()["boxes"]]
    assert len(dom.cones) == cones and len(groups) == boxes
    assert sorted(c for members in groups for c in members) == list(range(cones))
    x = sample_point(f"boxes-{name}", 0, 0, dom.field.degree)
    per_cone = dom.candidate_exponents(x)
    for members in groups:
        assert all(per_cone[c][1] is per_cone[members[0]][1] for c in members)


@pytest.mark.parametrize("name", list(INVERTED_UNITS))
def test_inverted_unit_sets_have_net_count_one(name):
    rep = verify_net_counts(get_domain(name), 40, f"inverted-{name}")
    assert rep["ok"], rep["failures"]
