"""Truncated Shintani zeta sums with certified tail bounds, assembled into
Hecke L-functions and ray-class partial zeta functions over a signed
fundamental domain.  The Euler-product oracle that checks them lives in
`oracle`, which needs neither the domain nor the ideals; its
`euler_product_oracle` and `euler_product_roundoff` are importable from
here as well, and load the oracle (and NumPy) on first access (PEP 562).

Truncation bound.  A term is the product over the n real embeddings j of
((z + scale * sum_i m_i f_i)^(j)) ** -s, and each cone generator f_i is a
product of totally positive units, so N(f_i) = 1.  Weighted AM-GM in each
embedding (weights m_i/|m|, |m| = m_1 + ... + m_n), multiplied over the
embeddings, gives N(sum_i m_i f_i) >= |m|^n prod_i N(f_i)^(m_i/|m|) = |m|^n.
As z is totally positive, term(m) <= (scale |m|)^(-ns): the sum stops at the
simplex |m| <= L.  The shell |m| = k holds C(k+n-1, n-1) = prod_{i<n} (k+i)
/ (n-1)! <= (k + n/2)^(n-1) / (n-1)! points (AM-GM again), and for k > L
(k + n/2)^(n-1) <= k^(n-1) (1 + n/(2L+2))^(n-1).  With a = ns - n, compare
sum_{k>L} k^(-a-1) with the integral from L:

    tail(L) <= (1 + n/(2L+2))^(n-1) / (n-1)! * scale^(-ns) * L^(-a) / a.

The terms are convex in k, so the sum is below the integral from L + 1/2;
that slack, about a/(2L), covers evaluating the bound in floats.  Bounding
through max_i m_i needs the box {0..M}^n and n (1 + 1/(M+1))^(n-1) for
1/(n-1)!; at equal target the simplex has (n!)^(-1/(s-1))/n! of its terms.

Face bound.  AM-GM is tight only at the generators; a wide cone is far
from it inside.  As z is totally positive, term(m) <= scale^(-ns) F(m) with
F(x) = N(sum_i x_i f_i)^-s.  On the positive orthant N^(1/n), the geometric
mean of n positive linear forms, is concave and 1-homogeneous, and
t^(-ns) is convex and decreasing, so F = (N^(1/n))^(-ns) is convex.  Take m
with support S: m_i >= 1 on S and 0 off it.  By convexity F(m) is at most
the mean of F over the unit cube of R^S centred at m; the cubes of
distinct m do not overlap and lie in {x_S >= 1/2, |x| >= |m| - |S|/2}.
So the terms of support S beyond level L sum to at most the integral of F
over {x in R^S, x >= 0, |x| >= L + 1 - |S|/2}.  With x = t y, y on the
simplex sum_{i in S} y_i = 1 (dx = t^(|S|-1) dt dy, projected measure),
F(t y) = t^(-ns) F(y), and summing over the supports:

    tail(L) <= scale^(-ns) sum_{S != {}} J_S (L + 1 - |S|/2)^(|S|-ns) / (ns - |S|),

J_S the integral of F over that simplex: 1 for a ray, as N(f_i) = 1, and
at most 1/(|S|-1)! by AM-GM.  `_face_integral` certifies an upper bound on
each J_S from the linear interpolants of F on a bisected simplex (F is
convex), `_face_sums` adds them per |S|, and `_face_tail_bound` evaluates
the sum.  `_cone_level` takes at every level the smaller of the two
bounds, so no sum has more terms than `tail_bound` alone gives it.

Euler-Maclaurin rows.  At n = 2 the simplex has C(L + 2, 2) terms, and L
runs into the thousands at tight targets.  A group whose simplex would
cost more than its rows (`_em_wins`) goes to `kernels.em.em_sums`
instead: for each m_1 <= L the row over every m_0 >= 0.  Along a row the
summand g(m_0) = scale^-2s ((m_0 + r_1)(m_0 + r_2))^-s (as N(f_0) = 1,
r_j = (z + scale m_1 f_1)^(j) / (scale f_0^(j))) is completely monotone,
so after K direct terms Euler-Maclaurin gives the rest as the integral
from K (in closed form), g(K)/2 and p Bernoulli terms, and the remainder
lies between 0 and the first omitted term.  Its terms are all positive,
the rows hold every term of the simplex and more, and the terms they
leave out, {m_1 > L}, lie in {|m| > L}: the tail bound of level L covers
them.  The remainder and the roundoff of every operation, the integral's
truncation and cancellation included, are derived in the comment block of
`kernels.em`, in the terms of `kernels.scalar.box_sum_roundoff`; `em_sums`
returns them as one bound per shift, which `_zeta_block` adds to the tail."""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import threading
from dataclasses import dataclass

from . import kernels
from .dyadic import Ladder, gamma
from .domain import build_signed_domain
from .errors import (
    ClassResolutionMissing,
    ExponentTooLarge,
    InvalidCharacter,
    NonIntegralIdeal,
    TailBoundUnachievable,
    UnitOutsideOrder,
)
from .field import FieldElement, NumberField
from .ideals import (
    FractionalIdeal,
    Order,
    coset_enumerate_R,
    ideal_add,
    ideal_inverse,
    ideal_mul,
    integral_basis,
    principal_ideal,
    smallest_positive_rational_integer,
)
from .kernels import ZetaValue

# The largest simplex level of a Shintani sum: a target that needs more
# raises TailBoundUnachievable
_M_CAP = 200_000

# Box terms up to which a job of s in 1/2 Z, 1 <= s <= 8, is summed by
# `kernels.scalar`, which needs no NumPy, instead of `kernels.box_sums`.
# Importing NumPy costs about 110 ms.  Per term the scalar sum costs about
# 0.3 us on long slabs and up to 0.8 us on many short ones (hundreds of
# shifts at radius 9, n = 3, which its point-major blocks share), NumPy
# 0.01-0.1 us.  So NumPy repays its import from about 1.4 10^5 terms at the
# slowest scalar rate, and from 3 10^5 at the fastest: below 10^5 the
# scalar sum is never the slower.  The terms of groups that go to the
# Euler-Maclaurin sum (below) do not count.
_SCALAR_TERMS = 10 ** 5

# The cost of the Euler-Maclaurin sum (`kernels.em.em_sums`) in terms
# of the scalar simplex sum at n = 2: a row (one m_1, summed over every
# m_0) costs about 3-4 us without direct terms and a direct term about
# 0.5 us, against 0.25-0.45 us per simplex term at levels 40 to 400
# (s = 2, 2.5 and 3, two shifts, on a 2-core host that takes 0.25 ms for
# sum(range(10^4))): _EM_ROW and _EM_DIRECT terms.  A group goes to it when
# its C(L + 2, 2) simplex terms per shift cost more than its L + 1 rows with
# the most direct terms a row can take (`em_direct_terms`, 13-16 at
# s = 2-3), that is from L = 83 at s = 2.  NumPy's sum never wins there:
# from L = 83 to the cap the rows cost 0.3 ms to 0.8 s, the import alone
# 110 ms and the 4 10^3 to 2 10^10 terms 0.01-0.1 us each.
_EM_ROW = 16
_EM_DIRECT = 2


def __getattr__(name):
    if name not in ("euler_product_oracle", "euler_product_roundoff"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    return getattr(oracle, name)


def _em_wins(n: int, s: float, radius: int) -> bool:
    """Whether a group of degree n at this level goes to
    `kernels.em.em_sums`: n = 2, s in 1/2 Z with 1 < s <= 8, and the
    simplex terms cost more than the rows (see _EM_ROW).  It reads the
    group alone, so a point's sum does not depend on its job.  Below
    L = 2 _EM_ROW - 1 no row is cheaper, and `kernels.em` is not imported."""
    if n != 2 or s <= 1 or not kernels.scalar.half_integer_power(s)[0]:
        return False
    if radius + 2 <= 2 * _EM_ROW:
        return False
    from .kernels import em
    row = _EM_ROW + _EM_DIRECT * em.em_direct_terms(s)
    return math.comb(radius + 2, 2) > (radius + 1) * row


def _box_sums(s: float, terms: int):
    """The simplex-sum evaluator of a job of `terms` box terms at s: the
    scalar one for s in 1/2 Z, 1 <= s <= 8, and at most _SCALAR_TERMS
    terms, NumPy's otherwise.  Both give the same floats."""
    if kernels.scalar.half_integer_power(s)[0] and terms <= _SCALAR_TERMS:
        return kernels.scalar.box_sums
    return kernels.box_sums


@dataclass
class ZetaParams:
    """Evaluation request: target absolute error and worker threads."""

    target_error: float = 1e-6
    threads: int = 1


def tail_bound(n: int, s: float, scale: int, radius: int) -> float:
    """Certified remainder of the simplex sum outside |m| <= radius."""
    if s <= 1:
        raise ValueError("tail bound needs s > 1")
    a = n * s - n
    c = (1 + n / (2 * radius + 2)) ** (n - 1) / math.factorial(n - 1)
    return c * scale ** (-n * s) * radius ** (-a) / a


# Splits per cone in the certified face integrals (`_face_integral`),
# shared by its faces of two or more generators, a face of k generators
# weighing 2^(k-2) (at small L the faces of most generators dominate the
# face bound): 64 for the one face at n = 2; 12 per edge and 25 for the
# top face at n = 3; 3, 7 and 14 at n = 4.  A split costs about 10 us, so
# a job's face integrals cost about 0.1 ms at n = 2, 1 ms at n = 3 and
# 2.5 ms at n = 4 (43 distinct faces over six cones) on a 2-core host that
# takes 0.25 ms for sum(range(10^4)).  A face stops splitting early once
# its largest gain is below _FACE_TOL of its bound.  With fewer than
# _FACE_MIN_SPLITS per edge (n >= 5) the faces stay near their AM-GM
# values, where `_face_tail_bound` exceeds `tail_bound`, so they are not
# bounded: 283 distinct faces at n = 5 and 2131 at n = 6 would cost about
# 10 and 75 ms for no fewer terms.
_FACE_SPLITS = 64
_FACE_MIN_SPLITS = 2
_FACE_TOL = 2.0 ** -6

# `_face_sums` numbers generators and fills a field's face cache, which the
# thread pool's blocks share
_FACE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=None)
def _bisection_rules(k: int):
    """The edges (i, j), i < j, of a simplex of k vertices, and how a
    bisected cell's squared edge lengths give its children's: the midpoint c
    of ab has |xc|^2 = (|xa|^2 + |xb|^2) / 2 - |ab|^2 / 4 (Apollonius) and
    |ac|^2 = |ab|^2 / 4.  rules[e][t] lists, per edge of the child in which
    end t of edge e = ab is replaced by c, the (f, g, w) of its squared
    length (len_f + len_g) / 2 - w len_e."""
    edges = tuple(itertools.combinations(range(k), 2))
    rules = []
    for a, b in edges:
        per_end = []
        for r, o in ((a, b), (b, a)):
            rule = []
            for f, (i, j) in enumerate(edges):
                if r not in (i, j):
                    rule.append((f, f, 0.0))
                elif o in (i, j):
                    rule.append((f, f, 0.75))
                else:
                    x = i + j - r
                    rule.append((f, edges.index((min(o, x), max(o, x))), 0.25))
            per_end.append(tuple(rule))
        rules.append(tuple(per_end))
    return edges, tuple(rules)


def _face_integral(rows, s: float, delta: float, splits: int) -> float:
    """Certified upper bound on the face integral J_S of the generators whose
    float conjugates (relative error <= delta) are the k rows: the integral
    of F(y) = N(sum_i y_i f_i)^-s over the simplex sum_i y_i = 1, y >= 0,
    in projected measure (total volume 1/(k-1)!).

    F is convex (see the module docstring), so on a simplex cell it lies
    below the linear interpolant of its vertex values: the cell contributes
    at most vol * (mean of F at its vertices).  The cell whose bisection
    gains most is bisected across its longest edge ab, through the midpoint
    c: its two children contribute vol (F(a) + F(b) - 2 F(c)) / (2k) less.
    At most `splits` cells are split, and splitting stops once the largest
    gain is below _FACE_TOL of the bound.  A midpoint's
    conjugate sums are the mean of its edge's ends, one rounding per level,
    so at depth d they are within (1 + delta) (1 + gamma_d) above the exact
    sums, and F there is at most F' (1 + delta)^(nS) (1 + gamma_R),
    S = ceil(s), R = nS d + S (n - 1) + 8 for the product and the power
    (pow allowed 4 ulps, as in `kernels.box_sum_roundoff`).  The k - 1
    additions and the division of a mean, the fsum of the cells, the
    division by (k-1)! and the factor 1 + rho add k + 4 roundings, and one
    more is spare for evaluating rho."""
    k, n = len(rows), len(rows[0])
    if k == 1:
        return 1.0                      # N(f_i) = 1
    edges, rules = _bisection_rules(k)
    prod, push, ldexp = math.prod, heapq.heappush, math.ldexp
    # a cell: (-2 gain / vol of the face, tie-break, depth, vertices as
    # (conjugate sums, F), squared edge lengths, longest edge, its midpoint)
    cells = []

    def add(vs, lens, depth, tie):
        e = lens.index(max(lens))
        a, b = edges[e]
        (ca, fa), (cb, fb) = vs[a], vs[b]
        conj = [(p + q) * 0.5 for p, q in zip(ca, cb)]
        f = prod(conj) ** -s
        push(cells, (ldexp(2 * f - fa - fb, -depth), tie, depth, vs, lens, e, (conj, f)))

    root = [(row, prod(row) ** -s) for row in rows]
    add(root, [2.0] * len(edges), 0, 0)
    total = sum(v[1] for v in root)     # of vol * sum of F, vol in 2^-depth
    for split in range(1, splits + 1):
        if -cells[0][0] < _FACE_TOL * total:
            break
        loss, _, depth, vs, lens, e, mid = heapq.heappop(cells)
        total += loss / 2
        le = lens[e]
        for t, r in enumerate(edges[e]):
            add(vs[:r] + [mid] + vs[r + 1:],
                [(lens[f] + lens[g]) * 0.5 - w * le for f, g, w in rules[e][t]],
                depth + 1, 2 * split + t)
    big_s = math.ceil(s)
    depth = max(c[2] for c in cells)
    rounds = n * big_s * depth + big_s * (n - 1) + 8 + k + 5
    rho = math.expm1(math.log1p(gamma(rounds)) + n * big_s * math.log1p(delta))
    bound = math.fsum(ldexp(sum([v[1] for v in c[3]]) / k, -c[2]) for c in cells)
    return bound / math.factorial(k - 1) * (1 + rho)


def _face_splits(n: int, k: int) -> int:
    """The splits of a face of k >= 2 generators at degree n: its share of
    the cone's _FACE_SPLITS, a face of k generators weighing 2^(k-2)."""
    weight = sum(math.comb(n, j) << (j - 2) for j in range(2, n + 1))
    return (_FACE_SPLITS << (k - 2)) // weight


def _face_sums(cone, s: float) -> list[float] | None:
    """c_k = sum of the certified face integrals J_S over the faces of k
    generators of the cone, k = 1, ..., n (c_1 = n: a ray has J = 1).  Each
    face is bounded once per field and s, whatever cones share it, with
    `_face_splits`; None when an edge's share is below _FACE_MIN_SPLITS."""
    field, gens = cone.field, cone.generators
    n = field.degree
    if _face_splits(n, 2) < _FACE_MIN_SPLITS:
        return None
    cache = field._face_cache
    with _FACE_LOCK:
        # generators are numbered per field, so faces are keyed by small ints
        numbers = cache.setdefault("generators", {})
        ids = [numbers.setdefault((g.num, g.den), len(numbers)) for g in gens]
        key = (s, tuple(ids))
        sums = cache.get(key)
        if sums is not None:
            return sums
        floats, deltas = _embed_floats(field, gens)
        sums = [float(n)]
        for k in range(2, n + 1):
            parts = []
            for face in itertools.combinations(range(n), k):
                fkey = (s, frozenset(ids[i] for i in face))
                bound = cache.get(fkey)
                if bound is None:
                    delta = math.nextafter(max(deltas[i] for i in face), math.inf)
                    bound = _face_integral([floats[i] for i in face], s, delta,
                                           _face_splits(n, k))
                    cache[fkey] = bound
                parts.append(bound)
            sums.append(math.fsum(parts))
        cache[key] = sums
    return sums


def _face_tail_bound(n: int, s: float, scale: int, radius: int, sums) -> float:
    """Certified remainder of a cone's simplex sum outside |m| <= radius from
    its face sums c_k (`_face_sums`): scale^(-ns) sum_k c_k
    (radius + 1 - k/2)^(k - ns) / (ns - k), see the module docstring."""
    ns = n * s
    if radius + 1 - n / 2 <= 0:
        return math.inf
    total = math.fsum(c * (radius + 1 - k / 2) ** (k - ns) / (ns - k)
                      for k, c in enumerate(sums, 1))
    # ns and k - ns are rounded once each, so the exponents are off by at
    # most 2 u ns, which moves the powers of radius + 1 - k/2 and of the
    # scale by at most exp(2 u ns log((radius + 1) scale)); the fsum of the
    # c_k and of the terms, the two powers (4 ulps each), the product, the
    # difference and the division of a term and the last two products
    # round at most 26 times.  2^-50 = 8u covers both with room to spare.
    slack = 2.0 ** -50 * (ns * math.log((radius + 1) * scale) + 8)
    return total * scale ** -ns * (1 + slack)


def _cone_level(cone, s: float, scale: int, target: float) -> tuple[int, float]:
    """(L, tail): the smallest simplex level 4 <= L <= _M_CAP at which the
    smaller of `tail_bound` and `_face_tail_bound` (`tail_bound` alone when
    the cone has no face sums) meets the target, and that bound at L.  Both
    bounds are non-increasing in L, so one bisection finds it."""
    n = cone.field.degree
    sums = _face_sums(cone, s)

    def tail(level):
        bound = tail_bound(n, s, scale, level)
        return bound if sums is None else min(bound, _face_tail_bound(n, s, scale, level, sums))

    if tail(_M_CAP) > target:
        raise TailBoundUnachievable(f"target {target} needs radius beyond the cap {_M_CAP}")
    lo, hi = 3, _M_CAP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi, tail(hi)


def _embed_floats(field: NumberField, elems):
    """Float conjugates of totally positive elements, the midpoints of outward
    floats 0 < lo <= x <= hi, and per element its relative error
    max (hi - lo) / lo, exact but for the division (Sterbenz); each climbs
    to <= 2^-50.  Every rung reads the certified positive conjugates of
    `NumberField._positive_conjugates`, so 0 raises ZeroElement and an
    element with a negative conjugate NotTotallyPositive."""
    floats, deltas = [], []
    for elem in elems:
        for prec in Ladder(field.prec_cap, "float conjugates"):
            rows = [iv.float_bounds() for iv in field._positive_conjugates(elem, prec)]
            d = max((hi - lo) / lo if lo > 0 else math.inf for lo, hi in rows)
            if d <= 2.0 ** -50:
                break
        floats.append([0.5 * (lo + hi) for lo, hi in rows])
        deltas.append(d)
    return floats, deltas


def _zeta_block(s: float, cone, points, level: tuple[int, float],
                scale: int, box_sums) -> list[ZetaValue]:
    """The Shintani sum of every z of points at the level (L, tail) that
    `_cone_level` gives the target, by one call of `kernels.em.em_sums`
    where `_em_wins`, else of the evaluator box_sums: each value, radius
    and bound is bit for bit that of the single-point sum, whose float
    inputs have relative error max(delta_z, delta of the generators),
    rounded up."""
    field = cone.field
    n = field.degree
    radius, tail = level
    floats, deltas = _embed_floats(field, [*points, *cone.generators])
    k = len(points)
    gen_delta = max(deltas[k:])
    deltas = [math.nextafter(max(d, gen_delta), math.inf) for d in deltas[:k]]
    if _em_wins(n, s, radius):
        from .kernels.em import em_sums
        return [ZetaValue(value, tail + bound, terms, radius)
                for value, bound, terms in em_sums(
                    floats[:k], floats[k:], s, radius, float(scale), deltas)]
    terms = math.comb(radius + n, n)
    values = box_sums(floats[:k], floats[k:], s, radius, float(scale))
    return [ZetaValue(value, tail + kernels.box_sum_roundoff(value, n, s, radius, d),
                      terms, radius)
            for value, d in zip(values, deltas)]


def _require_s(s: float, n: int) -> None:
    """The check of s on entry to every Shintani sum at degree n: ValueError
    unless s > 1, where the series converge, and ExponentTooLarge past the
    s at which a roundoff bound would count too many roundings.

    A bound that counts K roundings uses gamma_K = K u / (1 - K u), read
    as at most 2 K u, which needs K u <= 1/2.  With S = ceil(s) the counts
    are at most S (65 n - 1) + n + 13 in `_face_integral` (its depth is at
    most its splits, at most _FACE_SPLITS = 64, and k <= n), and at most
    S (n^2 + 3 n) + n + 2^18 in `kernels.box_sum_roundoff` (its constants
    and the bit length of C(L + n - 1, n - 1) < 2^(L + n - 1), L <= _M_CAP,
    stay below n + 2^18); `kernels.em` takes s <= 8 only.  Both are below
    S n (n + 65) + n + 2^18, so S n (n + 65) <= 2^51 keeps every K u < 1/2."""
    if not s > 1:
        raise ValueError("the series converge for s > 1 only")
    if not s <= 2 ** 51 // (n * (n + 65)):
        raise ExponentTooLarge(f"s = {s!r} is too large: the roundoff bounds of the "
                               f"Shintani sums at degree {n} need ceil(s) n (n + 65) <= 2^51")


def _require_norm_power(norm, s: float) -> None:
    """ExponentTooLarge unless s log2 N <= 958 for the norm N of the ideal
    whose R-set a sum runs over, checked before any sum.

    A point z of that lattice has N(z) >= 1/N, so the sums' terms reach N^s,
    and the sums are scaled by N^-s.  Both, every sum of such terms and
    every bound on one must stay finite floats.  With N^s <= 2^958, N^-s is
    a normal float, and a sum of fewer than 2^64 terms (more is never
    evaluated), each at most N^s, stays below 2^1022, half the float
    range, which leaves room for its bounds."""
    if s * math.log2(norm) > 958:
        raise ExponentTooLarge(f"s = {s!r} is too large for an ideal of norm {norm}: "
                               "the sums reach norm^s, so s log2(norm) must be <= 958")


def shintani_zeta(s: float, z: FieldElement, cone, params: ZetaParams,
                  scale: int = 1) -> ZetaValue:
    """Sum over m >= 0, |m| <= L, of prod_j (z^(j) + scale*sum m_i f_i^(j))^-s
    with a certified tail bound plus the derived float-roundoff bound; where
    `_em_wins`, over m_1 <= L and every m_0 instead (see the module
    docstring)."""
    _require_s(s, cone.field.degree)
    return _sum_jobs(s, [(cone, z, params.target_error, 1, 1)], scale, params)


@dataclass
class CharacterTable:
    """Ray-class character data: one value per narrow-class representative.

    ``resolve`` maps an integral ideal to its representative index; it may be
    omitted exactly when there is a single class.  Values must have modulus
    1 (or be 0); the character is extended by zero on ideals not coprime to
    the conductor.
    """

    representatives: list
    values: list
    conductor: FractionalIdeal
    zero_on_noncoprime: bool = True
    resolve: object = None

    def __post_init__(self):
        if len(self.representatives) != len(self.values):
            raise InvalidCharacter("one value per representative")
        for v in self.values:
            if abs(abs(complex(v)) - 1) > 1e-12 and abs(complex(v)) > 1e-12:
                raise InvalidCharacter("character values must have modulus 1 or 0")

    @property
    def depends_on_ideal(self) -> bool:
        """Whether value_of reads its ideal: with a resolver, several
        values, or a proper conductor that it must be coprime to."""
        return (self.resolve is not None or len(self.values) > 1
                or (self.zero_on_noncoprime and not self.conductor.is_whole_ring()))

    def value_of(self, ideal: FractionalIdeal) -> complex:
        if self.zero_on_noncoprime and not self.conductor.is_whole_ring():
            if not ideal_add(ideal, self.conductor).is_whole_ring():
                return 0j
        if self.resolve is not None:
            return complex(self.values[self.resolve(ideal)])
        if len(self.values) == 1:
            return complex(self.values[0])
        raise ClassResolutionMissing(
            "several classes but no class-resolution table")


def trivial_character(order: Order) -> CharacterTable:
    return CharacterTable([FractionalIdeal.whole_ring(order)], [1 + 0j],
                          FractionalIdeal.whole_ring(order))


# Points per block of the R-set path: one block's kernel arrays hold
# P * N floats, N = C(L + n - 1, n - 1) the longest slab, and P is at most
# _BLOCK // N (at least 1), so a block costs about the memory of one
# single-point sum of a few thousand terms.
_BLOCK = 2 ** 12


def _sum_jobs(s: float, jobs, scale: int, params: ZetaParams) -> ZetaValue:
    """Sum of weight * zeta and of bound_weight * its error bound over the
    jobs (cone, z, target, weight, bound_weight), zeta being the Shintani
    sum of z over the cone at that target and scale; a job of None is not
    evaluated and adds (0j, 0.0).  `shintani_zeta` is the sum of one job.

    The jobs are grouped by cone and target, so a group has one radius L,
    and each group is cut into blocks of at most _BLOCK // N points, which
    the thread pool (params.threads) maps over.  The results are added in
    job order, so the sums do not depend on the blocks or the threads.  A
    group that `_em_wins` is summed by Euler-Maclaurin; one evaluator
    (`_box_sums`) sums every other block, picked for the total terms of
    those groups."""
    groups = {}
    for i, job in enumerate(jobs):
        if job is not None:
            groups.setdefault((id(job[0]), job[2]), []).append(i)
    blocks = []
    terms = 0
    for members in groups.values():
        cone, _z, target = jobs[members[0]][:3]
        n = cone.field.degree
        level = _cone_level(cone, s, scale, target)
        radius = level[0]
        size = max(1, _BLOCK // math.comb(radius + n - 1, n - 1))
        blocks += [(cone, members[lo:lo + size], level)
                   for lo in range(0, len(members), size)]
        if not _em_wins(n, s, radius):
            terms += len(members) * math.comb(radius + n, n)
    box_sums = _box_sums(s, terms)

    def run(block):
        cone, members, level = block
        return _zeta_block(s, cone, [jobs[i][1] for i in members], level, scale, box_sums)

    if params.threads <= 1 or len(blocks) <= 1:
        values = [run(b) for b in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=params.threads) as ex:
            values = list(ex.map(run, blocks))
    zvs = {i: zv for (_, members, _), vs in zip(blocks, values)
           for i, zv in zip(members, vs)}
    results = [(0j, 0.0, 0, 0) if job is None else
               (job[3] * zvs[i].value, job[4] * zvs[i].error_bound,
                zvs[i].terms, zvs[i].radius)
               for i, job in enumerate(jobs)]
    return ZetaValue(sum(r[0] for r in results), sum(r[1] for r in results),
                     sum(r[2] for r in results), max((r[3] for r in results), default=0))


def _prepare(s: float, field: NumberField, units, order: Order | None, reps, conductor):
    """The one input contract of `l_function` and `partial_zeta`, checked
    before any sum; returns the order (the maximal one by default) and the
    signed domain built from the units it checked.

    s passes `_require_s`.  The cone generators are products of the units,
    and the R-sets are enumerated in ideals of the order, so every unit must
    lie in it (UnitOutsideOrder); the domain build then holds the units to
    the regulator's contract (`NumberField.signed_regulator_sign`).  Class
    representatives and conductors must be integral ideals, that is den = 1
    in lowest terms (NonIntegralIdeal); otherwise the R-set lattices
    (a f)^-1 and a^-1 f need not contain the scaled cone generators, or the
    sums mean another class."""
    _require_s(s, field.degree)
    order = order or integral_basis(field)
    for u in units:
        if not order.contains(u):
            basis = ", ".join("(" + ", ".join(map(str, b.coeffs)) + ")"
                              for b in order.basis)
            raise UnitOutsideOrder(
                f"unit ({', '.join(map(str, u.coeffs))}) does not lie in the "
                f"order with basis {basis} in power-basis coordinates")
    for what, ideal in [("representative", rep) for rep in reps] + [("conductor", conductor)]:
        if ideal.den != 1:
            raise NonIntegralIdeal(f"the {what} with hnf {[list(r) for r in ideal.hnf]} "
                                   f"and den {ideal.den} is not an integral ideal")
    return order, build_signed_domain(units, field)


def l_function(s: float, chi: CharacterTable, units, field: NumberField,
               params: ZetaParams, order: Order | None = None) -> ZetaValue:
    """L(s, chi) as the triple sum over class representatives, cones, and
    R-set points, for Re(s) > 1.  `_prepare` checks the input contract and
    builds the domain.

    Contract: the units must generate the full group of totally positive
    units (finite index is not enough here; the caller asserts it).
    """
    order, dom = _prepare(s, field, units, order, chi.representatives, chi.conductor)
    varies = chi.depends_on_ideal
    terms = []
    for rep in chi.representatives:
        af = ideal_mul(rep, chi.conductor)
        _require_norm_power(af.norm(), s)
        n_af = float(af.norm())
        lattice = ideal_inverse(af)
        for cone in dom.cones:
            rset = coset_enumerate_R(cone, lattice, shift=0, scale=1)
            for z, _t in rset.points:
                # (z) af is formed only when the value can depend on it
                chi_val = chi.value_of(ideal_mul(principal_ideal(order, z), af)
                                       if varies else af)
                terms.append((cone, z, n_af ** (-s), chi_val))
    # live jobs' bounds, weighted by nfac, share half the target evenly
    share = params.target_error / (2 * max(1, sum(t[3] != 0 for t in terms)))
    jobs = [None if chi_val == 0 else
            (cone, z, share / nfac, cone.w * nfac * chi_val, nfac * abs(chi_val))
            for cone, z, nfac, chi_val in terms]
    return _sum_jobs(s, jobs, 1, params)


def partial_zeta(s: float, ray_class, field: NumberField, params: ZetaParams,
                 order: Order | None = None) -> ZetaValue:
    """zeta(s, ray class of a mod f*infinity) for Re(s) > 1.  `_prepare`
    checks the input contract and builds the domain.

    ``ray_class`` is (a, f, units) with a an integral representative, f the
    conductor's finite part, and units generating the totally positive units
    congruent to 1 mod f (caller-asserted, as in the L-function contract).
    """
    a_ideal, conductor, units = ray_class
    _, dom = _prepare(s, field, units, order, [a_ideal], conductor)
    _require_norm_power(a_ideal.norm(), s)
    f_int = smallest_positive_rational_integer(conductor)
    lattice = ideal_mul(ideal_inverse(a_ideal), conductor)
    n_a = float(a_ideal.norm())
    points = []
    for cone in dom.cones:
        rset = coset_enumerate_R(cone, lattice, shift=field.one, scale=f_int)
        points += [(cone, z) for z, _t in rset.points]
    per_term = params.target_error / (2 * len(points)) if points else params.target_error
    target = per_term * (n_a ** s)
    total = _sum_jobs(s, [(cone, z, target, cone.w, 1) for cone, z in points],
                      f_int, params)
    return ZetaValue(n_a ** (-s) * total.value, n_a ** (-s) * total.error_bound,
                     total.terms, total.radius)


def dedekind_zeta_via_domain(s: float, units, field: NumberField,
                             params: ZetaParams,
                             order: Order | None = None) -> ZetaValue:
    """The partial zeta function of the principal narrow ideal class at s,
    assembled from the signed domain (trivial character on one class).
    This is zeta_k(s) only when k has narrow class number 1; Q(sqrt3), for
    one, has narrow class number 2 (its fundamental unit 2 + sqrt3 has
    norm +1), and there this is the principal class's part alone."""
    order = order or integral_basis(field)
    return l_function(s, trivial_character(order), units, field, params,
                      order=order)
