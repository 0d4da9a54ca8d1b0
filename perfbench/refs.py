"""Reference values for every job, computed without the signed-domain path.

The abelian fixtures get exact L-function formulas, evaluated with mpmath:
zeta_K(s) = zeta(s) L(s, chi_D) for Q(sqrt D), and zeta(s) |L(s, chi)|^2 for
the cyclic cubic field of conductor 9 (chi a cubic character mod 9).  At
s = 2 the quadratic ones are the closed forms pi^4/(48 sqrt2),
pi^4/(36 sqrt3) and 2 pi^4/(75 sqrt5).  The quartic field (Galois group D4)
has no such formula, so its values are Euler products frozen with their
bounds.
"""

from __future__ import annotations

import cmath

import mpmath

from jobs import ZETA_FIELD

mpmath.mp.dps = 30

# Error allowed for the mpmath values after conversion to float.
FORMULA_BOUND = 1e-15

# euler_product_oracle(s, quartic_725, 10**6) at the seed, as (value, bound).
QUARTIC_725_EULER = {
    2.0: (1.0369329178228897, 5.706767781806478e-07),
    2.5: (1.0087964423252618, 3.5838673066782143e-10),
    3.0: (1.0022895968923815, 1.266978394524738e-12),
}

_QUADRATIC_CHI = {
    # Kronecker symbol (D / a) over one period
    "q_sqrt2": [0, 1, 0, -1, 0, -1, 0, 1],
    "q_sqrt3": [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1],
    "q_sqrt5": [0, 1, -1, -1, 1],
}


def _cubic_chi9():
    chi = [0j] * 9
    w = cmath.exp(2j * cmath.pi / 3)
    for k in range(6):                      # 2 generates (Z/9)^*
        chi[pow(2, k, 9)] = w ** k
    return chi


def dedekind_zeta(field: str, s: float) -> tuple[float, float]:
    """(zeta_K(s), bound on its error) for a fixture field."""
    field = ZETA_FIELD.get(field, field)
    if field in _QUADRATIC_CHI:
        v = mpmath.zeta(s) * mpmath.dirichlet(s, _QUADRATIC_CHI[field])
        return float(v), FORMULA_BOUND
    if field == "cubic_81":
        v = mpmath.zeta(s) * abs(mpmath.dirichlet(s, _cubic_chi9())) ** 2
        return float(v), FORMULA_BOUND
    if field == "quartic_725":
        return QUARTIC_725_EULER[float(s)]
    raise KeyError(f"no reference for {field}")


def reference(check: dict) -> tuple[float, float]:
    """Reference value and bound for a value or class-set check: zeta_K(s)
    times prod over the primes P | f of (1 - N(P)^-s)."""
    value, bound = dedekind_zeta(check["field"], check["s"])
    factor = 1.0
    for norm in check["norms"]:
        factor *= 1 - norm ** -check["s"]
    return value * factor, bound * factor


def known_wrong_oracle(check: dict) -> float | None:
    """The value the oracle is known to return on x^2 - 5 (ROADMAP item 4):
    it reads the inert prime 2 off x^2 - 5 = (x + 1)^2 mod 2 as a degree-1
    prime, which multiplies zeta_K(s) by (1 - 4^-s) / (1 - 2^-s) = 1 + 2^-s."""
    if check["field"] != "q_sqrt5":
        return None
    value, _ = dedekind_zeta("q_sqrt5", check["s"])
    return value * (1 + 2.0 ** -check["s"])


def within(value: complex, bound: float, ref: float, ref_bound: float) -> bool:
    return abs(complex(value) - ref) <= bound + ref_bound


def check_output(check: dict, out: dict) -> str | None:
    """Reason the job's output is wrong, or None.  Class-set sums are
    checked by the caller once the whole set has run."""
    kind = check["kind"]
    if kind == "cones":
        cones = out.get("cones")
        if not cones or any(c.get("w") not in (1, -1) for c in cones):
            return "no valid signed cones"
        return None
    if kind == "verify":
        if out.get("net_count_ok") is not True:
            return "net count differs from 1"
        if out.get("samples") != check["samples"]:
            return "wrong sample count"
        return None
    bound = out.get("error_bound")
    if not isinstance(bound, float) or bound < 0:
        return "no error bound"
    if check["target"] is not None and bound > check["target"]:
        return f"error bound {bound:.3e} exceeds target {check['target']:.3e}"
    if kind == "classes":
        return None
    ref, ref_bound = reference(check)
    if not within(output_value(out), bound, ref, ref_bound):
        return f"value {output_value(out)!r} outside reference {ref!r}"
    return None


def output_value(out: dict) -> complex:
    v = out["value"]
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)
