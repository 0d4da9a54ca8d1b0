"""The two inner loops that dominate runtime: the truncated simplex sum of a
Shintani zeta series (with `box_sum_roundoff`, its float error), and the
prime-splitting scan for the Euler-product oracle.  Both are NumPy code in
`reference`; `BACKEND` names it for benchmark stamps."""

from . import reference
from .reference import box_sum_roundoff

BACKEND = "reference"


def box_sum(z, gens, s, radius, scale=1.0):
    """Sum over m >= 0 with m_0 + ... + m_{n-1} <= radius of
    prod_j (z_j + scale*sum_i m_i*gens[i][j])^-s."""
    return reference.box_sum(list(map(float, z)),
                             [list(map(float, g)) for g in gens],
                             float(s), int(radius), float(scale))


def splitting_counts(poly_mod_coeffs, primes):
    """Per prime p: counts (a_1, ..., a_n) of distinct irreducible factors of
    the squarefree part of the polynomial mod p, by degree."""
    return reference.splitting_counts([int(c) for c in poly_mod_coeffs], primes)
