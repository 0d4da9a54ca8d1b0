"""The two inner loops that dominate runtime: the truncated simplex sum of a
Shintani zeta series (with `box_sum_roundoff`, its float error), and the
prime-splitting scan for the Euler-product oracle.  Both are NumPy code in
`reference`; `BACKEND` names it for benchmark stamps."""

from .reference import box_sum, box_sum_roundoff, splitting_counts

BACKEND = "reference"
