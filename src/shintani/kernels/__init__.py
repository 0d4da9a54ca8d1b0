"""The two inner loops that dominate runtime: the truncated simplex sum of a
Shintani zeta series, for a block of shifts at once (with
`box_sum_roundoff`, its float error), and the prime-splitting scan for the
Euler-product oracle.  Both are NumPy code in `reference`; `BACKEND` names
it for benchmark stamps."""

from .reference import box_sum, box_sum_roundoff, box_sums, splitting_counts

BACKEND = "reference"
