"""A table of seeded mutants of ``src/shintani`` and the tests that must
kill them.  Standard library only.

Each row is one textual mutant: a file, its exact old text (which must
occur exactly once there; ``tests/test_mutants.py`` checks that in tier-1,
so the table cannot go stale silently), the new text, and either the tests
expected to kill it or the reason it is known to survive.

    python3 tests/mutants.py [PREFIX ...]

applies each mutant (or those whose name starts with a prefix) in a
temporary copy of the working tree, runs its tests there with
pytest, and prints one line per mutant.  A mutant marked to be killed runs only its tests; a surviving one
runs all of ``tests/``, to show that nothing kills it yet.  The exit status
is 1 when some mutant's outcome is not the one the table records (a mutant
marked killed survives, or a recorded survivor is killed), 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The float-stage bounds that no test reaches yet: their tests come from
# inputs chosen to make the float error large (ROADMAP item 3(a)).
SURVIVES = "survives: item 3(a)"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str           # relative to the repository root
    old: str
    new: str
    kill: tuple | str   # pytest node ids, or SURVIVES


MUTANTS = (
    Mutant("M2: float membership bound without the data radius",
           "src/shintani/domain.py",
           "bound = UP * ((1 + rho) * rad + (rho + gamma_n) * mag)",
           "bound = UP * ((rho + gamma_n) * mag)",
           SURVIVES),
    Mutant("M3: exponent box without the dot product's gamma_r",
           "src/shintani/domain.py",
           "rad += (tr + _gamma(r) * abs(tm)) * abs(m)",
           "rad += tr * abs(m)",
           SURVIVES),
    Mutant("minor: expansion parity flipped",
           "src/shintani/dyadic.py",
           "d = d - t if p % 2 else d + t",
           "d = d + t if p % 2 else d - t",
           ("tests/test_dyadic.py::test_iv_det_2x2",
            "tests/test_dyadic.py::test_minor_table_matches_laplace_on_random_matrices")),
    Mutant("minor: row set dropped from the memo key",
           "src/shintani/dyadic.py",
           "key = rs, cs",
           "key = cs",
           ("tests/test_dyadic.py::test_iv_adjugate_is_exact_on_integer_matrices",
            "tests/test_dyadic.py::test_minor_table_matches_laplace_on_random_matrices")),
    Mutant("cone sign: w_sigma flipped",
           "src/shintani/domain.py",
           "w = (-1) ** (n - 1) * _perm_sign(sigma)",
           "w = (-1) ** n * _perm_sign(sigma)",
           ("tests/test_cli.py::test_cones_q2",
            "tests/test_domain.py::test_degree_6_domain_and_net_counts")),
    Mutant("half-open rule: a zero coordinate passes the open face",
           "src/shintani/domain.py",
           "return c > 0 or (c == 0 and flag == FLAG_CLOSED)",
           "return c > 0 or (c == 0 and flag == FLAG_OPEN)",
           ("tests/test_geometry.py::test_boundary_vector_decisions",
            "tests/test_domain.py::test_negated_points_are_outside_on_every_route")),
    Mutant("regulator bound: raised to 1",
           "src/shintani/field.py",
           "_REGULATOR_MIN = Fraction(1, 5)",
           "_REGULATOR_MIN = Fraction(1, 1)",
           ("tests/test_field.py::test_regulator_sign_of_every_fixture",)),
    Mutant("regulator sign: dependent units read as sign 0",
           "src/shintani/field.py",
           "raise DependentUnits(\"units are multiplicatively dependent\")",
           "return 0",
           ("tests/test_cli.py::test_cones_on_dependent_units_exit_2",)),
    Mutant("total positivity: no exit at a conjugate certified negative",
           "src/shintani/field.py",
           "if any(iv.sign() == -1 for iv in conj):",
           "if False:",
           ("tests/test_field.py::test_log_vector_requires_positive",
            "tests/test_field.py::test_is_totally_positive")),
    Mutant("total positivity: coordinate vectors not checked",
           "src/shintani/domain.py",
           "if any(c <= 0 for c in seq):",
           "if False:",
           ("tests/test_domain.py::test_orbit_net_count_rejects_a_vector_not_totally_positive",)),
    Mutant("orbit net count: coordinate vectors of any length",
           "src/shintani/domain.py",
           "if len(seq) != field.degree:",
           "if False:",
           ("tests/test_domain.py::test_orbit_net_count_rejects_a_vector_of_the_wrong_length",)),
    Mutant("field element: no gcd normalisation",
           "src/shintani/field.py",
           "    g = math.gcd(den, *num)\n",
           "    g = 1\n",
           ("tests/test_field.py::test_elements_are_stored_in_lowest_terms",
            "tests/test_golden_cli.py::test_cli_output_matches_its_golden_digest")),
    Mutant("field element: no sign normalisation of the denominator",
           "src/shintani/field.py",
           "        num, den = [-a for a in num], -den\n",
           "        pass\n",
           ("tests/test_field.py::test_elements_are_stored_in_lowest_terms",)),
    Mutant("basis search: a kept move squares the unit, an index-2 subgroup",
           "src/shintani/domain.py",
           "best, units[i], kept = cost, trial, True",
           "best, units[i], kept = cost, units[i] ** 2, True",
           ("tests/test_zeta.py::test_dedekind_zeta_closed_form",
            "tests/test_zeta.py::test_zeta_at_two_matches_the_functional_equation")),
    Mutant("basis cost: signed determinants, sum det C_sigma",
           "src/shintani/domain.py",
           "det = abs(_eliminate(mat[1:], False)[1])",
           "det = _eliminate(mat[1:], False)[1]",
           # the signed sum falls without bound as the units grow, so the
           # quartic search runs away (10^5-bit coefficients within 15 s)
           # and the quartic tests never reach their assertions
           ("tests/test_zeta.py::test_basis_cost_counts_the_r_set_points",
            "tests/test_zeta.py::test_partial_zeta_block_path_is_single_point_sum")),
    Mutant("log: the upper bound without its error count",
           "src/shintani/dyadic.py",
           "    return a, 3 * (j + 1) + 1\n",
           "    return a, 0\n",
           ("tests/test_dyadic.py::test_log_encloses_mpmath_on_adversarial_inputs",)),
    Mutant("log: the ends of log 2 not swapped for k < 0",
           "src/shintani/dyadic.py",
           "    lo2, hi2 = log2 if k >= 0 else log2[::-1]\n",
           "    lo2, hi2 = log2\n",
           ("tests/test_dyadic.py::test_log_encloses_mpmath_on_adversarial_inputs",)),
    Mutant("charpoly: no d^k scaling",
           "src/shintani/exactlinalg.py",
           "coeffs.append(Fraction(c, (d * den) ** k))",
           "coeffs.append(Fraction(c))",
           ("tests/test_exactlinalg.py::test_charpoly_matches_the_fraction_reference",
            "tests/test_field.py::test_arithmetic_matches_the_fraction_reference")),
    Mutant("character: a near-zero value read as modulus 0",
           "src/shintani/zeta.py",
           "if v != 0 and not abs(abs(complex(v)) - 1) <= 1e-12:",
           "if abs(complex(v)) > 1e-12 and not abs(abs(complex(v)) - 1) <= 1e-12:",
           ("tests/test_zeta.py::test_character_values_are_zero_or_of_modulus_one",
            "tests/test_cli.py::test_rule_violations_exit_2_with_their_class")),
    Mutant("order membership: the denominator ignored",
           "src/shintani/ideals.py",
           "return self.to_order_coords(elem)[1] == 1",
           "return self.to_order_coords(elem)[1] >= 1",
           ("tests/test_cli.py::test_unit_outside_the_order_exit_2",
            "tests/test_golden_cli.py::test_cli_output_matches_its_golden_digest")),
    Mutant("error budget: reserve dropped, the tails get the whole target",
           "src/shintani/zeta.py",
           "budget = (target - min(reserve, target / 2)) / max(1, len(live))",
           "budget = target / max(1, len(live))",
           ("tests/test_zeta.py::test_budgets_sum_to_target_less_reserve",)),
    Mutant("error budget: the target/2 cap on the reserve removed",
           "src/shintani/zeta.py",
           "budget = (target - min(reserve, target / 2)) / max(1, len(live))",
           "budget = (target - reserve) / max(1, len(live))",
           ("tests/test_zeta.py::test_budgets_sum_to_target_less_reserve",)),
)


def run_mutant(m: Mutant) -> tuple[str, float]:
    """("killed by <test>" | "survived" | "error: ...", seconds) for one
    mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp) / "repo"
        # the tests read more than src/ and tests/ (the dead-code lint
        # parses perfbench/), so the copy is the whole working tree
        shutil.copytree(ROOT, tmp, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work"))
        path = tmp / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return f"error: old text occurs {text.count(m.old)} times in {m.file}", 0.0
        path.write_text(text.replace(m.old, m.new))
        # the table's own check fails on any mutated copy, so it never counts
        tests = (["tests", "--ignore=tests/test_mutants.py"] if m.kill == SURVIVES
                 else list(m.kill))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=tmp, env=env, capture_output=True, text=True)
        seconds = time.monotonic() - t0
    # pytest exits 0 when every test passed and 1 when some test failed;
    # anything else (collection error, no tests, interrupted) is no verdict
    if proc.returncode == 0:
        return "survived", seconds
    if proc.returncode == 1:
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return f"killed by {failed[0] if failed else '?'}", seconds
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {proc.returncode} {' '.join(tail)}", seconds


def main(names) -> int:
    rows = [m for m in MUTANTS if not names or any(m.name.startswith(n) for n in names)]
    status = 0
    for m in rows:
        outcome, seconds = run_mutant(m)
        ok = outcome.startswith("survived" if m.kill == SURVIVES else "killed")
        status |= not ok
        print(f"{'ok ' if ok else 'BAD'} {seconds:6.1f} s  {m.name}: {outcome}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
