"""The import surface: a command loads only the modules it computes with.

Every check runs in a fresh interpreter, because this process has long
since imported everything."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fixtures
import shintani
from shintani import zeta

SRC = Path(shintani.__file__).parents[1]
README = SRC.parent / "README.md"
HEAVY = ("numpy", "shintani.zeta", "shintani.ideals", "shintani.kernels")
FIELDS = {**fixtures.ALL_NET_COUNT,
          "cubic_signed_witness": fixtures.cubic_signed_witness}


def fresh(code: str) -> str:
    """stdout of code run by a new interpreter that imports from SRC."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> list:
    """Which of HEAVY the interpreter holds once code has run."""
    out = fresh(f"{code}\nimport json, sys\n"
                f"print(json.dumps(sorted(set({HEAVY!r}) & set(sys.modules))))")
    return json.loads(out.splitlines()[-1])


def cli(command, job, *args) -> str:
    argv = [command, "--job", str(job), *args]
    return f"from shintani.cli import main\nassert main({argv!r}) == 0"


def test_import_shintani_loads_nothing_heavy():
    assert loaded_after("import shintani") == []


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("command", ["cones", "regcheck"])
def test_cones_and_regcheck_load_neither_numpy_nor_zeta(tmp_path, command, name):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": fixtures.field_to_json(*FIELDS[name]())}))
    assert loaded_after(cli(command, job)) == []


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_loads_nothing_heavy(tmp_path, threads, name):
    # the float stage is scalar Python: verify loads no NumPy either
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": fixtures.field_to_json(*FIELDS[name]()),
                               "samples": 4}))
    assert loaded_after(cli("verify", job, "--threads", threads)) == []


@pytest.mark.parametrize("name", sorted(fixtures.DEPENDENT_UNITS))
@pytest.mark.parametrize("command, code", [("cones", 2), ("regcheck", 2)])
def test_dependent_units_load_no_mpmath(tmp_path, command, code, name):
    # the regulator's lower bound decides dependence, with no search
    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"field": fixtures.field_to_json(*fixtures.DEPENDENT_UNITS[name]())}))
    argv = [command, "--job", str(job)]
    out = fresh("import contextlib, io, sys\n"
                "from shintani.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = main({argv!r})\n"
                "print(code, 'mpmath' in sys.modules)")
    assert out.split() == [str(code), "False"]


def _imported_packages(tree):
    """The top-level package of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_mpmath():
    # mpmath is a test dependency: the package needs NumPy alone
    assert "mpmath" in _imported_packages(ast.parse("def f():\n    from mpmath import pslq\n"))
    found = [str(path.relative_to(SRC)) for path in sorted((SRC / "shintani").rglob("*.py"))
             if "mpmath" in _imported_packages(ast.parse(path.read_text()))]
    assert found == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


def test_import_kernels_loads_no_numpy():
    assert loaded_after("import shintani.kernels") == ["shintani.kernels"]


NUMPY_KERNEL = ("numpy", "shintani.kernels.reference")


def numpy_kernel_after(command, job) -> tuple[dict, list]:
    """The output of a CLI job run in a fresh interpreter, and which of
    NUMPY_KERNEL it loaded."""
    out = fresh(f"{cli(command, job)}\nimport json, sys\n"
                f"print(json.dumps(sorted(set({NUMPY_KERNEL!r}) & set(sys.modules))))")
    return json.loads(out.splitlines()[0]), json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("s, target, few_terms", [(2.0, 1e-3, True), (2.5, 1e-3, True),
                                                  (2.25, 1e-3, True), (2.0, 1e-6, False)])
def test_lfun_loads_numpy_above_the_scalar_range(tmp_path, s, target, few_terms):
    # the scalar simplex sum takes s in 1/2 Z, 1 <= s <= 8, and at most
    # zeta._SCALAR_TERMS box terms; any other job loads NumPy's kernel.  The
    # job above the range is cubic: a quadratic one that deep goes to the
    # Euler-Maclaurin sum, which loads no NumPy (below)
    make, conductor = ((fixtures.q_sqrt2, [[3, 0], [0, 3]]) if few_terms else
                       (fixtures.cubic_81, [[3, 0, 0], [0, 3, 0], [0, 0, 3]]))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": fixtures.field_to_json(*make()),
                               "s": s, "target_error": target,
                               "conductor": {"hnf": conductor, "den": 1}}))
    out, loaded = numpy_kernel_after("lfun", job)
    assert (out["terms"] <= zeta._SCALAR_TERMS) == few_terms
    scalar = (2 * s).is_integer() and few_terms
    assert loaded == ([] if scalar else list(NUMPY_KERNEL))


@pytest.mark.parametrize("command", ["zeta", "lfun"])
def test_scalar_jobs_load_neither_numpy_nor_dataclasses(tmp_path, command):
    # the cubic s = 3 shape of the benchmark's deep jobs: over the cheapest
    # basis of its unit group it sums under zeta._SCALAR_TERMS terms (147 392
    # over the typed basis), so it runs on the scalar sum; and the zeta
    # stack's records are named tuples, which need neither `dataclasses`
    # nor the `inspect` it imports
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": fixtures.field_to_json(*fixtures.cubic_81()),
                               "s": 3.0, "target_error": 2e-11}))
    watched = ("numpy", "dataclasses", "inspect")
    out = fresh(f"{cli(command, job)}\nimport json, sys\n"
                f"print(json.dumps(sorted(set({watched!r}) & set(sys.modules))))")
    assert json.loads(out.splitlines()[0])["terms"] <= zeta._SCALAR_TERMS
    assert json.loads(out.splitlines()[-1]) == []


Q3_CLASSES = [{"hnf": [[1, 0], [0, 1]], "den": 1}, {"hnf": [[1, 1], [0, 2]], "den": 1}]


@pytest.mark.parametrize("command, make, s, target, ideals", [
    ("lfun", fixtures.q_sqrt2, 2.0, 3e-8, None),
    ("zeta", fixtures.q_sqrt3, 2.5, 2e-11, Q3_CLASSES[0]),
    ("zeta", fixtures.q_sqrt3, 2.5, 2e-11, Q3_CLASSES[1])],
    ids=["q_sqrt2", "q_sqrt3-class1", "q_sqrt3-class2"])
def test_deep_quadratic_jobs_load_no_numpy(tmp_path, command, make, s, target, ideals):
    # millions of simplex terms each, summed by Euler-Maclaurin in Python
    # floats: the deep quadratic shapes of the benchmark load no NumPy
    job = tmp_path / "job.json"
    extra = {} if ideals is None else {"ideals": [ideals, Q3_CLASSES[0]]}
    job.write_text(json.dumps({"field": fixtures.field_to_json(*make()), "s": s,
                               "target_error": target, **extra}))
    out, loaded = numpy_kernel_after(command, job)
    assert out["M"] > 1000 and 0 < out["error_bound"] <= target
    assert loaded == []


def test_oracle_loads_the_kernels_but_not_the_zeta_stack(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": fixtures.field_to_json(*fixtures.quartic_725()),
                               "prime_cap": 1000}))
    assert loaded_after(cli("oracle", job)) == ["numpy", "shintani.kernels"]


def test_oracle_name_loads_the_kernels_but_not_the_zeta_stack():
    assert loaded_after("from shintani import euler_product_oracle") == [
        "numpy", "shintani.kernels"]


def test_every_public_name_resolves():
    out = fresh("import shintani\n"
                "names = {}\n"
                "exec('from shintani import *', names)\n"
                "assert all(getattr(shintani, n) is names[n] for n in shintani.__all__)\n"
                "print(len(shintani.__all__))")
    assert int(out) == len(shintani.__all__) > 0


def test_readme_library_sketch_runs():
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", README.read_text(),
                       re.S)
    fresh(sketch.group(1))
