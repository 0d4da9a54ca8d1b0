"""The import surface: a command loads only the modules it computes with.

Every check runs in a fresh interpreter, because this process has long
since imported everything."""

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
from shintani.field import field_to_json

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
    job.write_text(json.dumps({"field": field_to_json(*FIELDS[name]())}))
    assert loaded_after(cli(command, job)) == []


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_loads_nothing_heavy(tmp_path, threads, name):
    # the float stage is scalar Python: verify loads no NumPy either
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": field_to_json(*FIELDS[name]()),
                               "samples": 4}))
    assert loaded_after(cli("verify", job, "--threads", threads)) == []


def test_import_kernels_loads_no_numpy():
    assert loaded_after("import shintani.kernels") == ["shintani.kernels"]


NUMPY_KERNEL = ("numpy", "shintani.kernels.reference")


@pytest.mark.parametrize("s, target, few_terms", [(2.0, 1e-3, True), (2.5, 1e-3, True),
                                                  (2.25, 1e-3, True), (2.0, 1e-6, False)])
def test_lfun_loads_numpy_above_the_scalar_range(tmp_path, s, target, few_terms):
    # the scalar simplex sum takes s in 1/2 Z, 1 <= s <= 8, and at most
    # zeta._SCALAR_TERMS box terms; any other job loads NumPy's kernel
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": field_to_json(*fixtures.q_sqrt2()),
                               "s": s, "target_error": target,
                               "conductor": {"hnf": [[3, 0], [0, 3]], "den": 1}}))
    out = fresh(f"{cli('lfun', job)}\nimport sys\n"
                f"print(sorted(set({NUMPY_KERNEL!r}) & set(sys.modules)))")
    terms = json.loads(out.splitlines()[0])["terms"]
    assert (terms <= zeta._SCALAR_TERMS) == few_terms
    scalar = (2 * s).is_integer() and few_terms
    assert out.splitlines()[-1] == str([] if scalar else list(NUMPY_KERNEL))


def test_oracle_loads_the_kernels_but_not_the_zeta_stack(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": field_to_json(*fixtures.quartic_725()),
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
