"""Self-tests of the benchmark, in smoke mode (scaled-down jobs).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    # only the oracle on x^2 - 5 fails at present, one job in each round
    rounds = result["attempted"] // len(jobs.make_round(workload, 3, 0, smoke=True))
    assert result["failed"] == (rounds if workload == "oracle-scan" else 0)


def test_workloads_match_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_exact_counters_repeat_across_runs():
    a, b = smoke("lfun-conductor", 1), smoke("lfun-conductor", 1)
    counts = [k for k, u in run.PER_LAYER.items() if u in ("count", "bits", "B")]
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}
    assert a["metrics"]["ideals.rset_points"]["value"] > 0


def test_planted_wrong_reference_is_a_failure(monkeypatch, tmp_path):
    true_zeta = refs.dedekind_zeta
    monkeypatch.setattr(refs, "dedekind_zeta",
                        lambda f, s: (true_zeta(f, s)[0] + 0.05, true_zeta(f, s)[1]))
    records = run.run_round("lfun-conductor", 3, 0, True, tmp_path, traced=False)
    assert records and all(rec["reason"] and not rec["known"] for rec in records)


def test_known_defect_is_recognised(tmp_path):
    records = run.run_round("oracle-scan", 3, 0, True, tmp_path, traced=False)
    failed = [rec for rec in records if rec["reason"]]
    assert [rec["check"]["field"] for rec in failed] == ["q_sqrt5"]
    assert failed[0]["known"]


@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_same_seed_same_files_other_seed_other_files(workload, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        for r in range(3):
            for job in jobs.make_round(workload, seed, r):
                jobs.write_job(job, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_closed_forms():
    pi4 = math.pi ** 4
    assert refs.dedekind_zeta("q_sqrt2", 2.0)[0] == pytest.approx(pi4 / (48 * math.sqrt(2)), abs=1e-15)
    assert refs.dedekind_zeta("q_sqrt3", 2.0)[0] == pytest.approx(pi4 / (36 * math.sqrt(3)), abs=1e-15)
    assert refs.dedekind_zeta("q_sqrt5", 2.0)[0] == pytest.approx(2 * pi4 / (75 * math.sqrt(5)), abs=1e-15)


@pytest.mark.parametrize("field", ["cubic_81", "quartic_725"])
@pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
def test_references_agree_with_a_short_euler_product(field, s):
    from shintani.field import NumberField
    from shintani.zeta import euler_product_oracle

    ev = euler_product_oracle(s, NumberField(jobs.FIELDS[field]["poly"]), 20_000)
    ref, bound = refs.dedekind_zeta(field, s)
    assert abs(ev.value - ref) <= ev.error_bound + bound


@pytest.mark.parametrize("key,p", [(("q_sqrt2", "2"), 2), (("q_sqrt2", "3"), 3),
                                   (("q_sqrt2", "7"), 7), (("cubic_81", "2"), 2),
                                   (("cubic_81", "p3"), 3)])
def test_conductor_prime_norms(key, p):
    """Norms of the primes above p, read off the defining polynomial mod p
    (both fields are monogenic, and (t + 2) is the only prime above 3 in
    cubic_81)."""
    from shintani.kernels import splitting_counts

    counts = splitting_counts(jobs.FIELDS[key[0]]["poly"], [p])[0]
    norms = [p ** d for d, a in enumerate(counts, start=1) for _ in range(a)]
    assert sorted(norms) == sorted(jobs.CONDUCTORS[key][1])


def test_refuses_another_backend():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--backend", "fast", "--workload",
         "oracle-scan", "--seed", "1", "--seconds", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "refusing" in proc.stderr


def test_fails_without_the_package(tmp_path):
    """A checkout holding only BENCHMARK.json and perfbench/ cannot run."""
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "jobs.py", "refs.py", "tracer.py"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
