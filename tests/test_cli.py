import json
import os
import subprocess
import sys
import time

import pytest

import shintani
from shintani import zeta
from shintani.cli import main

from fixtures import REDUCIBLE


def write_job(tmp_path, obj, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


Q2 = {"poly": [-2, 0, 1], "units": [["3", "2"]]}


def test_cones_q2(tmp_path, capsys):
    job = write_job(tmp_path, {"schema": "v1", "field": Q2})
    code, out = run(capsys, ["cones", "--job", job])
    assert code == 0
    assert out["is_true_domain"] is True
    assert out["cones"] == [{
        "sigma": [1], "w": 1,
        "generators": [["1", "0"], ["3", "2"]],
        "flags": ["open", "closed"],
    }]
    assert out["schema"] == "v1"


def test_verify_ok_and_deterministic(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "samples": 30, "seed": 42})
    code1, out1 = run(capsys, ["verify", "--job", job])
    raw1 = json.dumps(out1, sort_keys=True)
    code2, out2 = run(capsys, ["verify", "--job", job])
    raw2 = json.dumps(out2, sort_keys=True)
    assert code1 == code2 == 0
    assert out1["net_count_ok"] is True
    assert out1["samples"] == 30
    assert raw1 == raw2          # byte-identical for a fixed seed


def test_verify_seed_flag_overrides(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "samples": 5, "seed": 1})
    code, out = run(capsys, ["verify", "--job", job, "--seed", "9"])
    assert code == 0 and out["seed"] == 9


def test_verify_threads_match_serial(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "samples": 12, "seed": 3})
    _, serial = run(capsys, ["verify", "--job", job])
    _, par = run(capsys, ["verify", "--job", job, "--threads", "2"])
    assert serial == par


def test_malformed_poly_exit_2(tmp_path, capsys):
    job = write_job(tmp_path, {"field": {"poly": [1, 0, 1], "units": []}})
    code, out = run(capsys, ["cones", "--job", job])
    assert code == 2
    assert out["error"] == "NotTotallyReal"


def test_schema_violations_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, ["cones", "--job", str(bad)])
    assert code == 2 and out["error"] == "SchemaError"

    job = write_job(tmp_path, {"field": Q2, "command": "verify"})
    code, out = run(capsys, ["cones", "--job", job])
    assert code == 2 and out["error"] == "SchemaError"

    job = write_job(tmp_path, {"schema": "v999", "field": Q2})
    code, out = run(capsys, ["cones", "--job", job])
    assert code == 2 and out["error"] == "SchemaError"


def test_not_a_unit_exit_2(tmp_path, capsys):
    job = write_job(tmp_path, {"field": {"poly": [-2, 0, 1], "units": [["2", "0"]]}})
    code, out = run(capsys, ["verify", "--job", job])
    assert code == 2 and out["error"] == "NotAUnit"


@pytest.mark.parametrize("cmd, extra, error", [
    ("cones", {"field": {"poly": [-2, 0, 2], "units": [["3", "2"]]}}, "NotMonic"),
    ("cones", {"field": {"poly": [-2, 0, 1], "units": [["3", "2", "1"]]}}, "SchemaError"),
    ("lfun", {"character": {"values": [[1, 0], [1, 0]]}}, "InvalidCharacter"),
    ("lfun", {"character": {"values": [[0.5, 0.5]]}}, "InvalidCharacter"),
], ids=["not-monic", "unit-length", "two-values-one-representative", "modulus"])
def test_rule_violations_exit_2_with_their_class(tmp_path, capsys, cmd, extra, error):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-3, **extra})
    code, out = run(capsys, [cmd, "--job", job])
    assert code == 2 and out["error"] == error


def test_zeta_command(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-5})
    code, out = run(capsys, ["zeta", "--job", job])
    assert code == 0
    assert abs(out["value"] - 1.4349714) < 2e-5
    assert out["error_bound"] <= 1e-5
    assert out["M"] > 0 and out["terms"] > 0 and "runtime_ms" in out


def test_zeta_deterministic_modulo_runtime(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-4})
    _, o1 = run(capsys, ["zeta", "--job", job])
    _, o2 = run(capsys, ["zeta", "--job", job])
    o1.pop("runtime_ms"), o2.pop("runtime_ms")
    assert o1 == o2


def test_zeta_tail_cap_exit_3(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "s": 1.01, "target_error": 1e-12})
    code, out = run(capsys, ["zeta", "--job", job])
    assert code == 3
    assert out["error"] == "TailBoundUnachievable"


@pytest.mark.parametrize("s", [1e15, 1e20])
@pytest.mark.parametrize("cmd", ["zeta", "lfun"])
def test_huge_s_exit_2(tmp_path, capsys, cmd, s):
    # s = 1e20 overflowed a face integral's power (exit 1), and at s = 1e15
    # a rounding count k had k u > 1 (exit 2, an untyped math domain error)
    job = write_job(tmp_path, {"field": Q2, "s": s})
    code, out = run(capsys, [cmd, "--job", job])
    assert code == 2 and out["error"] == "ExponentTooLarge"
    assert out["detail"].startswith(f"s = {s!r} is too large")


@pytest.mark.parametrize("cmd", ["zeta", "lfun"])
def test_largest_s_runs(tmp_path, capsys, cmd):
    # at degree 2 the check admits ceil(s) <= 2^51 // (2 * 67), and no more
    s = 2 ** 51 // 134
    code, out = run(capsys, [cmd, "--job", write_job(tmp_path, {"field": Q2, "s": s})])
    assert code == 0 and 0 < out["error_bound"] < 0.1
    code, out = run(capsys, [cmd, "--job", write_job(tmp_path, {"field": Q2, "s": s + 0.5})])
    assert code == 2 and out["error"] == "ExponentTooLarge"


def test_lfun_trivial_matches_zeta(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-5})
    code, out = run(capsys, ["lfun", "--job", job])
    assert code == 0
    assert abs(out["value"][0] - 1.4349714) < 2e-5
    assert out["value"][1] == 0.0


def test_lfun_zero_character(tmp_path, capsys):
    job = write_job(tmp_path, {
        "field": Q2, "s": 2.0, "target_error": 1e-4,
        "character": {"values": [[0.0, 0.0]]},
    })
    code, out = run(capsys, ["lfun", "--job", job])
    assert code == 0 and out["value"] == [0.0, 0.0]


@pytest.mark.parametrize("poly", REDUCIBLE)
@pytest.mark.parametrize("cmd", ["cones", "oracle"])
def test_reducible_polynomial_exit_2(tmp_path, capsys, cmd, poly):
    # x^2 - 1 used to give the oracle value zeta(2)^2 (1 - 2^-2) with exit 0
    job = write_job(tmp_path, {"field": {"poly": poly, "units": []}, "prime_cap": 10 ** 4})
    code, out = run(capsys, [cmd, "--job", job])
    assert code == 2 and out["error"] == "NotIrreducible"


def test_large_constant_term_builds_quickly(tmp_path):
    # x^2 - (10^18 + 1) with eps^2, eps = 10^9 + sqrt(D) of norm -1: the old
    # integer-root search trial-divided up to 10^9 and was still running
    # after 30 s
    field = {"poly": [-(10 ** 18 + 1), 0, 1],
             "units": [["2000000000000000001", "2000000000"]]}
    job = write_job(tmp_path, {"field": field})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shintani.__file__)))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "shintani.cli", "cones", "--job", job],
                          capture_output=True, text=True, timeout=5, env=env)
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["cones"][0]["generators"][1] == field["units"][0]


def test_regcheck(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2})
    code, out = run(capsys, ["regcheck", "--job", job])
    assert code == 0 and out["regulator_identity_ok"] is True


def test_oracle_command(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "prime_cap": 100000})
    code, out = run(capsys, ["oracle", "--job", job])
    assert code == 0
    assert abs(out["value"] - 1.4349714) < 1e-4


@pytest.mark.parametrize("cap", [1, 0, -5, 2.7, 2.0, True, "1000", None])
def test_oracle_prime_cap_rejected_exit_2(tmp_path, capsys, cap):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "prime_cap": cap})
    code, out = run(capsys, ["oracle", "--job", job])
    assert code == 2 and out["error"] == "SchemaError"
    assert "prime_cap" in out["detail"]


def test_oracle_smallest_prime_cap(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "prime_cap": 2})
    code, out = run(capsys, ["oracle", "--job", job])
    assert code == 0 and out["prime_cap"] == 2 and out["terms"] == 1


def test_verify_quartic_via_cli(tmp_path, capsys):
    job = write_job(tmp_path, {
        "field": {"poly": [1, 1, -3, -1, 1],
                  "units": [["1", "2", "1", "-1"],
                            ["3", "3", "0", "-1"],
                            ["2", "-3", "1", "0"]]},
        "samples": 8, "seed": 5,
    })
    code, out = run(capsys, ["verify", "--job", job])
    assert code == 0 and out["net_count_ok"] is True


def test_lfun_missing_resolution_exit_2(tmp_path, capsys):
    job = write_job(tmp_path, {
        "field": Q2, "s": 2.0, "target_error": 1e-4,
        "ideals": [{"hnf": [[1, 0], [0, 1]], "den": 1},
                   {"hnf": [[1, 5], [0, 7]], "den": 1}],
    })
    code, out = run(capsys, ["lfun", "--job", job])
    assert code == 2 and out["error"] == "ClassResolutionMissing"


def test_precision_cap_flag(tmp_path, capsys):
    job = write_job(tmp_path, {"field": Q2, "samples": 3, "seed": 2})
    code, out = run(capsys, ["verify", "--job", job, "--precision-cap", "512"])
    assert code == 0 and out["net_count_ok"] is True


@pytest.mark.parametrize("cap", ["0", "8", "-5"])
def test_precision_cap_below_start_exit_2(tmp_path, capsys, cap):
    job = write_job(tmp_path, {"field": Q2, "samples": 3, "seed": 2})
    code, out = run(capsys, ["verify", "--job", job, "--precision-cap", cap])
    assert code == 2 and out["error"] == "InputError"


def test_regcheck_at_cap_exit_3(tmp_path, capsys):
    # the identity is true; at 256 bits it cannot be shown to 1e-300, which
    # is a precision failure, not a falsification
    job = write_job(tmp_path, {"field": Q2, "tolerance": 1e-300})
    code, out = run(capsys, ["regcheck", "--job", job, "--precision-cap", "256"])
    assert code == 3 and out["error"] == "PrecisionCapExceeded"
    code, out = run(capsys, ["regcheck", "--job", job])
    assert code == 0 and out["regulator_identity_ok"] is True


HALF = {"hnf": [[1.5, 0], [0, 1]]}


@pytest.mark.parametrize("cmd, extra", [
    ("zeta", {"ideals": [HALF]}),
    ("lfun", {"conductor": HALF}),
    ("zeta", {"ideals": [{"hnf": [[True, 0], [0, 1]]}]}),
    ("lfun", {"conductor": {"hnf": [[1, 0], [0, True]]}}),
    ("zeta", {"ideals": [{"hnf": [[1, 0], [0, 1]], "den": 0}]}),
    ("zeta", {"ideals": [{"hnf": [[1, 0], [0, 1]], "den": 2.5}]}),
    ("zeta", {"ideals": [{"hnf": [[1, 0], [0, 1]], "den": True}]}),
    ("zeta", {"ideals": [{"hnf": [[1, 0]]}]}),
    ("zeta", {"ideals": [[[1, 0], [0, 1]]]}),
    ("lfun", {"ideals": [7]}),
    ("zeta", {"ideals": {"hnf": [[1, 0], [0, 1]]}}),
    ("lfun", {"ideals": {"hnf": [[1, 0], [0, 1]]}}),
    ("zeta", {"ideals": [{"hnf": [[1, 0], [0, 1]]}] * 3}),
    ("lfun", {"character": {"values": [[1.0]]}}),
    ("lfun", {"character": {"values": [[1.0, False]]}}),
    ("lfun", {"character": {"values": [[1.0, "0"]]}}),
    ("lfun", {"character": [[1.0, 0.0]]}),
    ("lfun", {"character": {"values": [[1.0, 0.0]], "zero_on_noncoprime": 1}}),
], ids=["float-entry", "float-conductor", "bool-entry", "bool-conductor",
        "den-0", "den-float", "den-bool", "short-hnf", "non-object", "int-entry",
        "zeta-ideals-object", "lfun-ideals-object", "three-ideals",
        "short-value", "bool-value", "string-value", "character-list",
        "coprime-flag-int"])
def test_malformed_ideal_or_character_exit_2(tmp_path, capsys, cmd, extra):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-3, **extra})
    code, out = run(capsys, [cmd, "--job", job])
    assert code == 2 and out["error"] == "SchemaError"


def test_well_formed_ideal_without_den(tmp_path, capsys):
    # "den" defaults to 1; (sqrt2)^2 = (2) as a conductor
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-3,
                               "conductor": {"hnf": [[2, 0], [0, 2]]},
                               "character": {"values": [[1, 0]]}})
    code, out = run(capsys, ["lfun", "--job", job])
    assert code == 0 and out["value"][1] == 0.0


@pytest.mark.parametrize("cmd, extra", [
    ("verify", {"samples": -4}),
    ("verify", {"samples": 0}),
    ("verify", {"samples": 2.5}),
    ("verify", {"samples": "3"}),
    ("verify", {"samples": True}),
    ("verify", {"seed": 1.5}),
    ("verify", {"seed": "1"}),
    ("verify", {"seed": False}),
    ("zeta", {"target_error": 0}),
    ("zeta", {"target_error": -1}),
    ("zeta", {"target_error": "1e-3"}),
    ("lfun", {"target_error": float("inf")}),
    ("lfun", {"target_error": float("nan")}),
    ("zeta", {"s": "2.5"}),
    ("zeta", {"s": 1}),
    ("lfun", {"s": 0.5}),
    ("lfun", {"s": True}),
    ("lfun", {"s": None}),
    ("oracle", {"s": 0.5}),
    ("oracle", {"s": "2"}),
    ("oracle", {"s": float("inf")}),
], ids=["samples-negative", "samples-0", "samples-float", "samples-string",
        "samples-bool", "seed-float", "seed-string", "seed-bool",
        "target-0", "target-negative", "target-string", "target-inf", "target-nan",
        "s-string", "s-1", "s-half", "s-bool", "s-null",
        "oracle-s-half", "oracle-s-string", "oracle-s-inf"])
def test_malformed_numbers_exit_2(tmp_path, capsys, cmd, extra):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-3,
                               "samples": 3, "seed": 1, "prime_cap": 1000, **extra})
    code, out = run(capsys, [cmd, "--job", job])
    assert code == 2 and out["error"] == "SchemaError"
    assert next(iter(extra)) in out["detail"]


@pytest.mark.parametrize("cmd", ["zeta", "lfun"])
def test_unit_outside_the_order_exit_2(tmp_path, capsys, cmd):
    # (3 + sqrt5)/2 is not in Z[sqrt5], the order a job's ideals live in
    job = write_job(tmp_path, {"field": {"poly": [-5, 0, 1], "units": [["3/2", "1/2"]]},
                               "s": 2.0, "target_error": 1e-3})
    code, out = run(capsys, [cmd, "--job", job])
    assert code == 2 and out["error"] == "UnitOutsideOrder"
    assert "order with basis (1, 0), (0, 1)" in out["detail"]


@pytest.mark.parametrize("cmd, extra, what", [
    ("zeta", {"ideals": [{"hnf": [[1, 0], [0, 1]], "den": 2}]}, "representative"),
    ("lfun", {"ideals": [{"hnf": [[1, 0], [0, 1]], "den": 2}]}, "representative"),
    ("zeta", {"ideals": [{"hnf": [[1, 0], [0, 1]]}, {"hnf": [[1, 0], [0, 1]], "den": 3}]},
     "conductor"),
    ("lfun", {"conductor": {"hnf": [[1, 0], [0, 1]], "den": 3}}, "conductor"),
])
def test_non_integral_ideal_exit_2(tmp_path, capsys, cmd, extra, what):
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 1e-3, **extra})
    code, out = run(capsys, [cmd, "--job", job])
    assert code == 2 and out["error"] == "NonIntegralIdeal"
    assert out["detail"].startswith(f"the {what} with hnf [[1, 0], [0, 1]] and den ")


@pytest.mark.parametrize("tol", ['"1e-3"', "true", "0", "-1", "null", "1e400", "NaN"])
def test_regcheck_tolerance_rejected_exit_2(tmp_path, capsys, tol):
    job = tmp_path / "job.json"       # tol is JSON text: 1e400 parses as inf
    job.write_text(f'{{"field": {json.dumps(Q2)}, "tolerance": {tol}}}')
    code, out = run(capsys, ["regcheck", "--job", str(job)])
    assert code == 2 and out["error"] == "SchemaError"
    assert "tolerance" in out["detail"]


@pytest.mark.parametrize("threads", ["0", "-5"])
@pytest.mark.parametrize("cmd", ["verify", "zeta"])
def test_threads_below_one_exit_2(tmp_path, capsys, cmd, threads):
    job = write_job(tmp_path, {"field": Q2, "samples": 3, "target_error": 1e-3})
    code, out = run(capsys, [cmd, "--job", job, "--threads", threads])
    assert code == 2 and out["error"] == "InputError"
    assert "--threads" in out["detail"]


@pytest.mark.parametrize("block", [100, zeta._BLOCK])
def test_lfun_threads_match_serial(tmp_path, capsys, monkeypatch, block):
    # conductor (7), split: 98 points, in blocks of 100 // N or one block
    monkeypatch.setattr(zeta, "_BLOCK", block)
    job = write_job(tmp_path, {"field": Q2, "s": 2.0, "target_error": 3e-2,
                               "conductor": {"hnf": [[7, 0], [0, 7]]},
                               "character": {"values": [[1, 0]]}})
    _, serial = run(capsys, ["lfun", "--job", job])
    _, par = run(capsys, ["lfun", "--job", job, "--threads", "2"])
    serial.pop("runtime_ms"), par.pop("runtime_ms")
    assert json.dumps(serial) == json.dumps(par) and "error" not in serial


@pytest.mark.parametrize("spec", [
    '{"poly": [-2.7, 0, 1], "units": [["3", "2"]]}',
    '{"poly": [-2, 0, true], "units": [["3", "2"]]}',
    '{"poly": 5, "units": [["3", "2"]]}',
    '{"poly": [1e400, 0, 1], "units": [["3", "2"]]}',
    '{"poly": "x^2 - 2", "units": [["3", "2"]]}',
    '{"poly": [-2, 0, 1], "units": [[true, "2"]]}',
    '{"poly": [-2, 0, 1], "units": [[3.0, 2]]}',
    '{"poly": [-2, 0, 1], "units": [["3", null]]}',
    '{"poly": [-2, 0, 1], "units": ["3", "2"]}',
    '{"poly": [-2, 0, 1], "units": {"eps": ["3", "2"]}}',
    '{"poly": [-2, 0, 1], "units": [["3", "2/0"]]}',
    '{"poly": [-2, 0, 1], "units": [["3", "two"]]}',
], ids=["poly-float", "poly-bool", "poly-int", "poly-inf", "poly-string",
        "unit-bool", "unit-float", "unit-null", "unit-not-list", "units-object",
        "unit-zero-denominator", "unit-not-rational"])
@pytest.mark.parametrize("cmd", ["cones", "regcheck"])
def test_malformed_field_spec_exit_2(tmp_path, capsys, request, cmd, spec):
    job = tmp_path / "job.json"       # spec is JSON text: 1e400 parses as inf
    job.write_text(f'{{"field": {spec}}}')
    code, out = run(capsys, [cmd, "--job", str(job)])
    assert code == 2 and out["error"] == "SchemaError"
    # the detail names the offending key: "poly" or a unit
    key = "poly" if "poly-" in request.node.callspec.id else "unit"
    assert key in out["detail"]


@pytest.mark.parametrize("cmd", ["cones", "regcheck"])
def test_integer_unit_coordinates_match_strings(tmp_path, capsys, cmd):
    ints = write_job(tmp_path, {"field": {"poly": [-2, 0, 1], "units": [[3, 2]]}}, "ints.json")
    strs = write_job(tmp_path, {"field": Q2}, "strs.json")
    assert run(capsys, [cmd, "--job", ints]) == run(capsys, [cmd, "--job", strs])


def test_precision_cap_isolates_roots_once(tmp_path, capsys, monkeypatch):
    from shintani import field

    calls = []
    isolate = field.isolate_real_roots
    monkeypatch.setattr(field, "isolate_real_roots",
                        lambda coeffs: calls.append(coeffs) or isolate(coeffs))
    job = write_job(tmp_path, {"field": Q2})
    code, out = run(capsys, ["cones", "--job", job, "--precision-cap", "512"])
    assert code == 0 and len(calls) == 1
