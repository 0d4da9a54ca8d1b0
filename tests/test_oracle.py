"""The Euler-product oracle: its per-pattern product against the plain
per-prime loop, and its tail bound near s = 1."""

import json
import math

import pytest

from shintani import oracle
from shintani.cli import main
from shintani.errors import TailBoundUnachievable
from shintani.field import NumberField, field_to_json

from fixtures import ALL_NET_COUNT


def plain_log_value(primes, counts, s):
    log_val = 0.0
    for p, cnt in zip(primes, counts):
        for d, a_d in enumerate(cnt, start=1):
            if a_d:
                log_val -= a_d * math.log1p(-float(p) ** (-d * s))
    return log_val


@pytest.mark.parametrize("s", [1.5, 2.0, 2.5])
@pytest.mark.parametrize("cap", [2, 3, 10 ** 4])
@pytest.mark.parametrize("name", sorted(ALL_NET_COUNT))
def test_product_matches_the_plain_loop_bit_for_bit(name, cap, s):
    fld, _ = ALL_NET_COUNT[name]()
    ev = oracle.euler_product_oracle(s, fld, cap)
    primes, counts = oracle._SPLIT_CACHE[(fld.poly, cap)]
    assert primes == oracle._sieve(cap) and all(type(p) is int for p in primes)
    log_val = plain_log_value(primes, counts, s)
    assert ev.value == math.exp(log_val)
    assert ev.error_bound >= oracle.euler_product_roundoff(log_val, fld.degree * len(primes),
                                                           fld.degree)
    assert (ev.terms, ev.radius) == (len(primes), cap)


@pytest.mark.parametrize("s", [1.0001, 1.001])
def test_tail_bound_beyond_the_float_range_is_a_cap_error(s):
    fld = NumberField([-2, 0, 1])
    with pytest.raises(TailBoundUnachievable, match=f"s = {s} with prime cap 1000"):
        oracle.euler_product_oracle(s, fld, 1000)


@pytest.mark.parametrize("s, code", [(1.0001, 3), (1.001, 3), (1.01, 0)])
def test_oracle_command_near_one(tmp_path, capsys, s, code):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": field_to_json(NumberField([-2, 0, 1]), []),
                               "s": s, "prime_cap": 1000}))
    assert main(["oracle", "--job", str(job)]) == code
    out = json.loads(capsys.readouterr().out)
    if code:
        assert out["error"] == "TailBoundUnachievable"
        assert str(s) in out["detail"] and "1000" in out["detail"]
    else:
        assert math.isfinite(out["error_bound"]) and out["error_bound"] > 0
