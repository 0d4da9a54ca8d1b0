"""The Euler-product oracle: its per-pattern product against the plain
per-prime loop, its tail bound near s = 1, the segmented sieve, its flat
peak memory and its output frozen before the sieve was segmented."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from shintani import oracle
from shintani.cli import main
from shintani.errors import TailBoundUnachievable
from shintani.field import NumberField
from shintani.kernels import reference

from fixtures import ALL_NET_COUNT, field_to_json


def streamed_primes(cap):
    return [p for seg in oracle._segments(cap) for p in seg.tolist()]


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
    primes = oracle._sieve(cap)
    counts = reference.splitting_counts(fld.poly, primes)
    assert streamed_primes(cap) == primes and all(type(p) is int for p in primes)
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


@pytest.mark.parametrize("cap", [2, 3, 63, 64, 65, 127, 128, 129, 1021, 4096, 4099])
def test_segments_stream_the_sieve(monkeypatch, cap):
    # 64-integer segments: caps at a segment edge, one off either side, and
    # prime caps (1021, 4099)
    monkeypatch.setattr(oracle, "_SEGMENT", 64)
    segs = list(oracle._segments(cap))
    assert len(segs) == cap // 64 + 1
    assert all(seg.dtype == np.int64 for seg in segs)
    assert streamed_primes(cap) == oracle._sieve(cap)


@pytest.mark.parametrize("segment", [64, 68])
def test_ramified_prime_at_a_batch_edge(monkeypatch, segment):
    # x^2 - 67 ramifies at 2 and 67; 67 opens the segment [64, 128) or
    # closes [0, 68), and batches of 4 primes cut each segment again
    fld = NumberField([-67, 0, 1])
    primes = oracle._sieve(1000)
    counts = reference.splitting_counts(fld.poly, primes)
    assert counts[primes.index(67)] == (1, 0)
    monkeypatch.setattr(oracle, "_SEGMENT", segment)
    monkeypatch.setattr(reference, "_CHUNK_ENTRIES", 16)
    ev = oracle.euler_product_oracle(2.0, fld, 1000)
    assert ev.value == math.exp(plain_log_value(primes, counts, 2.0))
    assert ev.terms == len(primes)


def test_peak_memory_does_not_grow_with_the_cap():
    # the sieve streams segments into bounded batches: ten times the cap
    # stays within 1 MB of the peak (whole-cap lists cost about 90 B a prime)
    fld = NumberField([-2, 0, 1])
    oracle.euler_product_oracle(2.0, fld, 1000)

    def peak(cap):
        tracemalloc.start()
        try:
            oracle.euler_product_oracle(2.0, fld, cap)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2 * 10 ** 6) <= peak(2 * 10 ** 5) + 2 ** 20


# `oracle` output frozen before the sieve was segmented: caps across several
# 2^16-integer segments, one at a segment edge (3 * 2^16) and one just below
# (4 * 2^16 - 1)
FROZEN_ORACLE = [
    ("quartic_725", 2.0, 150001, "0x1.097467b8bf388p+0", "0x1.24a7f18b5c25ap-18", 13849),
    ("q_sqrt2", 2.0, 300007, "0x1.6f5a43c75d6cbp+0", "0x1.80c3188c81a90p-20", 25998),
    ("cubic_81", 2.5, 196608, "0x1.14839e0010612p+0", "0x1.fa3b129d79ad1p-29", 17704),
    ("q_sqrt5", 2.0, 262143, "0x1.73bc13ca02072p+0", "0x1.c1d6ff1c79bfep-20", 23000),
]


@pytest.mark.parametrize("name, s, cap, value, bound, terms", FROZEN_ORACLE)
def test_oracle_command_output_is_frozen(tmp_path, capsys, name, s, cap, value, bound, terms):
    fld, units = ALL_NET_COUNT[name]()
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": field_to_json(fld, units), "s": s, "prime_cap": cap}))
    assert main(["oracle", "--job", str(job)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (float.hex(out["value"]), float.hex(out["error_bound"]), out["terms"]) == \
        (value, bound, terms)
