"""Command-line front end: read a job JSON, run the requested computation,
emit one deterministic JSON object on stdout.

Exit codes: 0 ok, 1 verification failed (a net count != 1: treated as a bug
trap, not an input problem), 2 input error, 3 precision/truncation cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .domain import build_signed_domain, is_true_domain, verify_net_counts
from .errors import (
    InputError,
    PrecisionError,
    SchemaError,
)
from .field import NumberField, _json_int, field_from_json

# Each command imports what it computes with: `cones`, `regcheck` and
# `verify` load neither NumPy nor the zeta stack, and `oracle` loads NumPy
# and the kernels but not the zeta stack.  The zeta commands import the
# zeta stack before their clock starts, so runtime_ms leaves it out; NumPy,
# which only jobs beyond the scalar simplex sum load, comes inside it.

SCHEMA = "v1"


def _load_job(path: str) -> dict:
    try:
        with open(path) as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read job file: {exc}")
    if not isinstance(job, dict):
        raise SchemaError("job must be a JSON object")
    if job.get("schema", SCHEMA) != SCHEMA:
        raise SchemaError(f"unsupported schema {job.get('schema')!r}")
    return job


def _field_and_units(job: dict, prec_cap: int | None):
    spec = job.get("field")
    if not isinstance(spec, dict) or "poly" not in spec:
        raise SchemaError('job needs "field": {"poly": [...], "units": [...]}')
    if prec_cap is None:
        return field_from_json(spec)
    return field_from_json(spec, prec_cap)


def _emit(obj: dict) -> None:
    obj = dict(obj)
    obj["schema"] = SCHEMA
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_cones(job, args):
    fld, units = _field_and_units(job, args.precision_cap)
    dom = build_signed_domain(units, fld)
    cones = sorted((c.to_json() for c in dom.cones), key=lambda c: c["sigma"])
    _emit({"cones": cones, "is_true_domain": is_true_domain(dom)})
    return 0


def _verify_chunk(payload):
    """Worker: rebuilds the domain and verifies one index range (results are
    deterministic per index, so assembly order does not matter)."""
    poly, unit_coords, cap, seed, start, stop = payload
    fld = NumberField(poly, prec_cap=cap)
    units = [fld.element(u) for u in unit_coords]
    dom = build_signed_domain(units, fld)
    rep = verify_net_counts(dom, stop - start, seed, start=start)
    return rep["failures"], rep["resamples"]


def cmd_verify(job, args):
    fld, units = _field_and_units(job, args.precision_cap)
    seed = job.get("seed", 0)
    if not _json_int(seed):
        raise SchemaError(f'"seed" must be an integer, got {seed!r}')
    if args.seed is not None:
        seed = args.seed
    samples = job.get("samples", 1000)
    if not _json_int(samples) or samples < 1:
        raise SchemaError(f'"samples" must be an integer >= 1, got {samples!r}')
    threads = args.threads
    if threads == 1:
        dom = build_signed_domain(units, fld)
        rep = verify_net_counts(dom, samples, seed)
        failures, resamples = rep["failures"], rep["resamples"]
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk = (samples + threads - 1) // threads
        payloads = []
        for t in range(threads):
            start, stop = t * chunk, min((t + 1) * chunk, samples)
            if start < stop:
                payloads.append((list(fld.poly),
                                 [[str(c) for c in u.coeffs] for u in units],
                                 fld.prec_cap, seed, start, stop))
        failures, resamples = [], 0
        with ProcessPoolExecutor(max_workers=len(payloads)) as ex:
            for fl, rs in ex.map(_verify_chunk, payloads):
                failures.extend(fl)
                resamples += rs
        failures.sort(key=lambda f: f["index"])
    ok = not failures
    _emit({"net_count_ok": ok, "samples": samples, "seed": seed,
           "resamples": resamples, "failures": failures})
    return 0 if ok else 1


def _ideal_list(job, order):
    """The job's "ideals": a list of ideal objects (see FractionalIdeal.from_json)."""
    from .ideals import FractionalIdeal

    ideals = job.get("ideals", [])
    if not isinstance(ideals, list):
        raise SchemaError(f'"ideals" must be a list, got {ideals!r}')
    return [FractionalIdeal.from_json(order, obj) for obj in ideals]


def _is_pair(v) -> bool:
    """[re, im], two JSON numbers in [-1, 1] (a value has modulus 1 or 0)."""
    return (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and -1 <= x <= 1 for x in v))


def _json_number(job, key, default, low) -> float:
    """job[key], or the default: a finite JSON number > low."""
    x = job.get(key, default)
    ok = isinstance(x, (int, float)) and not isinstance(x, bool)
    try:
        ok = ok and math.isfinite(x) and x > low
    except OverflowError:           # an integer beyond the float range
        ok = False
    if not ok:
        raise SchemaError(f'"{key}" must be a finite number > {low}, got {x!r}')
    return float(x)


def _zeta_params(job, args):
    from .zeta import ZetaParams

    return ZetaParams(target_error=_json_number(job, "target_error", 1e-6, 0),
                      threads=args.threads)


def cmd_zeta(job, args):
    from .ideals import FractionalIdeal, integral_basis
    from .zeta import partial_zeta

    fld, units = _field_and_units(job, args.precision_cap)
    order = integral_basis(fld)
    s = _json_number(job, "s", 2.0, 1)
    ideals = _ideal_list(job, order)
    if len(ideals) > 2:
        raise SchemaError('zeta takes "ideals": [a, conductor]')
    whole = FractionalIdeal.whole_ring(order)
    a_ideal, conductor = ideals + [whole] * (2 - len(ideals))
    t0 = time.monotonic()
    out = partial_zeta(s, (a_ideal, conductor, units), fld,
                       _zeta_params(job, args), order=order)
    ms = int((time.monotonic() - t0) * 1000)
    _emit({"value": out.value, "error_bound": out.error_bound,
           "terms": out.terms, "M": out.radius, "runtime_ms": ms})
    return 0


def cmd_lfun(job, args):
    from .ideals import FractionalIdeal, integral_basis
    from .zeta import CharacterTable, l_function

    fld, units = _field_and_units(job, args.precision_cap)
    order = integral_basis(fld)
    s = _json_number(job, "s", 2.0, 1)
    reps = _ideal_list(job, order) or [FractionalIdeal.whole_ring(order)]
    conductor = (FractionalIdeal.from_json(order, job["conductor"])
                 if "conductor" in job else FractionalIdeal.whole_ring(order))
    chspec = job.get("character")
    if chspec is None:
        chi = CharacterTable(reps, [1 + 0j] * len(reps), conductor)
    else:
        values = chspec.get("values") if isinstance(chspec, dict) else None
        if not isinstance(values, list) or not all(map(_is_pair, values)):
            raise SchemaError('"character" must be {"values": [[re, im], ...]} '
                              f'with numbers in [-1, 1], got {chspec!r}')
        coprime = chspec.get("zero_on_noncoprime", True)
        if not isinstance(coprime, bool):
            raise SchemaError(f'"zero_on_noncoprime" must be true or false, got {coprime!r}')
        chi = CharacterTable(reps, [complex(re, im) for re, im in values], conductor,
                             zero_on_noncoprime=coprime)
    t0 = time.monotonic()
    out = l_function(s, chi, units, fld, _zeta_params(job, args), order=order)
    ms = int((time.monotonic() - t0) * 1000)
    _emit({"value": [out.value.real, out.value.imag],
           "error_bound": out.error_bound,
           "terms": out.terms, "M": out.radius, "runtime_ms": ms})
    return 0


def cmd_regcheck(job, args):
    fld, units = _field_and_units(job, args.precision_cap)
    tol = _json_number(job, "tolerance", 1e-10, 0)
    ok = fld.check_regulator_identity(units, tol=tol)
    _emit({"regulator_identity_ok": ok, "tolerance": tol})
    return 0 if ok else 1


def cmd_oracle(job, args):
    from .oracle import euler_product_oracle

    fld, _units = _field_and_units(job, args.precision_cap)
    s = _json_number(job, "s", 2.0, 1)
    cap = job.get("prime_cap", 10 ** 6)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 2:
        raise SchemaError(f'"prime_cap" must be an integer >= 2, got {cap!r}')
    t0 = time.monotonic()
    out = euler_product_oracle(s, fld, cap)
    ms = int((time.monotonic() - t0) * 1000)
    _emit({"value": out.value, "error_bound": out.error_bound,
           "terms": out.terms, "prime_cap": cap, "runtime_ms": ms})
    return 0


COMMANDS = {
    "cones": cmd_cones,
    "verify": cmd_verify,
    "zeta": cmd_zeta,
    "lfun": cmd_lfun,
    "regcheck": cmd_regcheck,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shintani",
        description="Signed fundamental domains and Shintani zeta evaluation")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--job", required=True, help="job JSON file")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the job seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--precision-cap", type=int, default=None,
                        help="adaptive-precision bit cap")
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise InputError(f"--threads must be >= 1, got {args.threads}")
        job = _load_job(args.job)
        declared = job.get("command")
        if declared is not None and declared != args.command:
            raise SchemaError(
                f"job declares command {declared!r}, invoked as {args.command!r}")
        return COMMANDS[args.command](job, args)
    except InputError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2
    except PrecisionError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 3
    except ValueError as exc:
        _emit({"error": "ValueError", "detail": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
