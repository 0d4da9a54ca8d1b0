#!/usr/bin/env python3
"""End-to-end benchmark of the shintani CLI, with a traced per-layer run.

    python3 perfbench/run.py --backend reference --workload verify-mix \\
        --seed 1 --seconds 20 --trace 0

Each job is its own ``python -m shintani.cli <cmd> --job F --threads 1``
process, because that is what a user pays and because per-process caches
must not carry over between jobs.  The load is a closed loop: one client,
one job at a time.  Jobs come in rounds (see jobs.py); a run starts rounds
until --seconds have passed and always finishes the round it started.
Untraced rounds begin with `cones` jobs on two of the workload's fields, in
turn; their median wall time is setup_s.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 every round runs twice, untraced and then under tracer.py, and
the last line holds the per-layer metrics; round 0 then runs traced once
more and the exact work counters of the two traced copies must agree, or
the run fails.  Every output is checked against refs.py.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import jobs
import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

LAYERS = ("field", "geometry", "domain", "ideals", "zeta", "kernels")

END_TO_END = {
    "setup_s": "s", "job_s.p50": "s", "job_s.p90": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.process_s": "s",
    "cli.main.self_s": "s",
    "field.self_s": "s",
    "field.NumberField.self_s": "s",
    "field.embed_iv.self_s": "s",
    "field.embed_iv.calls": "count",
    "geometry.self_s": "s",
    "geometry.cone_coordinates.self_s": "s",
    "domain.self_s": "s",
    "domain.build_signed_domain.self_s": "s",
    "domain.candidate_exponents.self_s": "s",
    "domain.contains_vector.self_s": "s",
    "domain.candidates_per_point": "count",
    "domain.hit_frac": "ratio",
    "domain.sign_bits.max": "bits",
    "domain.escalation_frac": "ratio",
    "domain.resamples": "count",
    "verify.points_per_s": "1/s",
    "ideals.self_s": "s",
    "ideals.integral_basis.self_s": "s",
    "ideals.coset_enumerate_R.self_s": "s",
    "ideals.rset_points": "count",
    "ideals.ideal_ops.calls": "count",
    "ideals.ideal_ops.self_s": "s",
    "zeta.self_s": "s",
    "zeta.shintani_zeta.calls": "count",
    "zeta.shintani_zeta.self_s": "s",
    "zeta.box_terms": "count",
    "zeta.radius.max": "count",
    "zeta.budget_ratio": "ratio",
    "zeta.roundoff_frac": "ratio",
    "zeta.euler_product_oracle.self_s": "s",
    "kernels.self_s": "s",
    "kernels.box_sum.self_s": "s",
    "kernels.box_sum.calls": "count",
    "kernels.box_terms_per_s": "1/s",
    "kernels.box_bytes_computed": "B",
    "kernels.splitting_counts.self_s": "s",
    "kernels.primes_scanned": "count",
    "kernels.primes_per_s": "1/s",
    "trace.job_s.mean": "s",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


def spawn(argv: list[str], stdout: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, max RSS KiB).
    Its stderr goes next to its stdout, with the suffix .err."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def run_job(job: dict, directory: Path, traced: bool) -> dict:
    path = jobs.write_job(job, directory)
    out_path = directory / f"{job['id']}.out"
    trace_path = directory / f"{job['id']}.trace.json"
    cli = [job["cmd"], "--job", str(path), "--threads", "1"]
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *cli]
    else:
        argv = [sys.executable, "-m", "shintani.cli", *cli]
    rc, wall, rss = spawn(argv, out_path)
    lines = out_path.read_text().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = None
    if rc != 0:
        reason = f"exit code {rc}"
    elif not isinstance(out, dict):
        reason = "no JSON output"
    else:
        reason = refs.check_output(job["check"], out)
    rec = {"id": job["id"], "cmd": job["cmd"], "check": job["check"],
           "wall": wall, "rss_kb": rss, "out": out, "reason": reason,
           "known": False}
    if reason and out and "value" in out and job["cmd"] == "oracle":
        wrong = refs.known_wrong_oracle(job["check"])
        rec["known"] = wrong is not None and refs.within(
            refs.output_value(out), out["error_bound"], wrong, 1e-12)
    if traced:
        if not trace_path.exists():
            raise BenchError(f"traced job {job['id']} wrote no trace; see its .err file")
        rec["trace"] = json.loads(trace_path.read_text())
    return rec


def check_class_sets(records: list[dict]) -> None:
    """A complete ray-class set must sum to the reference with the Euler
    factors at the conductor removed; otherwise each of its jobs fails."""
    groups: dict[str, list[dict]] = {}
    for rec in records:
        if rec["check"]["kind"] == "classes":
            groups.setdefault(rec["check"]["group"], []).append(rec)
    for members in groups.values():
        check = members[0]["check"]
        if len(members) != check["size"] or any(m["reason"] for m in members):
            reason = "class set incomplete or a member failed"
        else:
            total = sum(refs.output_value(m["out"]) for m in members)
            bound = sum(m["out"]["error_bound"] for m in members)
            ref, ref_bound = refs.reference(check)
            reason = (None if refs.within(total, bound, ref, ref_bound)
                      else f"class-set sum {total!r} outside reference {ref!r}")
        for m in members:
            m["reason"] = m["reason"] or reason


def run_round(workload, seed, r, smoke, directory, traced):
    records = [run_job(job, directory, traced)
               for job in jobs.make_round(workload, seed, r, smoke)]
    check_class_sets(records)
    return records


def exact_counters(records: list[dict]) -> dict:
    """Work counters that depend only on the jobs, never on timing."""
    total: dict = {}
    for rec in records:
        tr = rec["trace"]
        for name, (calls, _self) in tr["spans"].items():
            total[f"calls.{name}"] = total.get(f"calls.{name}", 0) + calls
        for key, v in tr["counts"].items():
            if isinstance(v, int):          # the float sums are not counters
                total[key] = total.get(key, 0) + v
        for key, v in tr["maxima"].items():
            total[f"max.{key}"] = max(total.get(f"max.{key}", 0), v)
        if rec["cmd"] == "verify" and rec["out"]:
            total["domain.resamples"] = (total.get("domain.resamples", 0)
                                         + rec["out"].get("resamples", 0))
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(setup_walls, records) -> dict:
    walls = [rec["wall"] for rec in records]
    return {
        "setup_s": statistics.median(setup_walls),
        "job_s.p50": statistics.median(walls),
        "job_s.p90": p90(walls),
        "peak_rss_mb": max(rec["rss_kb"] for rec in records) / 1024,
    }


def per_layer_metrics(untraced, traced, round0) -> dict:
    """Self times are seconds per traced job; counts and exact ratios cover
    the jobs of round 0, so they depend on the seed alone."""
    n = len(traced)
    self_s = {layer: 0.0 for layer in LAYERS}
    for rec in traced:
        for name, (_calls, s) in rec["trace"]["spans"].items():
            for key in (name, name.split(".")[0]):
                self_s[key] = self_s.get(key, 0.0) + s / n
    process_s = sum(rec["wall"] - rec["trace"]["main_s"] for rec in traced) / n
    job_mean = sum(rec["wall"] for rec in traced) / n
    ex = exact_counters(round0)
    every = exact_counters(traced)

    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = ex.get("calls." + name[:-len(".calls")], 0)
    budget = [rec["out"]["error_bound"] / rec["check"]["target"]
              for rec in round0 if rec["cmd"] in ("zeta", "lfun")
              and rec["out"] and "error_bound" in rec["out"]]
    verify = [rec for rec in untraced if rec["cmd"] == "verify"]
    out.update({
        "cli.process_s": process_s,
        "domain.candidates_per_point": _ratio(ex.get("domain.candidates", 0),
                                              ex.get("domain.points", 0)),
        "domain.hit_frac": _ratio(ex.get("domain.hits", 0), ex.get("domain.decisions", 0)),
        "domain.sign_bits.max": ex.get("max.domain.sign_bits", 0),
        "domain.escalation_frac": _ratio(ex.get("domain.escalations", 0),
                                         ex.get("domain.decisions", 0)),
        "domain.resamples": ex.get("domain.resamples", 0),
        "verify.points_per_s": _ratio(sum(rec["check"]["samples"] for rec in verify),
                                      sum(rec["wall"] for rec in verify)),
        "ideals.rset_points": ex.get("ideals.rset_points", 0),
        "zeta.box_terms": ex.get("zeta.box_terms", 0),
        "zeta.radius.max": ex.get("max.zeta.radius", 0),
        "zeta.budget_ratio": statistics.median(budget) if budget else 0.0,
        "zeta.roundoff_frac": _ratio(
            sum(rec["trace"]["counts"].get("zeta.roundoff", 0.0) for rec in round0),
            sum(rec["trace"]["counts"].get("zeta.bound", 0.0) for rec in round0)),
        "kernels.box_terms_per_s": _ratio(every.get("zeta.box_terms", 0),
                                          self_s.get("kernels.box_sum", 0.0) * n),
        "kernels.box_bytes_computed": ex.get("kernels.box_bytes", 0),
        "kernels.primes_scanned": ex.get("kernels.primes_scanned", 0),
        "kernels.primes_per_s": _ratio(every.get("kernels.primes_scanned", 0),
                                       self_s.get("kernels.splitting_counts", 0.0) * n),
        "trace.job_s.mean": job_mean,
        "trace.accounted_frac": (process_s + sum(self_s[k] for k in LAYERS)) / job_mean,
        "trace.overhead_frac": (statistics.median(r["wall"] for r in traced)
                                / statistics.median(r["wall"] for r in untraced) - 1),
    })
    return out


def probe_environment(expected_backend: str) -> dict:
    """Interpreter, NumPy and kernel backend as the children see them."""
    code = ("import json, platform, numpy, shintani.kernels as k; "
            "print(json.dumps({'backend': k.BACKEND, 'python': platform.python_version(),"
            " 'numpy': numpy.__version__, 'package': k.__file__}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"cannot import shintani from {ROOT / 'src'}:\n{proc.stderr}")
    stamp = json.loads(proc.stdout.splitlines()[-1])
    if not Path(stamp.pop("package")).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"shintani is not imported from {ROOT / 'src'}")
    if stamp["backend"] != expected_backend:
        raise BenchError(f"kernel backend is {stamp['backend']!r}, the benchmark "
                         f"declares {expected_backend!r}; refusing to mix them")
    stamp["nproc"] = len(os.sched_getaffinity(0))
    stamp["commit"] = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            stamp["commit"] = git.stdout.strip()
    return stamp


def measure(args, directory: Path) -> dict:
    w, seed, smoke = args.workload, args.seed, args.smoke
    run_job(jobs.setup_jobs(w, 0)[0], directory, traced=False)  # compiles bytecode
    setup_walls: list[float] = []
    untraced, traced, round_s = [], [], []
    t0 = perf_counter()
    r = 0
    while True:
        t = perf_counter()
        if not args.trace:
            # set-up samples are spread over the run, like the jobs, so a
            # slow spell of the machine does not land on all of them
            for job in jobs.setup_jobs(w, r):
                rec = run_job(job, directory, traced=False)
                if rec["reason"]:
                    raise BenchError(f"set-up job {job['id']} failed: {rec['reason']}")
                setup_walls.append(rec["wall"])
        untraced += run_round(w, seed, r, smoke, directory, traced=False)
        if args.trace:
            traced += run_round(w, seed, r, smoke, directory, traced=True)
        round_s.append(perf_counter() - t)
        r += 1
        if perf_counter() - t0 + statistics.mean(round_s) / 2 >= args.seconds:
            break

    measured = untraced + traced
    if args.trace:
        round0 = [rec for rec in traced if rec["id"].startswith("r0-")]
        again = run_round(w, seed, 0, smoke, directory, traced=True)
        measured += again
        a, b = exact_counters(round0), exact_counters(again)
        if a != b:
            diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}
            raise BenchError(f"exact work counters differ between two traced runs "
                             f"of round 0: {diff}")
        metrics = per_layer_metrics(untraced, traced, round0)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup_walls, untraced)
        units = END_TO_END

    failures = [rec for rec in measured if rec["reason"]]
    for rec in failures:
        tag = "known defect" if rec["known"] else "FAILED"
        print(f"{tag}: {rec['id']} {rec['cmd']}: {rec['reason']}", file=sys.stderr)
    return {
        # failures of the known oracle defect are counted but do not make
        # the run incorrect; any other failure does
        "correct": all(rec["known"] for rec in failures),
        "attempted": len(measured),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--backend", default="reference",
                    help="kernel backend the results are valid for")
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down jobs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind like an interrupt: spawn() kills and reaps the
    # running job and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stamp = probe_environment(args.backend)
        print(json.dumps({"stamp": stamp, "workload": args.workload,
                          "seed": args.seed, "trace": args.trace}), flush=True)
        directory.mkdir(parents=True)
        result = measure(args, directory)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()            # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
