"""Seed-generated job decks for the four benchmark workloads.

A workload is a fixed list of job templates.  One *round* issues every
template once, in a seed-shuffled order, so every run measures the same mix
of work whatever its length.  Within a template the seed only moves things
that leave the amount of work nearly unchanged: verify sample seeds, the
choice between the equivalent ``zeta`` and ``lfun`` forms of a trivial-modulus
sum, and small jitters of targets and prime caps.  Jitters follow a Weyl
sequence (u_r = frac(u_0 + r * phi)), so any number of rounds covers the
jitter range evenly and two seeds give nearly the same total work.  Targets
and caps are written to the job files rounded, so they stay readable.

The program sees only the job files; the references each job is checked
against stay here, in the ``check`` entry of a job.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Fixture fields (defining polynomial, low degree first; totally positive
# units in power-basis coordinates).  The units of q_sqrt2, q_sqrt3 and
# cubic_81 generate the totally positive units, as zeta and lfun require.
FIELDS = {
    "q_sqrt2": {"poly": [-2, 0, 1], "units": [["3", "2"]]},
    "q_sqrt3": {"poly": [-3, 0, 1], "units": [["2", "1"]]},
    "q_sqrt5": {"poly": [-5, 0, 1], "units": [["3/2", "1/2"]]},
    "cubic_81": {"poly": [-1, -3, 0, 1], "units": [["1", "2", "1"], ["0", "0", "1"]]},
    "cubic_148": {"poly": [1, -3, -1, 1], "units": [["10", "2", "-3"], ["4", "-4", "1"]]},
    "quartic_725": {"poly": [1, 1, -3, -1, 1],
                    "units": [["1", "2", "1", "-1"], ["3", "3", "0", "-1"],
                              ["2", "-3", "1", "0"]]},
    # x^3 - 3x - 1 with a unit pair whose domain has a w = -1 cone
    "cubic_signed_witness": {"poly": [-1, -3, 0, 1],
                             "units": [["1", "2", "1"], ["3", "5", "2"]]},
    # Q(sqrt2) with eps^4, which generates the totally positive units = 1 mod 3
    "q_sqrt2_mod3": {"poly": [-2, 0, 1], "units": [["577", "408"]]},
}

# The field whose Dedekind zeta a job on FIELDS[name] evaluates.
ZETA_FIELD = {"q_sqrt2_mod3": "q_sqrt2"}


def _ideal(rows):
    return {"hnf": rows, "den": 1}


ONE2 = _ideal([[1, 0], [0, 1]])
ONE3 = _ideal([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

# Conductors: HNF in the power basis, and the norms of the prime ideals
# dividing them (for the Euler factors removed from the reference).
CONDUCTORS = {
    ("q_sqrt2", "2"): (_ideal([[2, 0], [0, 2]]), [2]),        # (sqrt2)^2
    ("q_sqrt2", "3"): (_ideal([[3, 0], [0, 3]]), [9]),        # inert
    ("q_sqrt2", "7"): (_ideal([[7, 0], [0, 7]]), [7, 7]),     # split
    ("cubic_81", "2"): (_ideal([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), [8]),
    ("cubic_81", "p3"): (_ideal([[1, 0, 2], [0, 1, 2], [0, 0, 3]]), [3]),  # (t + 2)
    ("q_sqrt3", "1"): (ONE2, []),
}

# Complete ray-class sets mod f * infinity: representatives of every class.
# q_sqrt2 mod (2): (1) and (3 + sqrt2); q_sqrt2 mod (3) with eps^4: (1) and
# (2 + sqrt2); cubic_81 mod (t + 2): (1) and (2).  Q(sqrt3) has narrow class
# number 2 (its fundamental unit has norm +1), so even its trivial-modulus
# zeta_K is the sum over the narrow classes of (1) and (1 + sqrt3).
CLASS_SETS = {
    ("q_sqrt3", "1"): [ONE2, _ideal([[1, 1], [0, 2]])],
    ("q_sqrt2", "2"): [ONE2, _ideal([[1, 5], [0, 7]])],
    ("q_sqrt2_mod3", "3"): [ONE2, _ideal([[2, 0], [0, 1]])],
    ("cubic_81", "p3"): [ONE3, _ideal([[2, 0, 0], [0, 2, 0], [0, 0, 2]])],
}

PHI = (math.sqrt(5) - 1) / 2

# Template kinds:
#   ("verify", field, samples)
#   ("trivial", field, s, target)          zeta or lfun, trivial modulus
#   ("cond", field, conductor, s, target)  lfun with a nontrivial conductor
#   ("classes", field, conductor, s, target) one zeta job per ray class
#   ("oracle", field, s, prime_cap)
# Each round is two clusters of jobs with similar wall times: about three
# quarters light jobs and one quarter heavy ones.  job_s.p50 then falls
# inside the light cluster and job_s.p90 inside the heavy one, for any
# number of rounds, instead of on the edge between two job kinds, where
# machine noise would make it jump from one to the other.
WORKLOADS = {
    "verify-mix": [
        ("verify", "quartic_725", 50),                 # heavy
        ("verify", "quartic_725", 50),                 # heavy
        ("verify", "q_sqrt2", 400),
        ("verify", "q_sqrt5", 400),
        ("verify", "cubic_148", 200),
        ("verify", "cubic_148", 200),
        ("verify", "cubic_signed_witness", 150),
        ("verify", "cubic_signed_witness", 150),
    ],
    "zeta-deep": [
        ("trivial", "cubic_81", 2.0, 1e-6),            # heavy
        ("trivial", "q_sqrt2", 2.0, 3e-8),             # heavy
        ("trivial", "cubic_81", 2.5, 2e-9),
        ("trivial", "cubic_81", 3.0, 2e-11),
        ("trivial", "quartic_725", 2.0, 1e-3),
        ("trivial", "quartic_725", 2.5, 1e-5),
        ("trivial", "quartic_725", 3.0, 1e-6),
        ("classes", "q_sqrt3", "1", 2.0, 2e-7),
        ("classes", "q_sqrt3", "1", 2.5, 2e-11),
    ],
    "lfun-conductor": [
        ("cond", "q_sqrt2", "3", 2.0, 1e-3),
        ("cond", "q_sqrt2", "7", 2.0, 3e-2),
        ("cond", "cubic_81", "2", 2.0, 3e-3),
        ("cond", "cubic_81", "p3", 2.5, 1e-5),
        ("classes", "q_sqrt2", "2", 2.0, 1e-5),
        ("classes", "q_sqrt2_mod3", "3", 2.0, 3e-3),   # heavy, both classes
        ("classes", "cubic_81", "p3", 2.0, 1e-5),      # class (2) heavy
    ],
    "oracle-scan": [
        ("oracle", "quartic_725", 2.0, 250_000),       # heavy
        ("oracle", "q_sqrt2", 2.0, 1_000_000),
        ("oracle", "cubic_81", 2.0, 600_000),
        ("oracle", "q_sqrt5", 2.0, 400_000),
    ],
}

# Fields whose `cones` job times the set-up of each workload.
SETUP_FIELDS = {
    "verify-mix": ["quartic_725", "cubic_148", "cubic_signed_witness",
                   "q_sqrt2", "q_sqrt5"],
    "zeta-deep": ["cubic_81", "quartic_725", "q_sqrt2", "q_sqrt3"],
    "lfun-conductor": ["q_sqrt2", "cubic_81"],
    "oracle-scan": ["q_sqrt2", "cubic_81", "quartic_725", "q_sqrt5"],
}

# Jitter: targets are multiplied by 10^(-TARGET_JITTER * u), prime caps by
# 1 + CAP_JITTER * (u - 1/2).  Kept small, so every run does nearly the
# same work and job-time percentiles are steady across seeds.
TARGET_JITTER = 0.03
CAP_JITTER = 0.1


def _job(cmd, field, **extra):
    return {"schema": "v1", "command": cmd, "field": FIELDS[field], **extra}


def _target(base, u):
    return float(f"{base * 10 ** (-TARGET_JITTER * u):.3e}")


def _smoke(tpl):
    """A template scaled down to a fraction of a second of work."""
    kind = tpl[0]
    if kind == "verify":
        return (kind, tpl[1], max(4, tpl[2] // 20))
    if kind == "oracle":
        return (kind, tpl[1], tpl[2], tpl[3] // 20)
    return tpl[:-1] + (min(1e-2, tpl[-1] * 1e3),)


def make_round(workload: str, seed: int, r: int, smoke: bool = False) -> list[dict]:
    """Jobs of round r: a list of {"id", "cmd", "job", "check"} dicts.

    Depends only on (workload, seed, r, smoke).  Jobs of one ray-class set
    share a "group" in their check and are checked together.
    """
    templates = WORKLOADS[workload]
    if smoke:
        templates = [_smoke(tpl) for tpl in templates]
    rng = random.Random(f"{workload}:{seed}:{r}")
    seeded = random.Random(f"{workload}:{seed}")
    u0, phase = seeded.random(), seeded.randrange(2)
    blocks = []                     # one per template, shuffled as a whole
    for k, tpl in enumerate(templates):
        # the PHI^2 offset decorrelates the jitter of the templates
        u = (u0 + PHI * (r + 1) + PHI ** 2 * k) % 1.0
        kind, field = tpl[0], tpl[1]
        tag = f"r{r}-k{k}"
        if kind == "verify":
            samples = tpl[2]
            block = [{"id": tag, "cmd": "verify",
                      "job": _job("verify", field, samples=samples,
                                  seed=rng.randrange(1, 10 ** 9)),
                      "check": {"kind": "verify", "samples": samples}}]
        elif kind == "trivial":
            s, target = tpl[2], _target(tpl[3], u)
            # lfun does an ideal product per R-set point that zeta skips, so
            # each template alternates between the two forms across rounds
            cmd = ("zeta", "lfun")[(r + k + phase) % 2]
            block = [{"id": tag, "cmd": cmd,
                      "job": _job(cmd, field, s=s, target_error=target),
                      "check": {"kind": "value", "field": field, "s": s,
                                "target": target, "norms": []}}]
        elif kind == "cond":
            cond, s, target = tpl[2], tpl[3], _target(tpl[4], u)
            ideal, norms = CONDUCTORS[(field, cond)]
            chi = {"values": [[1.0, 0.0]], "zero_on_noncoprime": True}
            block = [{"id": tag, "cmd": "lfun",
                      "job": _job("lfun", field, s=s, target_error=target,
                                  conductor=ideal, character=chi),
                      "check": {"kind": "value", "field": field, "s": s,
                                "target": target, "norms": norms}}]
        elif kind == "classes":
            cond, s, target = tpl[2], tpl[3], _target(tpl[4], u)
            ideal, norms = CONDUCTORS[(ZETA_FIELD.get(field, field), cond)]
            reps = CLASS_SETS[(field, cond)]
            block = [{"id": f"{tag}-c{c}", "cmd": "zeta",
                      "job": _job("zeta", field, s=s, target_error=target,
                                  ideals=[rep, ideal]),
                      "check": {"kind": "classes", "field": field, "s": s,
                                "target": target, "norms": norms,
                                "group": tag, "size": len(reps)}}
                     for c, rep in enumerate(reps)]
        elif kind == "oracle":
            s = tpl[2]
            cap = int(tpl[3] * (1 + CAP_JITTER * (u - 0.5)))
            block = [{"id": tag, "cmd": "oracle",
                      "job": _job("oracle", field, s=s, prime_cap=cap),
                      "check": {"kind": "value", "field": field, "s": s,
                                "target": None, "norms": []}}]
        else:
            raise ValueError(f"unknown template kind {kind!r}")
        blocks.append(block)
    rng.shuffle(blocks)
    return [job for block in blocks for job in block]


def setup_jobs(workload: str, r: int) -> list[dict]:
    """The `cones` jobs timed in round r: two of the workload's fields, in
    turn, so that every field is timed over a run."""
    fields = SETUP_FIELDS[workload]
    picked = [fields[(2 * r + i) % len(fields)] for i in range(2)]
    return [{"id": f"setup-r{r}-{i}", "cmd": "cones", "job": _job("cones", f),
             "check": {"kind": "cones", "field": f}} for i, f in enumerate(picked)]


def write_job(job: dict, directory: Path) -> Path:
    path = directory / f"{job['id']}.json"
    path.write_text(json.dumps(job["job"], sort_keys=True) + "\n")
    return path
