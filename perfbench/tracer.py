"""Run one ``shintani.cli`` command with spans around every layer's public
functions, then write the per-function self times and work counters.

    python perfbench/tracer.py TRACE.json <cli arguments...>

The spans are installed from outside the package.  ``shintani.cli`` and
``shintani.zeta`` import ``build_signed_domain``, ``coset_enumerate_R``,
``ideal_mul`` and others by name, so a function is replaced in every loaded
``shintani`` module that holds it, not only in the module that defines it.
Methods are replaced on their class.  Spans are aggregated in memory per
name (calls, self time) and written once, when the command returns.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import shintani
import shintani.cli
from shintani import domain, field, geometry, ideals, kernels, zeta
from shintani.dyadic import START_PREC

# span name -> (owner, attribute); owners are modules or classes.  Every
# function the CLI reaches from outside its own layer is listed, so that no
# layer's time lands in its caller's self time.
SPANS = {
    "cli.main": (shintani.cli, "main"),
    "field.NumberField": (field.NumberField, "__init__"),
    "field.embed_iv": (field.NumberField, "embed_iv"),
    "field.signed_regulator_sign": (field.NumberField, "signed_regulator_sign"),
    "field.is_unit": (field.NumberField, "is_unit"),
    "field.is_totally_positive": (field.NumberField, "is_totally_positive"),
    "geometry.cone_coordinates": (geometry, "cone_coordinates"),
    "domain.build_signed_domain": (domain, "build_signed_domain"),
    "domain.verify_net_counts": (domain, "verify_net_counts"),
    "domain.candidate_exponents": (domain.SignedDomain, "candidate_exponents"),
    "domain.contains_vector": (domain.SignedCone, "contains_vector"),
    "ideals.integral_basis": (ideals, "integral_basis"),
    "ideals.from_json": (ideals.FractionalIdeal, "from_json"),
    "ideals.coset_enumerate_R": (ideals, "coset_enumerate_R"),
    "ideals.ideal_ops": [(ideals, "ideal_mul"), (ideals, "ideal_add"),
                         (ideals, "ideal_inverse"), (ideals, "principal_ideal")],
    "zeta.l_function": (zeta, "l_function"),
    "zeta.partial_zeta": (zeta, "partial_zeta"),
    "zeta.shintani_zeta": (zeta, "shintani_zeta"),
    "zeta.euler_product_oracle": (zeta, "euler_product_oracle"),
    "kernels.box_sum": (kernels, "box_sum"),
    "kernels.splitting_counts": (kernels, "splitting_counts"),
}


class Trace:
    def __init__(self):
        self.stack: list[list[float]] = []     # child time of each open span
        self.spans: dict[str, list] = {}       # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def span(self, name, fn):
        stack, spans = self.stack, self.spans
        spans.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                agg = spans[name]
                agg[0] += 1
                agg[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return traced

    def observe_max(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value


def _counting(trace: Trace, name: str, fn):
    """The function with its work counters, before the span is added."""
    c = trace.counts
    if name == "domain.candidate_exponents":
        def f(self, x, *a, **kw):
            out = fn(self, x, *a, **kw)
            c["domain.points"] += 1
            c["domain.candidates"] += sum(len(cands) for _, cands in out)
            return out
    elif name == "domain.contains_vector":
        def f(self, vfn, cap=None):
            asked = [0]

            def recording(prec):
                asked[0] = max(asked[0], prec)
                return vfn(prec)
            try:
                inside = fn(self, recording, cap)
            finally:
                c["domain.decisions"] += 1
                c["domain.escalations"] += asked[0] > START_PREC
                trace.observe_max("domain.sign_bits", asked[0])
            c["domain.hits"] += inside
            return inside
    elif name == "ideals.coset_enumerate_R":
        def f(*a, **kw):
            out = fn(*a, **kw)
            c["ideals.rset_points"] += len(out.points)
            return out
    elif name == "zeta.shintani_zeta":
        def f(s, z, cone, params, scale=1):
            out = fn(s, z, cone, params, scale)
            tail = zeta.tail_bound(cone.field.degree, s, scale, out.radius)
            c["zeta.bound"] += out.error_bound
            c["zeta.roundoff"] += out.error_bound - tail
            return out
    elif name == "kernels.box_sum":
        def f(z, gens, s, radius, scale=1.0):
            out = fn(z, gens, s, radius, scale)
            n = len(z)
            c["zeta.box_terms"] += (radius + 1) ** n
            c["kernels.box_bytes"] += 8 * n * (radius + 1) ** n
            trace.observe_max("zeta.radius", radius)
            return out
    elif name == "kernels.splitting_counts":
        def f(poly, primes):
            c["kernels.primes_scanned"] += len(primes)
            return fn(poly, primes)
    else:
        return fn
    return f


def install(trace: Trace) -> None:
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "shintani" or n.startswith("shintani."))]
    for name, owners in SPANS.items():
        for owner, attr in owners if isinstance(owners, list) else [owners]:
            orig = getattr(owner, attr)
            wrapped = trace.span(name, _counting(trace, name, orig))
            if isinstance(owner, type):
                if isinstance(inspect.getattr_static(owner, attr), staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    trace = Trace()
    install(trace)
    t0 = perf_counter()
    try:
        rc = shintani.cli.main(cli_args)
    finally:
        main_s = perf_counter() - t0
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"main_s": main_s, "spans": trace.spans,
                       "counts": dict(trace.counts), "maxima": trace.maxima}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
