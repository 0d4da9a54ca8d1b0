"""Signed fundamental domains for the totally positive units of a totally
real number field, certified by orbit counting, with Shintani zeta sums for
Hecke L-functions and ray-class partial zeta functions.

The public names are resolved on first access (PEP 562), so importing the
package loads none of its modules, and a name loads only the module that
defines it: the domain, its cones and the net-count verifier need neither
NumPy nor the zeta stack, and the Euler-product oracle needs NumPy and the
kernels but not the zeta stack.
"""

import importlib

_MODULE_OF = {
    "SignedCone": "domain",
    "SignedDomain": "domain",
    "build_signed_domain": "domain",
    "cheapest_basis": "domain",
    "colmez_generators": "domain",
    "cone_contains": "domain",
    "is_true_domain": "domain",
    "orbit_net_count": "domain",
    "verify_net_counts": "domain",
    "FieldElement": "field",
    "NumberField": "field",
    "cone_coordinates": "geometry",
    "FractionalIdeal": "ideals",
    "Order": "ideals",
    "coset_enumerate_R": "ideals",
    "ideal_add": "ideals",
    "ideal_inverse": "ideals",
    "ideal_mul": "ideals",
    "integral_basis": "ideals",
    "principal_ideal": "ideals",
    "euler_product_oracle": "oracle",
    "CharacterTable": "zeta",
    "ZetaParams": "zeta",
    "dedekind_zeta_via_domain": "zeta",
    "l_function": "zeta",
    "partial_zeta": "zeta",
    "shintani_zeta": "zeta",
    "trivial_character": "zeta",
}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
