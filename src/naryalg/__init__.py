"""Exact-arithmetic n-Lie / n-Leibniz algebra toolkit.

Each public name, and each module, is imported on first use (PEP 562), so a
command imports only the modules it needs.  A name is looked up on its module
at every access, so it is always the object the module holds.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE = {name: module for module, names in {
    "tensor": """RationalTensor ShapeError SizeGuardError SlotPermutation add
        antisymmetrize contract is_zero kronecker_delta levi_civita permute
        raise_lower scale symmetrize""",
    "algebra": """AlgebraFileError CheckReport Metric NaryAlgebra check_cyclic
        check_derivation check_filippov check_full_antisym_lowered
        check_generalized_metric_l check_metricity check_skew
        check_symmetry_property cyclic_sum derivation_residual direct_sum
        filippov_residual filippov_sampled full_antisymmetrization is_lie_lple
        is_lie_nple is_lie_triple load save simple_filippov zero_algebra""",
    "adjoint": """FundamentalObject LieClosure ad_kernel ad_matrix ad_of_sum
        basis_object basis_vector centre compose compose_sums lie_closure""",
    "forms": "TraceForm kasymov kasymov_nondegenerate mixed_trace nondegenerate",
    "construct": """ConstructionError ConstructionInput UnknownFixtureError
        associated_leibniz builtin check_cs3 corollary_cs3 corollary_self cs_so4
        epsilon_pair_form schouten_residual so_rotation_generators trace_form
        triple_from_lie""",
    "young": """BudgetExceededError Tableau YoungShape character classify_bracket
        gl_dimension isotypic_project primitive_project""",
}.items() for name in names.split()}

_SUBMODULES = ("tensor", "linalg", "algebra", "adjoint", "forms", "construct", "young")

__all__ = [*_MODULE, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
