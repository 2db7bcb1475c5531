"""Indecomposable 1-factorizations of the complete multigraph lambda*K_2n.

Construction by starter orbits over Z_n x Z_2 and by affine orbits over
GF(p^m), a counting certificate for indecomposability, and an exhaustive
exact-multicover verifier.
"""

from .core import (MultiFactorization, ValidityReport, canonicalize_factor,
                   is_simple, validate_factorization)
from .families import (construct, coverage_table, family_domain,
                       family_profiles, plan, upper_bound)
from .gf import agl_orbit_factorization, base_factor, field_ctx
from .starters import (StarterSet, assemble, certificate_indecomposable,
                       certificate_order, find_starter,
                       orbit_multiplicity_check)
from .verify import (SearchBudget, Witness, certificate_witness,
                     decomposability_witness_check, find_subfactorization)

__version__ = "0.1.0"

__all__ = [
    "MultiFactorization", "ValidityReport", "canonicalize_factor",
    "is_simple", "validate_factorization",
    "construct", "coverage_table", "family_domain", "family_profiles",
    "plan", "upper_bound",
    "agl_orbit_factorization", "base_factor", "field_ctx",
    "StarterSet", "assemble", "certificate_indecomposable",
    "certificate_order", "find_starter",
    "orbit_multiplicity_check",
    "SearchBudget", "Witness", "certificate_witness",
    "decomposability_witness_check", "find_subfactorization",
    "__version__",
]
