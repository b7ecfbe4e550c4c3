"""Exact arithmetic for truncated multiple harmonic sums and their duals.

The library computes strict and weak multiple harmonic sums, their
reflected block forms, connected sums with a binomial connector, and
the matching congruences mod p and mod p^n, all in exact rational or
residue arithmetic.  One pure-Python kernel set (zetaflat._kernels)
evaluates every chain sum.
"""

from .chainsum import (
    ChainSpec,
    Position,
    Residue,
    Weight,
    endpoint_values,
    equality_strata,
    eval_dp,
    eval_dp_mod,
    eval_enum,
    flat_chain,
    flat_support_chain,
    hoffman_weak_chain,
    reflect_chain,
    riemann_chain,
    zeta_chain,
    zeta_star_chain,
)
from .connected_sum import (
    TelescopeTrace,
    connected_sum,
    connector,
    telescope,
)
from .errors import CapExceededError, NonUnitError
from .finite_padic import (
    is_prime,
    primes_in,
    zeta_mod,
    zeta_star_mod,
)
from .index_algebra import (
    Index,
    coarsenings,
    dual,
    format_index,
    hoffman_dual,
    indices_up_to_weight,
    oplus,
    oslash,
    parse_index,
    refinements,
    refines,
    shift_vectors,
)
from .mzv_real import (
    discrepancy,
    duality_convergence,
    riemann_sum,
    zeta_flat,
    zeta_star_trunc,
    zeta_trunc,
    zeta_trunc_column,
)
from .reports import VerificationReport, decimal_str, fraction_str

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel set in use; there is one, 'pure'."""
    return "pure"


__all__ = [
    "CapExceededError",
    "ChainSpec",
    "Index",
    "NonUnitError",
    "Position",
    "Residue",
    "TelescopeTrace",
    "VerificationReport",
    "Weight",
    "active_backend",
    "coarsenings",
    "connected_sum",
    "connector",
    "decimal_str",
    "discrepancy",
    "dual",
    "duality_convergence",
    "endpoint_values",
    "equality_strata",
    "eval_dp",
    "eval_dp_mod",
    "eval_enum",
    "flat_chain",
    "flat_support_chain",
    "format_index",
    "fraction_str",
    "hoffman_dual",
    "hoffman_weak_chain",
    "indices_up_to_weight",
    "is_prime",
    "oplus",
    "oslash",
    "parse_index",
    "primes_in",
    "refinements",
    "refines",
    "reflect_chain",
    "riemann_chain",
    "riemann_sum",
    "shift_vectors",
    "telescope",
    "zeta_chain",
    "zeta_flat",
    "zeta_mod",
    "zeta_star_chain",
    "zeta_star_mod",
    "zeta_star_trunc",
    "zeta_trunc",
    "zeta_trunc_column",
]
