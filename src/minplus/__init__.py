"""Exact min-plus (tropical) linear algebra toolkit.

Scalars are exact rationals extended with the ⊕-identity ``inf``;
matrices double as weighted adjacency matrices of directed graphs. The
package computes both characteristic polynomials of a min-plus matrix
(tropical-determinant expansion and the trace recursion), factors
min-plus polynomials into linear factors, and cross-checks every root
against circuit structure in the associated network.
"""

from .errors import CapExceeded, MinPlusError, ParseError
from .semiring import (
    E,
    EPSILON,
    MinPlusValue,
    as_value,
    oplus,
    otimes,
    otimes_inverse,
    parse_value,
    power,
)
from .matrix import (
    MinPlusMatrix,
    identity,
    epsilon_matrix,
    load_matrix,
    mat_oplus,
    mat_otimes,
    mat_power,
    parse_matrix,
    scalar_otimes,
    trace,
)
from .polynomial import (
    Factorization,
    MinPlusPolynomial,
    breakpoints,
    canonicalize,
    evaluate,
    expand,
    factorize,
    format_factorization,
    format_polynomial,
    is_equivalent,
    parse_polynomial,
)
from .charpoly import (
    canonical_charpoly_tropdet,
    charpoly_flv,
    charpoly_tropdet,
    eigenvalue_from_charpoly,
    tropdet_assignment,
    tropdet_bruteforce,
)
from .network import (
    Circuit,
    ExtendedCircuit,
    Network,
    Report,
    coefficient_check,
    enumerate_circuits,
    enumerate_extended_circuits,
    matrix_from_network,
    min_cycle_mean,
    network_from_matrix,
    plant_separated_instance,
    separated_check,
    verify_corollary_equivalence,
    verify_separated_factorization,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "MinPlusError",
    "ParseError",
    "E",
    "EPSILON",
    "MinPlusValue",
    "as_value",
    "oplus",
    "otimes",
    "otimes_inverse",
    "parse_value",
    "power",
    "MinPlusMatrix",
    "identity",
    "epsilon_matrix",
    "load_matrix",
    "mat_oplus",
    "mat_otimes",
    "mat_power",
    "parse_matrix",
    "scalar_otimes",
    "trace",
    "Factorization",
    "MinPlusPolynomial",
    "breakpoints",
    "canonicalize",
    "evaluate",
    "expand",
    "factorize",
    "format_factorization",
    "format_polynomial",
    "is_equivalent",
    "parse_polynomial",
    "canonical_charpoly_tropdet",
    "charpoly_flv",
    "charpoly_tropdet",
    "eigenvalue_from_charpoly",
    "tropdet_assignment",
    "tropdet_bruteforce",
    "Circuit",
    "ExtendedCircuit",
    "Network",
    "Report",
    "coefficient_check",
    "enumerate_circuits",
    "enumerate_extended_circuits",
    "matrix_from_network",
    "min_cycle_mean",
    "network_from_matrix",
    "plant_separated_instance",
    "separated_check",
    "verify_corollary_equivalence",
    "verify_separated_factorization",
]
