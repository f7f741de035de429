"""Exact algebra of cubic matrices under semigroup-parameterized multiplications.

The package enumerates associative binary operations on a finite index set,
classifies them up to relabeling, and builds the m^3-dimensional algebras of
cubic matrices their multiplications define, entirely in exact rational
arithmetic.  See the demos/ directory for worked tours of each capability.
"""

from .cubic import CubicMatrix
from .enumeration import (
    CensusResult,
    collect_operations,
    count_operations,
    enumerate_operations,
    orbit_census,
)
from .errors import CapacityError, CubalError, FormatError, NotAssociativeError
from .operations import (
    Operation,
    Permutation,
    PowerSequence,
    act,
    all_permutations,
    are_equivalent,
    check_associative,
    classify_power_sequence,
    classify_symmetry,
    enumerate_invariant_subsets,
    image,
    invariance_violation,
    is_symmetric,
    left_symmetric,
    orbit,
    power_sequence,
    right_symmetric,
)
from .structure import (
    AccompanyingElement,
    accompanying_image,
    character_search,
    in_kernel_ideal,
    is_character,
    left_zero_divisor_witness,
    permute_indices,
    right_zero_divisor_witness,
    verify_isomorphism,
)
from .verify import verify_census, verify_operation

__version__ = "0.1.0"

__all__ = [
    "AccompanyingElement",
    "CapacityError",
    "CensusResult",
    "CubalError",
    "CubicMatrix",
    "FormatError",
    "NotAssociativeError",
    "Operation",
    "Permutation",
    "PowerSequence",
    "accompanying_image",
    "act",
    "all_permutations",
    "are_equivalent",
    "character_search",
    "check_associative",
    "classify_power_sequence",
    "classify_symmetry",
    "collect_operations",
    "count_operations",
    "enumerate_invariant_subsets",
    "enumerate_operations",
    "image",
    "in_kernel_ideal",
    "invariance_violation",
    "is_character",
    "is_symmetric",
    "left_symmetric",
    "left_zero_divisor_witness",
    "orbit",
    "orbit_census",
    "permute_indices",
    "power_sequence",
    "right_symmetric",
    "right_zero_divisor_witness",
    "verify_census",
    "verify_isomorphism",
    "verify_operation",
]
