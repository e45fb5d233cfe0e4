"""Finite and smooth self-distributive structures, with a numerical verifier.

Finite side: operation tables, axiom classification, conjugation and union
constructions, exhaustive enumeration.  Smooth side: parametrized operation
families on matrices, the unit sphere, convex bodies and an algebra-plus-
plane union, plus the machinery to verify their axioms numerically, recover
brackets by differentiation, integrate flows, and test whether "x fixes y"
and "y fixes x" always agree.
"""

from types import ModuleType as _ModuleType

from .linalg import (
    as_matrix,
    commutator,
    conjugate_by_exp,
    eigh,
    expm,
    hermitize,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    random_complex,
    random_hermitian,
    require_hermitian,
    spectrum,
)
from .finite import (
    GroupTable,
    MagmaTable,
    StructureReport,
    UnionQuandleSpec,
    canonical_form,
    classify,
    conjugation_quandle,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_tables,
    inverse_operation,
    prenoether_holds,
    quaternion_group,
    relabel_table,
    symmetric_group,
    union_quandle,
)
from .realizations import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    REALIZATION_NAMES,
    Realization,
    UnionElement,
    bloch,
    bloch_embedding,
    bloch_generator,
    bloch_rotate,
    convex_flow,
    convex_spindle,
    corrupted_flow,
    fixed_spectrum,
    make_realization,
    matrix_general,
    matrix_hermitian,
    op_convex_flow,
    op_matrix_plain,
    op_matrix_skew,
    op_union,
    planar_rotation,
    union_lie,
)
from .verify import (
    AxiomReport,
    NoetherSummary,
    NoetherVerdict,
    Trajectory,
    integrate_flow,
    noether_check,
    noether_suite,
    numeric_bracket,
    sample_flow,
    verify_axioms,
    write_trajectory_csv,
)

__version__ = "0.1.0"

# The public API is every name imported above; submodules and underscore
# names are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
