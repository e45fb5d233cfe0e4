"""Finite and smooth self-distributive structures, with a numerical verifier.

Finite side: operation tables, axiom classification, conjugation and union
constructions, exhaustive enumeration.  Smooth side: parametrized operation
families on matrices, the unit sphere, convex bodies and an algebra-plus-
plane union, plus the machinery to verify their axioms numerically, recover
brackets by differentiation, integrate flows, and test whether "x fixes y"
and "y fixes x" always agree.
"""

from types import FunctionType as _FunctionType, ModuleType as _ModuleType

from . import finite, linalg, realizations, verify
from .realizations import PAULI_X, PAULI_Y, PAULI_Z, REALIZATION_NAMES

__version__ = "0.1.0"

# The public API: every class and function defined in quandlekit that a library
# module binds under a name without a leading underscore, and the constants above.
globals().update(
    (name, value)
    for module in (linalg, finite, realizations, verify)
    for name, value in vars(module).items()
    if not name.startswith("_") and isinstance(value, (type, _FunctionType))
    and value.__module__.startswith("quandlekit.")
)
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
