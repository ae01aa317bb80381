"""Exception hierarchy.

Three top-level classes mirror the CLI exit codes: ``InputError`` (bad or
unreadable input, exit 1), ``MathValidationError`` (the input fails an exact
mathematical check such as the Jacobi identity, exit 2) and
``InternalInvariantError`` (an identity that must hold for every valid input
failed, which means a bug, exit 3).
"""

from __future__ import annotations

from fractions import Fraction


class LiecohError(Exception):
    pass


class InputError(LiecohError):
    """Unreadable, unparsable or structurally malformed input."""


class MathValidationError(LiecohError):
    """Input is well-formed but fails an exact mathematical precondition."""


class InternalInvariantError(LiecohError):
    """An always-true identity failed; indicates a bug, never user error."""


class UnknownBuiltin(InputError):
    pass


class InvalidParams(InputError):
    pass


class ParseError(InputError):
    pass


class AntisymmetryViolation:
    """c[i][j][k] + c[j][i][k] = residual != 0; equal and hashed by its fields."""

    def __init__(self, i: int, j: int, k: int, residual: Fraction):
        self.i = i
        self.j = j
        self.k = k
        self.residual = residual

    def _key(self):
        return (self.i, self.j, self.k, self.residual)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def describe(self) -> str:
        from .rationals import format_rational

        return (
            f"antisymmetry fails at (i={self.i}, j={self.j}, k={self.k}): "
            f"c[i][j][k] + c[j][i][k] = {format_rational(self.residual)}"
        )


class JacobiViolation:
    """The cyclic sum of [[e_i, e_j], e_k] has coefficient residual != 0 on
    e_l; equal and hashed by its fields."""

    def __init__(self, i: int, j: int, k: int, l: int, residual: Fraction):
        self.i = i
        self.j = j
        self.k = k
        self.l = l
        self.residual = residual

    def _key(self):
        return (self.i, self.j, self.k, self.l, self.residual)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def describe(self) -> str:
        from .rationals import format_rational

        return (
            f"Jacobi identity fails at (i={self.i}, j={self.j}, k={self.k}): "
            f"cyclic sum has coefficient {format_rational(self.residual)} on basis element {self.l}"
        )


class InvalidStructure(MathValidationError):
    """Raised with the complete list of antisymmetry/Jacobi violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(v.describe() for v in self.violations)
        super().__init__(f"invalid structure constants: {lines}")


class DependentVectors(MathValidationError):
    pass


class NotClosedUnderBracket(MathValidationError):
    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(
            f"bracket of subalgebra generators {a} and {b} leaves their span"
        )


class NotAHomomorphism(MathValidationError):
    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"H[e_{i}, e_{j}] != [H e_{i}, H e_{j}]")


class SubalgebraNotPreserved(MathValidationError):
    def __init__(self, index: int):
        self.witness = index
        super().__init__(f"image of subalgebra generator {index} is not in the target subalgebra")


class DimensionMismatch(MathValidationError):
    pass


class NotACocycle(MathValidationError):
    def __init__(self, degree: int, residual):
        self.degree = degree
        self.residual = residual
        super().__init__(f"vector in degree {degree} is not a cocycle; d(v) = {residual}")


class NotAChainMap(MathValidationError):
    def __init__(self, degree: int, column: int):
        self.degree = degree
        self.column = column
        super().__init__(
            f"map does not commute with differentials at degree {degree}, basis vector {column}"
        )


class InvalidComplex(MathValidationError):
    pass


# Hard failures: these identities hold for every valid input, so a failure is
# a bug in this library (or an inconsistency between its sign conventions).

class NotDStable(InternalInvariantError):
    pass


class ModelMismatch(InternalInvariantError):
    pass


class ChainMapViolation(InternalInvariantError):
    def __init__(self, degree: int, column: int):
        self.degree = degree
        self.column = column
        super().__init__(
            f"chain-map identity fails at degree {degree}, basis vector {column}"
        )


class FactorizationMismatch(InternalInvariantError):
    pass


class DiagramMismatch(InternalInvariantError):
    pass


class FormulaMismatch(InternalInvariantError):
    pass
