"""Exception types shared across the workbench.

Every error carries enough structure to be asserted on in tests and rendered
by the CLI; nothing here is ever raised for a *false* answer, only for
ill-formed inputs or exhausted resources.
"""

from __future__ import annotations


class ModalkitError(Exception):
    """Base class for all workbench errors."""


class ParseError(ModalkitError):
    """Formula text could not be parsed.

    position is a 0-based character offset into the input; expected is a
    short human-readable description of what the parser wanted to see.
    """

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"parse error at offset {position}: expected {expected}")


class UnknownNameError(ModalkitError):
    """An identifier is not declared in the active signature."""

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        super().__init__(f"unknown {kind} {name!r}")


class OperatorNotInDialectError(ModalkitError):
    """A formula uses an operator the active dialect does not provide."""

    def __init__(self, operator: str, dialect: str):
        self.operator = operator
        self.dialect = dialect
        super().__init__(f"operator {operator!r} is not part of dialect {dialect!r}")


class UnknownWorldError(ModalkitError):
    """A world id does not occur in the model."""

    def __init__(self, world: str):
        self.world = world
        super().__init__(f"unknown world {world!r}")


class ModelFormatError(ModalkitError):
    """A model file is malformed. line is 1-based."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class InvariantViolationError(ModalkitError):
    """A structure violates one of its declared invariants."""


class UnassignedNominalError(ModalkitError):
    """A nominal is mentioned by a formula but not assigned by the model."""

    def __init__(self, nominal: str):
        self.nominal = nominal
        super().__init__(f"nominal {nominal!r} is not assigned by the model")


class UnboundVariableError(ModalkitError):
    """First-order evaluation hit a variable the assignment does not cover."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"unbound variable {variable!r}")


class UnknownSymbolError(ModalkitError):
    """First-order evaluation hit a predicate/relation/constant the structure lacks."""

    def __init__(self, symbol: str):
        self.symbol = symbol
        super().__init__(f"unknown symbol {symbol!r}")


class ShapeMismatchError(ModalkitError):
    """A first-order structure is not in the image of the model translation."""


class StateSpaceExceededError(ModalkitError):
    """A search would materialize more states than allowed; the message names them."""

    def __init__(self, limit: int, space: str = "configuration pair space"):
        self.limit = limit
        super().__init__(f"{space} exceeds the limit of {limit}")


class BudgetExceededError(ModalkitError):
    """Formula enumeration ran out of budget before exhausting the requested depth."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"enumeration budget exhausted after {count} formulas")


class UnsupportedFeaturesError(ModalkitError):
    """An operation only defined for a fragment was applied outside it."""


class IllegalMoveError(ModalkitError):
    """A scripted game move is not legal in the current state. index is 0-based."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"move {index}: {reason}")
