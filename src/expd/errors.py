"""Exception hierarchy shared across the package.

Every error deliberately raised by the library is an InputError or a
CapacityError, so the CLI maps it to its exit code (3 = input, 4 = budget).
"""


class ExpdError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ExpdError):
    """Malformed input: bad indices, mismatched universes, bad parameters."""


class ParameterError(InputError):
    """A numeric parameter is outside its admissible range."""


class CapacityError(ExpdError):
    """A requested object exceeds a configured size budget."""


class BudgetError(CapacityError):
    """A run-level cell budget was exceeded."""


class SyntaxError_(InputError):
    """Relation-expression syntax error, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
