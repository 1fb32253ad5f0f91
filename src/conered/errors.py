"""Exception hierarchy.

Three families matter to callers (and to the CLI exit-code mapping):
input/format problems, numerical failures, and infeasible configurations.
Configuration errors are also ValueErrors, so callers that validate
arguments the usual Python way catch them too.
"""


class ConeredError(Exception):
    """Base class for all library errors."""


class InputFormatError(ConeredError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


class NumericalError(ConeredError):
    """A numerical procedure failed or hit a degenerate input (CLI exit code 4)."""


class ConfigError(ConeredError, ValueError):
    """The requested configuration cannot be satisfied (CLI exit code 5)."""


class ParseError(InputFormatError):
    """A matrix file could not be parsed.

    Carries the path plus a 1-based line number and, where known, a 1-based
    field offset within that line.
    """

    def __init__(self, message, path=None, line=None, offset=None):
        self.path = path
        self.line = line
        self.offset = offset
        where = ""
        if path is not None:
            where += f" [{path}"
            if line is not None:
                where += f":{line}"
                if offset is not None:
                    where += f":{offset}"
            where += "]"
        super().__init__(message + where)


class DimensionMismatch(InputFormatError):
    """Operands have incompatible shapes."""


class NonFiniteInput(InputFormatError):
    """An operand holds a NaN or an infinity."""


class ZeroColumn(NumericalError):
    """A column with zero L1 norm cannot be normalized."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column} has zero L1 norm")


class DegenerateVector(NumericalError):
    """A vector became (numerically) constant after mean removal."""


class DegenerateDiagonal(NumericalError):
    """Too few nonzero diagonal entries to seed the requested clusters."""


class DuplicateMatch(NumericalError):
    """Two reference endmembers matched the same data column."""


class MaxIterations(NumericalError):
    """An iterative solver exceeded its iteration cap."""


class NumericalBreakdown(NumericalError):
    """A solve produced non-finite values or a singular system."""


class BadRank(ConfigError):
    """The requested rank is outside the valid range for the operand."""


class BadParameter(ConfigError):
    """A setting is outside its valid range (a count below its minimum, or a
    tolerance that is not a positive finite number)."""


class RankTooLarge(ConfigError):
    """The requested rank exceeds min(d, n)."""


class TooManyColumns(ConfigError):
    """Exact computation is capped (sign-pattern enumeration, r <= 12)."""


class KSmallerThanR(ConfigError):
    """The candidate index set has fewer than r elements."""


class InsufficientColumns(ConfigError):
    """Not enough columns left to draw the requested augmentation."""


class ZeroNoise(ConfigError):
    """A positive noise intensity was requested but the stored V is zero."""
