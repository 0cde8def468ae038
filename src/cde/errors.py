"""Exception types shared across the package."""


class CdeError(Exception):
    """Base class for all library errors."""


class DomainError(CdeError):
    """An argument lies outside the mathematical domain of the operation."""


class EmptyPosetError(CdeError):
    """A statistic was requested on the empty poset."""


class CycleError(CdeError):
    """The cover digraph contains a directed cycle."""


class NotReducedError(CdeError):
    """A cover relation is implied by other covers (names the offender)."""

    def __init__(self, cover):
        self.cover = cover
        super().__init__(f"cover {cover} is implied by other covers")


class SizeError(CdeError):
    """A builder received a degenerate size parameter."""


class CapacityError(CdeError):
    """An enumeration would exceed the configured capacity bound."""


class NotCoverError(CdeError):
    """The given pair is not a covering relation."""


class RangeError(CdeError):
    """An index argument is out of its allowed range."""


class NotCornerError(CdeError):
    """The given cell is not a corner of the shape where one is required."""


class MalformedInputError(CdeError):
    """Structurally invalid input (tableau, flag, file, ...)."""


class NotBarelySetValuedError(MalformedInputError):
    """Expected a tableau with exactly one two-element cell and one entry in
    every other cell."""


class NotVexillaryError(CdeError):
    """The operation is only defined for vexillary permutations."""


class ReconciliationError(CdeError):
    """Two independent computations of the same number disagree."""


class UnknownSuiteError(CdeError):
    """No verification suite with the requested id exists."""
