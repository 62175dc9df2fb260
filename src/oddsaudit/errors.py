"""Exception hierarchy shared across the package."""


class ModelError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidModelError(ModelError):
    """A joint-distribution invariant is broken (negative mass, total != 1, bad shape)."""


class ModelFormatError(ModelError):
    """A model text file does not follow the line grammar."""


class ZeroProbabilityError(ModelError):
    """Conditioning on an event of probability zero."""


class DegeneratePriorError(ModelError):
    """An odds-based operation needs 0 < P(H_i) < 1 for the target hypothesis."""


class ImpossibleEvidenceError(ModelError):
    """An odds product collapsed to (0, 0): the observed evidence combination has
    probability zero both given the hypothesis and given its complement."""


class SweepLimitError(ModelError):
    """Grid enumeration exceeded the configured model budget.

    ``partial`` holds the tallies accumulated before the budget ran out.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
