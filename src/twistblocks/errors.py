"""Exception hierarchy shared by all modules."""


class VerlindeError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedType(VerlindeError):
    """Lie type / rank outside the supported table."""


class NonDominant(VerlindeError):
    """A weight that must be dominant has a negative coordinate."""


class IllegalPair(VerlindeError):
    """(ambient algebra, automorphism kind) is not a legal combination."""


class NotInAlphabet(VerlindeError):
    """Weight does not belong to the required level alphabet."""


class UnstableInput(VerlindeError):
    """Curve data violates the stability constraint."""


class InconsistentRamification(VerlindeError):
    """Riemann-Hurwitz data does not define a non-negative integer genus."""


class IntegralityError(VerlindeError):
    """A computed dimension is negative, its CRT lift fails the check prime,
    or its torus-point phases are past float64's exact range."""


class SchemaError(VerlindeError):
    """Structured request/report text violates the schema."""


class UnsupportedCombination(VerlindeError):
    """Request combines options that no pipeline supports."""
