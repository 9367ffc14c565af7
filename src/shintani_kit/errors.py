"""Exception taxonomy for the package.

Every failure mode that a caller might want to catch individually gets its
own class; everything derives from ShintaniKitError so a CLI can catch the
lot in one clause.
"""

from __future__ import annotations


class ShintaniKitError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(ShintaniKitError):
    """A matrix that was required to be invertible is singular."""


class DegenerateTuple(ShintaniKitError):
    """A matrix tuple fails the independence condition needed for a cone."""


class ZeroVector(ShintaniKitError):
    """A nonzero vector was required."""


class ZeroDirection(ShintaniKitError):
    """A line direction must be nonzero."""


class UnboundedEnumeration(ShintaniKitError):
    """A lattice-point enumeration exceeded its safety bound."""


class NotAwayFromP(ShintaniKitError):
    """A test function is not certified as unramified at p."""


class NonUnitScaling(ShintaniKitError):
    # cone generator cannot be scaled into the invariance lattice
    # with a p-unit multiplier
    pass


class PoleDetected(ShintaniKitError):
    """A pseudo-measure has a genuine pole: it is not a measure."""


class RouteDisagreement(ShintaniKitError):
    """Two independent measure criteria disagree; do not trust either."""


class PrecisionExhausted(ShintaniKitError):
    """Requested quantity is not determined at the working precision."""


class GuardTripped(ShintaniKitError):
    """An internal sanity guard failed; results would be unreliable."""


class ZeroConstantTerm(ShintaniKitError):
    """Series inversion requires an invertible constant term."""


class NotInPositiveOrthant(ShintaniKitError):
    """Cone generators must have positive values under every norm form."""


class IrrationalResidue(ShintaniKitError):
    """A value that must be rational came out with a nonzero surd part."""


class OutOfCaps(ShintaniKitError):
    """Requested coefficient lies outside the series truncation caps."""


class ClassSearchExhausted(ShintaniKitError):
    """Ideal class enumeration hit its guard before completing."""


class BadSmoothingData(ShintaniKitError):
    """Smoothing parameters violate the coprimality requirements."""
