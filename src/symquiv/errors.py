"""Exception hierarchy shared by all symquiv modules."""


class SymquivError(Exception):
    """Base class for all library errors."""


class NotCartanError(SymquivError):
    """Matrix violates the Cartan conditions (diagonal 2, nonpositive off-diagonal)."""


class NotSymmetrizerError(SymquivError):
    """D*C is not symmetric."""


class NonPositiveSymmetrizerError(SymquivError):
    """Symmetrizer entries must be positive integers."""


class NotDynkinError(SymquivError):
    """Operation requires a Cartan matrix of Dynkin (finite) type."""


class NotOrientationError(SymquivError):
    """Invalid orientation (wrong edge set or oriented cycle)."""


class BadArgumentError(SymquivError):
    """A command-line value does not parse, or does not fit the datum."""


class NotSinkOrSourceError(SymquivError):
    """Vertex is not a sink (resp. source) of the oriented quiver."""


class NotReducedError(SymquivError):
    """Word is not a reduced expression (its root sequence leaves the positive cone)."""


class ShapeMismatchError(SymquivError):
    """Matrix data of a module has inconsistent shapes."""


class SpecMismatchError(SymquivError):
    """Operands live over different algebra specifications."""


class NotLocallyFreeError(SymquivError):
    """Module is not locally free where the operation requires it."""


class NotNilpotentError(SymquivError):
    """A loop matrix eps is not nilpotent, so it has no Jordan chain form."""


class InternalMismatchError(SymquivError):
    """Two independent computation routes disagree (a bug, never expected), or
    a randomized search was inconclusive: the answer is unknown, not false."""


class TooLargeError(SymquivError):
    """Enumeration would exceed the configured budget."""


class InterpolationError(SymquivError):
    """Point counts do not fit a single integer polynomial within the degree bound."""


class PrimePoolExhaustedError(InterpolationError):
    """The sample primes ran out before the fit stabilized; the answer is unknown."""


class PrimeReductionError(SymquivError):
    """Integral model has a denominator divisible by the sample prime."""


class UndefinedValueError(SymquivError):
    """Requested quantity is undefined for this input (e.g. phi on a non-free socle)."""
