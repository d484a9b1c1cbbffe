"""Exception types shared across the package."""


class AltrunError(Exception):
    """Base class for all library-specific errors."""


class NotDivisible(AltrunError):
    """Exact polynomial division left a nonzero remainder."""


class ZeroPolynomial(AltrunError):
    """Operation undefined for the zero polynomial."""


class SupportOutOfRange(AltrunError):
    """Polynomial has terms outside the stated degree window."""


class NotSymmetric(AltrunError):
    """Polynomial is not symmetric on the stated window."""


class UnknownSymbol(AltrunError):
    """Letter not present in the working alphabet."""


class NotOfExpectedShape(AltrunError):
    """Derivative image does not factor as seed * homogeneous part."""


class DiscriminantMismatch(AltrunError):
    """Arithmetic mixed quadratic-extension elements over different radicals."""


class SizeLimit(AltrunError):
    """Enumeration would exceed the configured object budget."""


class StatClassMismatch(AltrunError):
    """Statistic not defined for this class of objects."""


class InvalidStirlingWord(AltrunError):
    """Word violates the Stirling nesting condition."""


class NonInvertibleConstantTerm(AltrunError):
    """Series division needs an invertible constant term."""


class BadConstantTerm(AltrunError):
    """Series operation requires constant term 0 (exp) or 1 (log/sqrt/pow)."""


class UnknownFamily(AltrunError):
    """No triangle or polynomial family with this name."""
