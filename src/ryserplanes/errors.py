"""Exception types shared across the package."""


class NotPrimePower(ValueError):
    """The requested order is not p**k for a prime p (or is out of range)."""


class SamePoint(ValueError):
    """Two distinct points were required."""


class NotSquareOrder(ValueError):
    pass


class NotAnArc(ValueError):
    pass


class NotOddPrime(ValueError):
    pass


class NuTooSmall(ValueError):
    pass


class QTooSmall(ValueError):
    pass


class InfeasibleChoice(RuntimeError):
    """A constrained canonical point search ran out of candidates."""


class ArityMismatch(ValueError):
    pass


class UnknownEdge(ValueError):
    pass


class SearchTooLarge(ValueError):
    """The requested brute-force search is beyond the supported budget."""
