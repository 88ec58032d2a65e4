"""Exception types shared across the package."""


class MatpowError(Exception):
    """Base class for all package-specific errors."""


class CompositeModulus(MatpowError):
    """The modulus is not an odd prime."""


class ZeroElement(MatpowError):
    """A nonzero field element was required."""


class WrongDegree(MatpowError):
    """Operation applied to a field of the wrong extension degree."""


class MixedContext(MatpowError):
    """Operands belong to different field contexts."""


class UnsupportedDimension(MatpowError):
    """Eigenvalue analysis is only implemented for n <= 3."""


class OrderCapExceeded(MatpowError):
    """Multiplicative order search passed the iteration cap."""


class ZeroVector(MatpowError):
    """A nonzero vector was required."""


class BudgetExceeded(MatpowError):
    """Requested computation exceeds the configured work cap."""

    def __init__(self, message: str, estimated_work: int | None = None):
        super().__init__(message)
        self.estimated_work = estimated_work


def over_budget(what: str, measure: int, cap: int, budget: float = 1.0,
                work: int | None = None) -> BudgetExceeded | None:
    """The BudgetExceeded of a job whose measure passes its cap scaled by
    budget, max(1, int(cap * budget)), with work (default: the measure) as
    its estimated work; None when the job may run."""
    limit = max(1, int(cap * budget))
    if measure <= limit:
        return None
    return BudgetExceeded(f"{what} = {measure} exceeds the cap {limit}",
                          estimated_work=measure if work is None else work)


class ZeroXi1(MatpowError):
    """The first product-equation coefficient must be nonzero."""


class ZeroLambda(MatpowError):
    """Product-equation bases must be nonzero."""


class DegenerateParameters(MatpowError):
    """Parameters violate a nondegeneracy precondition."""


class SingularLowerLeft(MatpowError):
    """Cat-map lower-left entry is not invertible mod N."""


class EvenModulus(MatpowError):
    """Cat-map quantization requires an odd modulus."""


class NonRealObservable(MatpowError):
    """Observable lacks the real-symmetry property."""


class DependentVectors(MatpowError):
    """Vectors required to be linearly independent are dependent."""


class ConfigError(MatpowError):
    """Experiment configuration could not be parsed or validated."""


class InvariantViolated(MatpowError):
    """An internal result failed a cheap consistency check."""


class UndecidedVerdict(MatpowError):
    """A certified bracket straddles the bound, so neither pass nor fail holds."""
