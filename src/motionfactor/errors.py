"""Exception hierarchy and warning categories."""


class MotionFactorError(Exception):
    """Base class for all domain errors raised by this package."""


class NotInGroup(MotionFactorError):
    """Dual quaternion does not represent a rigid displacement (norm not a nonzero real)."""


class NotLinearMotion(MotionFactorError):
    """t - h is not a linear motion polynomial."""


class ExceptionalPoint(MotionFactorError):
    """Projective point has zero primal part and lies in the exceptional 3-space."""


class NotOnStudyQuadric(MotionFactorError):
    """Study condition defect exceeds tolerance."""


class NonFiniteCoefficient(MotionFactorError):
    """Polynomial has a NaN or infinite coefficient."""


class NonRealNorm(MotionFactorError):
    """Dual part of the norm polynomial does not vanish."""


class ZeroNorm(MotionFactorError):
    """Norm polynomial is identically zero."""


class NonInvertibleLeading(MotionFactorError):
    """Leading coefficient has zero primal part and cannot be inverted."""


class NonInvertibleDivisorLeading(NonInvertibleLeading):
    """Divisor of a polynomial division has a non invertible leading coefficient."""


class NotMonic(MotionFactorError, ValueError):
    """Polynomial must be monic (leading coefficient one) for this operation."""


class NotQuaternionPolynomial(MotionFactorError, ValueError):
    """Polynomial has a nonzero dual part where a quaternion polynomial is required."""


class NotNonnegative(MotionFactorError):
    """Real polynomial takes negative values on the real line."""


class OddDegree(MotionFactorError):
    """Real polynomial has odd degree where an even one is required."""


class ExceptionalCase(MotionFactorError):
    """Generic factorization step hit a remainder it cannot invert."""


class ConstantRemainder(ExceptionalCase):
    """Division remainder is constant, so no linear zero exists."""


class Unbounded(MotionFactorError):
    """Motion has unbounded trajectories (norm polynomial has real roots)."""


class UnboundedCurve(Unbounded):
    """Curve denominator has real roots."""


class InvalidCurve(MotionFactorError, ValueError):
    """Curve v/w has a zero denominator, deg v > deg w, or v and w share a real factor."""


class FactorizationNotFound(MotionFactorError):
    """A pipeline step required a factorization that the search did not produce."""


class DegeneratePoses(MotionFactorError):
    """Pose triple is not in general position."""


class NonGenericConic(MotionFactorError):
    """Interpolating conic violates the genericity hypothesis of the factorization."""


class DegenerateFlip(MotionFactorError):
    """Flip input pair has coinciding norm quadratics or no unique solution."""


class InsufficientFactorizations(MotionFactorError):
    """Loop construction needs at least two distinct factorizations."""


class ClosureMismatch(MotionFactorError):
    """Left and right chains of a loop do not multiply to the same polynomial."""


class SingularParameter(MotionFactorError):
    """Parameter value too close to a real root of an involved norm polynomial."""


class NotPlanar(MotionFactorError):
    """Linkage is not planar, requested export needs a common axis direction."""


class NumericalConditionWarning(UserWarning):
    """Result is numerically ill conditioned (for example nearly multiple roots)."""
