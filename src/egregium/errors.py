"""Exception hierarchy shared by all modules.

Two families matter to the CLI: `InputError` (bad text, bad flags) maps to
exit code 2, `NumericError` (degenerate geometry, failed convergence) maps
to exit code 3.
"""


class GeometryError(Exception):
    pass


class InputError(GeometryError):
    pass


class NumericError(GeometryError):
    pass


# --- evaluation / jets ---

class DomainError(NumericError):
    """Argument outside the real domain of an elementary function."""


class DivisionByZero(NumericError):
    pass


# --- expression language ---

class UnboundVariable(InputError):
    pass


# --- curves ---

class SingularPoint(NumericError):
    """Parametric curve point with vanishing velocity."""


class NotOnCurve(NumericError):
    pass


class SingularGradient(NumericError):
    pass


class CoincidentPoints(NumericError):
    pass


class ZeroCurvature(NumericError):
    """Osculating circle degenerates to a line."""


# --- surfaces ---

class DegenerateParametrization(NumericError):
    """Cross product of the coordinate tangents vanishes (not an immersion)."""


class NotOnSurface(NumericError):
    pass


class DegenerateAngle(NumericError):
    """Oblique section plane collapses onto the tangent plane."""


# --- intrinsic metrics ---

class DegenerateMetric(NumericError):
    """E, G or EG - F^2 not positive at an evaluation point."""


class NotIsometric(NumericError):
    """Metric residuals exceed the isometry tolerance; check refused."""


# --- geodesics ---

class StepTooLarge(NumericError):
    """Energy drift guard tripped during geodesic integration."""


class NoConvergence(NumericError):
    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class RegionNotSimple(NumericError):
    pass


class NotRevolution(NumericError):
    pass


# what evaluating an expression at a point can raise: the errors above
# (libm outside its domain, math.sin(inf), is a DomainError) and a bare
# ArithmeticError
EVALUATION_ERRORS = (GeometryError, ArithmeticError)
