"""Exception types shared across the package."""

from __future__ import annotations


class ImpliSolveError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(ImpliSolveError):
    """Malformed expression text. Carries the 0-based character position,
    and parse sets component to the index of the text it was reading."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position
        self.component: int | None = None


class UnknownIdentifier(ImpliSolveError):
    """An expression references a name that is neither a declared variable
    nor a supported function. Carries position and component as
    ExprSyntaxError does."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}' (position {position})")
        self.name = name
        self.position = position
        self.component: int | None = None


class DomainError(ImpliSolveError):
    """Evaluation left the domain of definition (division by zero, log of a
    nonpositive number, and so on)."""

    def __init__(self, reason: str, component: int, subexpr: str):
        super().__init__(f"component {component}: {reason} in '{subexpr}'")
        self.reason = reason
        self.component = component
        self.subexpr = subexpr


class DimensionMismatch(ImpliSolveError):
    """Operand shapes are inconsistent."""


class NotSquare(ImpliSolveError):
    """A square matrix was required."""


class SingularMatrix(ImpliSolveError):
    """A pivot fell below the singularity threshold."""


class SeedNotOnZeroSet(ImpliSolveError):
    """The seed point does not satisfy F(a, b) = 0 within tolerance."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"seed residual {residual:g} exceeds tolerance {tol:g}"
        )
        self.residual = residual


class DegenerateDerivative(ImpliSolveError):
    """The dependent-variable derivative vanishes at the seed."""


class _LevelError(ImpliSolveError):
    """A failure the system solver tags with the recursion level it came
    from, after it is raised; once set, the level ends the message."""

    level: int | None = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.level is None else f"{text} (recursion level {self.level})"


class BoxNotFound(_LevelError):
    """Box search exhausted its shrink budget. Carries the failing sample."""

    def __init__(self, condition: str, sample):
        self.condition = condition
        self.sample = sample
        super().__init__(f"no validated box: {condition} failed at sample {sample}")


class OutsideBox(_LevelError):
    """A query point lies outside the validated box."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"point {self.point} outside validated box")


class NoConvergence(_LevelError):
    """The root search failed inside a supposedly validated box, which means
    grid sampling was fooled."""


class NoSignChange(ImpliSolveError):
    """No sign change of g on the mean-value witness scan grid (min_abs: its
    least |g|), or |g| = min_abs at the root t found exceeds tol (g jumps
    across 0 where F is not differentiable)."""

    def __init__(self, min_abs: float, t: float | None = None, tol: float = 0.0):
        super().__init__(
            f"no sign change on the scan grid; min |g| attained {min_abs:g}"
            if t is None
            else f"|g| = {min_abs:g} at the root found, t = {t!r}, exceeds tolerance {tol:g}"
        )
        self.min_abs = min_abs


class DegenerateJacobian(ImpliSolveError):
    """det JF(p) at the base point is within 1e-12 of 0, or not finite."""


class RadiusUnderflow(ImpliSolveError):
    """Radius halving fell below the floor with no certificate and without
    passing the sampling test."""

    def __init__(self, radius: float):
        super().__init__(f"radius underflow at r = {radius:g}")
        self.radius = radius
