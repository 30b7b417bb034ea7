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


class BoxNotFound(ImpliSolveError):
    """Box search exhausted its shrink budget. Carries the failing sample."""

    def __init__(self, condition: str, sample, level: int | None = None):
        self.condition = condition
        self.sample = sample
        self.level = level
        at = f" at recursion level {level}" if level is not None else ""
        super().__init__(
            f"no validated box{at}: {condition} failed at sample {sample}"
        )


class OutsideBox(ImpliSolveError):
    """A query point lies outside the validated box."""

    def __init__(self, point, level: int | None = None):
        self.point = tuple(point)
        self.level = level
        at = f" (recursion level {level})" if level is not None else ""
        super().__init__(f"point {self.point} outside validated box{at}")


class NoConvergence(ImpliSolveError):
    """The root search failed inside a supposedly validated box, which means
    grid sampling was fooled."""

    def __init__(self, detail: str, level: int | None = None):
        self.level = level
        at = f" (recursion level {level})" if level is not None else ""
        super().__init__(f"{detail}{at}")


class NoSignChange(ImpliSolveError):
    """The mean-value witness scan found no sign change at grid resolution."""

    def __init__(self, min_abs: float):
        super().__init__(
            f"no sign change on the scan grid; min |g| attained {min_abs:g}"
        )
        self.min_abs = min_abs


class DegenerateJacobian(ImpliSolveError):
    """det JF(p) vanishes at the base point."""


class RadiusUnderflow(ImpliSolveError):
    """Radius halving fell below the floor without passing the sampling test."""

    def __init__(self, radius: float):
        super().__init__(f"radius underflow at r = {radius:g}")
        self.radius = radius
