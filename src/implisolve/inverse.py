"""Local inverse of a square map via the implicit solver.

To invert F near p, solve the system Phi(y; x) = F(x) - y = 0 for x as a
function of y, seeded at (F(p); p). The independent block is y and the
dependent block is x, so the generic system machinery applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import SolverOptions
from .dini import SystemSolution, build_system
from .errors import DimensionMismatch
from .expr import BinOp, ExprFunction, Var, fresh_names
from .linalg import Matrix, Vector, inverse as mat_inverse
from .scalar_implicit import SplitPoint


@dataclass(frozen=True)
class LocalInverse:
    """Evaluable local inverse G with G(F(x)) = x near p and F(G(y)) = y."""

    F: ExprFunction
    q: Vector
    system: SystemSolution

    def invert_at(self, y: Sequence[float]) -> Vector:
        """x = G(y) with |F(x) - y| <= tol_sys componentwise."""
        return self.system.solve_at(y)

    def inverse_jacobian_at(self, y: Sequence[float]) -> Matrix:
        """JG(y) = JF(G(y))^-1. The same matrix is reachable through the
        implicit system's jacobian_at; the two routes must agree."""
        x = self.invert_at(y)
        return mat_inverse(self.F.jacobian(x))

    def y_box(self) -> tuple[Vector, Vector]:
        """Validated box of invertible targets (independent box of the system)."""
        return self.system.x_box()


def build_inverse(
    F: ExprFunction, p: Sequence[float], options: SolverOptions = SolverOptions()
) -> LocalInverse:
    """Construct the local inverse of F at p.

    Requires F square (n components in n variables) and JF(p) invertible.
    """
    n = F.n_inputs
    if F.n_outputs != n:
        raise DimensionMismatch(
            f"inverse needs a square map, got {F.n_outputs} components "
            f"in {n} variables"
        )
    p = Vector(p)
    q = F.eval(p)

    y_names = fresh_names("y", n, F.variables)
    components = [
        BinOp("-", F.components[i], Var(y_names[i])) for i in range(n)
    ]
    phi = ExprFunction(components, y_names + list(F.variables))
    system = build_system(phi, SplitPoint(x=q, y=p), options)
    return LocalInverse(F=F, q=q, system=system)
