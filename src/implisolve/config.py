"""Solver configuration."""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the scalar and system solvers.

    tol_sys bounds the residual max |F| of every answer solve_at returns
    and of every seed a build accepts, so any answer is a valid seed. h0 is
    the initial box half-width on independent axes; h0_dep overrides it on
    the dependent axes (useful when the solution range is asymmetric, e.g.
    inverting exp). grid_density is the number of samples per axis used in
    box validation: the monotonicity check samples the closed box including
    its corners, the endpoint-sign check samples strictly interior points
    of the open independent box. Each real field must be an int or a
    float, not a bool, in (0, sys.float_info.max], and grid_density an int
    of at least 2; otherwise ValueError names the field.

    The root finders need no iteration budget: ITP ends within its own
    step bound and Newton within a fixed few steps, both also stopping
    where floats cannot resolve tol_root. The box-halving cap and the cap
    on the dependent dimension are the constants
    scalar_implicit.MAX_SHRINK and dini.MAX_DEPTH.
    """

    tol_root: float = 1e-12
    tol_sys: float = 1e-9
    h0: float = 0.5
    h0_dep: float | None = None
    grid_density: int = 9

    def __post_init__(self):
        for name in ("tol_root", "tol_sys", "h0", "h0_dep"):
            v = getattr(self, name)
            if v is None and name == "h0_dep":
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must be an int or a float, got {type(v).__name__}")
            # False for NaN too
            if not 0 < v <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and positive")
        g = self.grid_density
        if isinstance(g, bool) or not isinstance(g, int):
            raise ValueError(f"grid_density must be an int, got {type(g).__name__}")
        if g < 2:
            raise ValueError("grid_density must be at least 2")
