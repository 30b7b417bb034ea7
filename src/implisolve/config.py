"""Solver configuration."""

from __future__ import annotations

import sys
from dataclasses import dataclass

# Largest grid_density SolverOptions accepts. A validation attempt samples
# grid_density^(n+1) points, so even this cap is far beyond practical use;
# find_box also caps the points per attempt (scalar_implicit.MAX_GRID_SAMPLES).
MAX_GRID_DENSITY = 10_000


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the scalar and system solvers.

    tol_sys bounds the residual max |F| of every answer solve_at returns
    and of every seed a build accepts, so any answer is a valid seed. h0 is
    the initial box half-width on independent axes; h0_dep overrides it on
    the dependent axes (useful when the solution range is asymmetric, e.g.
    inverting exp). grid_density is the number of samples per axis used in
    box validation: the monotonicity check reads the closed box including
    its corners, the endpoint-sign check strictly interior points of the
    open independent box. Where an interval proof settles a check over
    the points it reads, they are not sampled (scalar_implicit.find_box);
    the endpoint-sign proof keeps tol_sys as its margin for the error of a
    computed value. Each real field must be an int or a float, not a
    bool, in (0, sys.float_info.max], and grid_density an int in
    [2, MAX_GRID_DENSITY]; otherwise ValueError names the field.

    ITP returns the midpoint of a bracket no wider than tol_root, so an
    answer's residual can reach |dF/dy| * tol_root / 2, and solve_at raises
    NoConvergence where that exceeds tol_sys: with the defaults, once
    |dF/dy| passes 2 * tol_sys / tol_root = 2000. README's Options
    paragraph gives measured failure rates; raise tol_sys or lower
    tol_root for such an F.

    The root finders need no iteration budget: ITP ends within its own
    step bound and the chord (simplified Newton) iteration of a system
    query within dini._NEWTON_MAX_ITER steps, both also stopping where
    floats cannot resolve tol_root. The box-halving cap and the cap
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
        if g > MAX_GRID_DENSITY:
            raise ValueError(f"grid_density must be at most {MAX_GRID_DENSITY}")
