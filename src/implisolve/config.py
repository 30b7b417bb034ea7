"""Solver configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass


def _finite_positive(v: float) -> bool:
    # False for NaN too
    return 0 < v < math.inf


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the scalar and system solvers.

    h0 is the initial box half-width on independent axes; h0_dep overrides
    it on the dependent axes (useful when the solution range is asymmetric,
    e.g. inverting exp). grid_density is the number of samples per axis
    used in box validation: the monotonicity check samples the closed box
    including its corners, the endpoint-sign check samples strictly
    interior points of the open independent box.

    The root finders need no iteration budget: ITP ends within its own
    step bound and Newton within a fixed few steps, both also stopping
    where floats cannot resolve tol_root. The box-halving cap and the cap
    on the dependent dimension are the constants
    scalar_implicit.MAX_SHRINK and dini.MAX_DEPTH.
    """

    tol_seed: float = 1e-10
    tol_root: float = 1e-12
    tol_sys: float = 1e-9
    h0: float = 0.5
    h0_dep: float | None = None
    grid_density: int = 9

    def __post_init__(self):
        if not _finite_positive(self.h0) or (
            self.h0_dep is not None and not _finite_positive(self.h0_dep)
        ):
            raise ValueError("box half-widths must be finite and positive")
        if self.grid_density < 2:
            raise ValueError("grid_density must be at least 2")
        for name in ("tol_seed", "tol_root", "tol_sys"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive")
