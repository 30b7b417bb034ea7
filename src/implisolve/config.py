"""Solver configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the scalar and system solvers.

    h0 is the initial box half-width on independent axes; h0_dep overrides
    it on the dependent axes (useful when the solution range is asymmetric,
    e.g. inverting exp). grid_density is the number of samples per axis
    used in box validation: the monotonicity check samples the closed box
    including its corners, the endpoint-sign check samples strictly
    interior points of the open independent box.
    """

    tol_seed: float = 1e-10
    tol_root: float = 1e-12
    tol_sys: float = 1e-9
    max_iter: int = 200
    h0: float = 0.5
    h0_dep: float | None = None
    grid_density: int = 9
    max_shrink: int = 40
    max_depth: int = 6

    def __post_init__(self):
        # "not > 0" also rejects NaN
        if not self.h0 > 0 or (self.h0_dep is not None and not self.h0_dep > 0):
            raise ValueError("box half-widths must be positive")
        if self.grid_density < 2:
            raise ValueError("grid_density must be at least 2")
        for name in ("tol_seed", "tol_root", "tol_sys"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name, least in (("max_iter", 1), ("max_shrink", 0), ("max_depth", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")

    @property
    def dep_halfwidth(self) -> float:
        return self.h0 if self.h0_dep is None else self.h0_dep
