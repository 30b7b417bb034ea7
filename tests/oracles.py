"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own evaluation paths: residuals
come from the reference tree walker (expr._walk), not the compiled kernel,
Jacobians are centered finite differences and the root finder is a damped
Newton iteration on top of numpy. They exist to cross-check the bracketing
solvers and are not part of the package API.
"""

from __future__ import annotations

import numpy as np

from implisolve.expr import _walk


def fd_jacobian(f, x, h=1e-7):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h)
    return jac


def damped_newton(f, y0, tol=1e-13, max_iter=200):
    """Newton iteration with step halving; raises RuntimeError when stuck."""
    y = np.asarray(y0, dtype=float).copy()
    r = np.asarray(f(y), dtype=float)
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            return y
        jac = fd_jacobian(f, y)
        step = np.linalg.solve(jac, -r)
        t = 1.0
        while t >= 1e-8:
            cand = y + t * step
            rc = np.asarray(f(cand), dtype=float)
            if np.linalg.norm(rc) < np.linalg.norm(r) or np.max(np.abs(rc)) <= tol:
                y, r = cand, rc
                break
            t /= 2
        else:
            raise RuntimeError("newton oracle stalled")
    if np.max(np.abs(r)) <= tol * 10:
        return y
    raise RuntimeError("newton oracle did not converge")


def newton_solve_system(expr_fn, x, y0, tol=1e-13):
    """Solve expr_fn(x, y) = 0 for y, starting from y0."""
    x = tuple(float(v) for v in x)

    def residual(y):
        env = dict(zip(expr_fn.variables, x + tuple(float(v) for v in y)))
        return [_walk(component, env) for component in expr_fn.components]

    return damped_newton(residual, y0, tol=tol)
