import os
from dataclasses import dataclass

import pytest
from hypothesis import settings

from implisolve import ExprFunction, SolverOptions, SplitPoint, build_system, parse

# HYPOTHESIS_PROFILE=ci runs every property test with 500 examples
settings.register_profile("default", deadline=None, max_examples=60)
settings.register_profile("ci", deadline=None, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@dataclass(frozen=True)
class Problem:
    name: str
    F: ExprFunction
    seed: SplitPoint
    options: SolverOptions


# Corpus used by the Jacobian-formula and Newton-equivalence suites:
# m in {1, 2, 3}, mixing polynomial and transcendental terms.
CORPUS = [
    Problem(
        "circle",
        parse(["x^2 + y^2 - 1"], ["x", "y"]),
        SplitPoint.of([0.0], [1.0]),
        SolverOptions(h0=0.8),
    ),
    Problem(
        "sin_cubic",
        parse(["sin(x) + y^3 + y"], ["x", "y"]),
        SplitPoint.of([0.0], [0.0]),
        SolverOptions(),
    ),
    Problem(
        "log_curve",
        parse(["ln(y) + x"], ["x", "y"]),
        SplitPoint.of([0.0], [1.0]),
        SolverOptions(),
    ),
    Problem(
        "quad_pair",
        parse(["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"]),
        SplitPoint.of([1.0], [1.0, 1.0]),
        SolverOptions(),
    ),
    Problem(
        "exp_pair",
        parse(["exp(y1) + y2 - x - 2", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"]),
        SplitPoint.of([0.0], [0.0, 1.0]),
        SolverOptions(),
    ),
    Problem(
        "cubic_triple",
        parse(
            [
                "y1^2 + y2 + y3 - x - 2",
                "y1 + y2^2 + y3 - x - 2",
                "y1 + y2 + y3^2 - x - 2",
            ],
            ["x", "y1", "y2", "y3"],
        ),
        SplitPoint.of([1.0], [1.0, 1.0, 1.0]),
        SolverOptions(),
    ),
]


@pytest.fixture(scope="session")
def corpus_systems():
    """(problem, built system) pairs, built once per session."""
    return [(p, build_system(p.F, p.seed, p.options)) for p in CORPUS]


def interior_grid(system, count, margin=0.2):
    """count points along each independent axis, well inside the box
    intersection (margin leaves room for finite-difference probes)."""
    lo, hi = system.x_box()
    axes = []
    for a, b in zip(lo, hi):
        width = b - a
        lo_i = a + margin * width
        hi_i = b - margin * width
        axes.append(
            [lo_i + i * (hi_i - lo_i) / (count - 1) for i in range(count)]
        )
    import itertools

    return list(itertools.product(*axes))
