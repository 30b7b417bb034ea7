"""Run the four lemma verifications on canned inputs and print the reports.

Run: python scripts/lemma_report.py [seed]
"""

import sys

from implisolve import Matrix, parse
from implisolve.verify import (
    check_chain_rule,
    check_operator_bound,
    injectivity_radius,
    mvt_witness,
)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0

    m = Matrix.from_rows([[0.3, -1.2], [0.8, 0.1], [2.0, -0.5]])
    print("operator bound:", check_operator_bound(m, trials=1000, rng_seed=seed))

    F = parse(["x1^2 + x2", "x1*x2"], ["x1", "x2"])
    samples = [(-0.8,), (-0.2,), (0.4,), (1.0,)]
    print(
        "chain rule:   ",
        check_chain_rule(F, Matrix.from_rows([[2.0], [0.5]]), (0.0, 1.0), samples),
    )

    cubic = parse(["x^3"], ["x"])
    print("mvt witness:  ", mvt_witness(cubic, (0.0,), (1.0,)))

    square_map = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
    print("injectivity:  ", injectivity_radius(square_map, (1.0, 1.0), rng_seed=seed))


if __name__ == "__main__":
    main()
