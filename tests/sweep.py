"""The seeded robustness sweep over the hypothesis space (H1)-(H4).

    python tests/sweep.py

solves every config of `configs()` and prints, per failing config, its
failed level and message, then the number of solved configs and of solved
levels, and the iterations and factorizations that the solved levels took
in all, so a change of the walker shows its cost over the whole space.
The package is imported from this checkout's `src/`.

The recipe, in draw order, with `np.random.default_rng(7)` and each value
rounded to 2 decimals as drawn:
- dim in {1, 2}; p ~ U(max(dim + 0.05, 1.25), 5); q ~ U(1.1, p - 0.05);
  a0 ~ U(0.6, 3);
- with probability 1/2 a constant weight a0, else a quadratic weight with
  base a0 and coef ~ U(0, 2);
- with probability 0.7 a saturating convection with alpha ~ U(1, min(p, 4)),
  h_bound ~ U(0, 2) and offset ~ U(-3, 3), else a constant ~ U(-12, 12);
- with probability 0.6 the competing variant, else the cooperative one.
A draw that `build_problem` rejects is redrawn.  `solve` runs a 1D config
on the unit interval at 4 cells with 6 levels and a 2D one on the unit
square at 4 x 4 with 4 levels, at seed 0.
"""

import sys
from pathlib import Path

import numpy as np

SEED = 7
COUNT = 100

SQUARE = {"kind": "rectangle", "bounds": [[0.0, 1.0], [0.0, 1.0]]}
INTERVAL = {"kind": "interval", "bounds": [0.0, 1.0]}


def constant(value):
    return {"kind": "constant", "value": value}


def quadratic(base, coef):
    return {"kind": "quadratic", "base": base, "coef": coef}


def saturating(alpha, h_bound, offset):
    return {"kind": "saturating", "alpha": alpha, "h_bound": h_bound,
            "offset": offset}


def problem(variant, p, q, weight, convection, domain=SQUARE):
    return {"p": p, "q": q, "domain": domain, "variant": variant,
            "weight": weight, "convection": convection}


def configs(count: int = COUNT) -> dict:
    """The first `count` configs of the sweep, as problem blocks by id
    s000, s001, ..."""
    from pqgalerkin.cli import build_problem

    rng = np.random.default_rng(SEED)

    def draw(lo, hi):
        return round(float(rng.uniform(lo, hi)), 2)

    out = {}
    while len(out) < count:
        dim = int(rng.integers(1, 3))
        p = draw(max(dim + 0.05, 1.25), 5.0)
        q = draw(1.1, p - 0.05)
        a0 = draw(0.6, 3.0)
        weight = constant(a0) if rng.random() < 0.5 \
            else quadratic(a0, draw(0.0, 2.0))
        if rng.random() < 0.7:
            alpha = draw(1.0, min(p, 4.0))
            convection = saturating(alpha, draw(0.0, 2.0), draw(-3.0, 3.0))
        else:
            convection = constant(draw(-12.0, 12.0))
        variant = "competing" if rng.random() < 0.6 else "cooperative"
        block = problem(variant, p, q, weight, convection,
                        INTERVAL if dim == 1 else SQUARE)
        try:
            build_problem(block)
        except ValueError:
            continue
        out[f"s{len(out):03d}"] = block
    return out


def solve(block: dict) -> tuple:
    """The hierarchy report of one config and its number of levels."""
    from pqgalerkin.cli import build_problem
    from pqgalerkin.galerkin import run_hierarchy

    built = build_problem(block)
    base, levels = ((4, 4), 4) if built.domain.dim == 2 else (4, 6)
    return run_hierarchy(built, base, levels), levels


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    solved = levels_solved = levels_total = iterations = factorizations = 0
    for name, block in configs().items():
        report, levels = solve(block)
        solved += report.failed_level is None
        levels_solved += len(report.levels)
        levels_total += levels
        iterations += sum(lv.iterations for lv in report.levels)
        factorizations += sum(lv.factorizations for lv in report.levels)
        if report.failed_level is not None:
            print(f"{name}: {report.failure_message}")
    print(f"{solved} of {COUNT} configs solve every level; "
          f"{levels_solved} of {levels_total} levels solve")
    print(f"the solved levels took {iterations} iterations and "
          f"{factorizations} factorizations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
