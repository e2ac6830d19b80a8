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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, QuadGradError, UnknownFunction
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
        """Read back an emitted table. InvalidInput for anything but a str, text
        without a header, a cell that is not a number, or a row whose length
        differs from the header's."""
        if not isinstance(text, str):
            raise InvalidInput(f"expected CSV text, got {type(text).__name__}")
        lines = [line for line in text.splitlines() if line]
        if not lines:
            raise InvalidInput("a CSV table needs a header line")
        header = lines[0].split(",")
        rows = []
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if len(cells) != len(header):
                raise InvalidInput(f"row {i} has {len(cells)} cells, the header {len(header)}")
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                raise InvalidInput(f"row {i}: {exc}") from None
        return cls(header=header, rows=rows)

    def __eq__(self, other) -> bool:
        """Equal when both emit the same text: NaN equals NaN, -0.0 differs from 0.0."""
        if not isinstance(other, CsvTable):
            return NotImplemented
        return self.emit() == other.emit()


def _loss(f: ObjectiveFunction, objective: float) -> float:
    # report -f for maximization problems so every curve decreases toward 0
    return objective if f.sense is Sense.MINIMIZE else -objective


def _fill_loss_column(column: list[float], f: ObjectiveFunction, trajectory: Trajectory):
    """Write the run's losses over the first of ``column``'s NaN slots; a run
    that did not diverge repeats its last loss in the rest."""
    values = [_loss(f, r.objective) for r in trajectory.records]
    if not trajectory.diverged:
        values.extend([values[-1]] * (len(column) - len(values)))
    column[:len(values)] = values


def run_experiment(f: ObjectiveFunction, x0, methods: dict[str, OptimizerConfig]) -> CsvTable:
    """Run each method from ``x0`` on ``f`` and assemble the loss table.

    ``methods`` maps each column label to its config, in column order. A
    label is a str without a comma or a line break, so that ``CsvTable.parse``
    reads the emitted table back. Each method runs to its own
    ``max_iterations``; the table has one row more than the largest budget,
    and a budget too large for a table of that many rows raises
    ``InvalidInput`` before any run.
    """
    # splitlines() breaks "." + label + "." exactly where parse() would split the header
    if not (isinstance(methods, dict) and methods
            and all(isinstance(label, str) and "," not in label
                    and len(f".{label}.".splitlines()) == 1
                    and isinstance(config, OptimizerConfig) for label, config in methods.items())):
        raise InvalidInput(f"methods must be a non-empty dict of label: OptimizerConfig, each "
                           f"label a str without a comma or line break, got {methods!r}")
    iterations = max(config.max_iterations for config in methods.values())
    try:  # a list repeat beyond the address space fails at once, without allocating
        columns = [[float("nan")] * (iterations + 1) for _ in methods]
    except (MemoryError, OverflowError) as exc:
        raise InvalidInput(f"a budget of {iterations} iterations needs a table too large "
                           f"to build") from exc
    for column, config in zip(columns, methods.values()):
        _fill_loss_column(column, f, run(f, config, x0))
    header = ["Iterations", *methods]
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
    methods = {
        label: OptimizerConfig(method=method, max_iterations=iterations,
                               fixed_hessian=fixed_hessian)
        for label, method in zip(
            LEMMA_LR_COLUMNS,
            (Method.GD_SPECTRAL, Method.NAG_SPECTRAL, Method.ENHANCED_NAG),
        )
    }
    return run_experiment(f, default_x0(f) if x0 is None else x0, methods)


def experiment_adam_qg(
    n_vars: int,
    iterations: int = 30,
    eta: float = DEFAULT_ENHANCED_ETA,
    x0=None,
    fixed_hessian: bool = False,
) -> CsvTable:
    """Plain Adam (stepsize DEFAULT_ADAM_ALPHA) vs the QG Adam variants on Rosenbrock(n_vars)."""
    f = rosenbrock(n_vars)
    methods = {
        label: OptimizerConfig(method=method, stepsize=stepsize, qg_variant=variant,
                               max_iterations=iterations, fixed_hessian=fixed_hessian)
        for label, (method, stepsize, variant) in zip(
            ADAM_QG_COLUMNS,
            ((Method.ADAM, DEFAULT_ADAM_ALPHA, None),
             (Method.ENHANCED_ADAM, eta, Variant.ORIGINAL),
             (Method.ENHANCED_ADAM, eta, Variant.NEW)),
        )
    }
    return run_experiment(f, default_x0(f) if x0 is None else x0, methods)


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
    except QuadGradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, UnknownFunction) else 2

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
