"""Bad input of every kind raises one type, InvalidInput, which the CLI maps to exit 2."""

import numpy as np
import pytest

import quadgrad
import quadgrad.bench as bench
import quadgrad.errors as errors
from quadgrad import (
    CsvTable,
    InvalidInput,
    Method,
    OptimizerConfig,
    booth,
    experiment_adam_qg,
    finite_difference_check,
    get_function,
    newton_ratios,
    pseudoinverse,
    rosenbrock,
    run,
    run_experiment,
    solve,
    spectral_bounds,
)
from quadgrad.bench import main
from test_optimizers import raising_on_call

DENSE_ASYMMETRIC = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
ADAM = OptimizerConfig(Method.ADAM, max_iterations=2)

# one call per raise site that had its own type before InvalidInput took them all
BAD_INPUT = {
    "non-square": lambda: spectral_bounds(np.ones((2, 3))),
    "non-vector": lambda: solve(np.eye(2), np.ones((2, 1))),
    "tridiagonal-asymmetric": lambda: spectral_bounds([[0.0, 1.0], [0.0, 0.0]]),
    "non-finite-matrix": lambda: spectral_bounds([[np.nan, 0.0], [0.0, 1.0]]),
    "dense-asymmetric": lambda: spectral_bounds(DENSE_ASYMMETRIC),
    "solve-length-mismatch": lambda: solve(np.eye(2), [1.0, 2.0, 3.0]),
    "solve-non-finite": lambda: solve(np.eye(2), [np.inf, 1.0]),
    "pseudoinverse-non-finite": lambda: pseudoinverse([[np.inf, 0.0], [0.0, 1.0]]),
    "newton-ratios-length-mismatch": lambda: newton_ratios(np.eye(2), [1.0, 2.0, 3.0]),
    "newton-ratios-length-mismatch-zero-gradient":
        lambda: newton_ratios(np.eye(2), [1.0, 0.0, 3.0]),
    "newton-ratios-non-finite": lambda: newton_ratios([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    "newton-ratios-non-square": lambda: newton_ratios(np.ones((2, 3)), [1.0, 1.0]),
    "newton-ratios-non-square-zero-gradient": lambda: newton_ratios(np.ones((2, 3)), [1.0, 0.0]),
    "x0-length-mismatch": lambda: run(booth(), OptimizerConfig(Method.ADAM), [0.0, 0.0, 0.0]),
    "rosenbrock-n-below-two": lambda: rosenbrock(1),
    "rosenbrock-id-n-below-two": lambda: get_function("rosenbrock:1"),
    "adam-qg-n-below-two": lambda: experiment_adam_qg(1),
    "run-experiment-objective-none":
        lambda: run_experiment(None, [0.0, 0.0], {"Adam": OptimizerConfig(Method.ADAM)}),
    "function-id-int": lambda: get_function(123),
    "function-id-none": lambda: get_function(None),
    "function-id-bytes": lambda: get_function(b"booth"),
    "rosenbrock-id-too-many-digits": lambda: get_function("rosenbrock:" + "9" * 5000),
    # sizes numpy refuses before allocating anything
    "rosenbrock-id-n-beyond-numpy": lambda: get_function(f"rosenbrock:{10**20}"),
    "adam-qg-n-beyond-numpy": lambda: experiment_adam_qg(2**62),
    # 4 EiB: beyond any 64-bit address space, so malloc refuses it at once
    "rosenbrock-n-beyond-address-space": lambda: rosenbrock(2**59),
    # column labels that emit() cannot write or parse() cannot read back
    "run-experiment-label-int": lambda: run_experiment(booth(), [0.0, 0.0], {1: ADAM}),
    "run-experiment-label-comma": lambda: run_experiment(booth(), [0.0, 0.0], {"a,b": ADAM}),
    "run-experiment-label-newline": lambda: run_experiment(booth(), [0.0, 0.0], {"a\nb": ADAM}),
    "run-experiment-label-carriage-return":
        lambda: run_experiment(booth(), [0.0, 0.0], {"a\rb": ADAM}),
    "run-experiment-label-line-separator":
        lambda: run_experiment(booth(), [0.0, 0.0], {"Adam": ADAM, "a\u2028b": ADAM}),
    # CSV text read back from outside the program
    "csv-bytes": lambda: CsvTable.parse(b"a,b\n1,2\n"),
    "csv-empty": lambda: CsvTable.parse(""),
    "csv-blank-lines-only": lambda: CsvTable.parse("\n\n"),
    "csv-cell-not-a-number": lambda: CsvTable.parse("a,b\n1,x\n"),
    "csv-row-shorter-than-header": lambda: CsvTable.parse("a,b\n1\n"),
    "csv-row-longer-than-header": lambda: CsvTable.parse("a,b\n1,2,3\n"),
    # an Iterations index that emit() could not write back as it was read
    "csv-index-nan": lambda: CsvTable.parse("a,b\nnan,2\n"),
    "csv-index-inf": lambda: CsvTable.parse("a,b\ninf,2\n"),
    "csv-index-fraction": lambda: CsvTable.parse("a,b\n1.5,2\n"),
    "finite-difference-x-too-long": lambda: finite_difference_check(booth(), [1, 2, 3]),
    "finite-difference-x-complex": lambda: finite_difference_check(booth(), [1j, 2]),
    "finite-difference-x-non-finite": lambda: finite_difference_check(booth(), [np.nan, 2.0]),
    "finite-difference-f-a-name": lambda: finite_difference_check("booth", [1, 2]),
}


@pytest.mark.parametrize("call", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_exactly_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert type(info.value) is InvalidInput


@pytest.mark.parametrize("argv, message", [
    (["--experiment", "adam-qg", "--nvars", "1"], "rosenbrock needs n >= 2, got 1"),
    (["--function", "booth", "--x0", "1,2,3"], "x0 has dim 3, objective needs 2"),
    (["--function", "rosenbrock:" + "9" * 5000], "rosenbrock n has too many digits: 5000"),
    (["--experiment", "adam-qg", "--nvars", str(2**62)],
     "rosenbrock n is too large for an array: n >= 2**62"),
    (["--function", f"rosenbrock:{10**20}"], "rosenbrock n is too large for an array: n >= 2**66"),
], ids=["nvars-1", "x0-length", "rosenbrock-id-5000-digits", "nvars-2**62", "rosenbrock-id-1e20"])
def test_cli_bad_input_exits_2_with_the_message(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fixed", [[], ["--fixed-hessian"]], ids=["fresh", "frozen"])
def test_cli_objective_raising_at_x0_exits_2(fixed, monkeypatch, capsys):
    # a Hessian the objective cannot allocate at the start point is bad input
    monkeypatch.setattr(bench, "get_function",
                        lambda _: raising_on_call(booth(), "hessian", 1, MemoryError()))
    assert main(["--function", "booth", "--iters", "3", *fixed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the objective's Hessian raised MemoryError()\n"


def test_package_has_four_error_types():
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {"QuadGradError", "InvalidInput", "SingularMatrix", "UnknownFunction"}
    assert all(issubclass(getattr(errors, name), errors.QuadGradError) for name in defined)


def test_every_public_name_resolves():
    # the bench names resolve lazily, through the package's __getattr__
    for name in quadgrad.__all__:
        assert getattr(quadgrad, name) is not None, name
    # retired names, the step machinery and the generic helpers stay unexported
    for name in ("InvalidMatrix", "DimensionError", "InvalidDimension", "ExperimentSpec",
                 "Curvature", "OptimizerState", "init_state", "step_gd_spectral", "step_nag",
                 "step_enhanced_adagrad", "step_adam", "is_symmetric", "ratio_diagonal"):
        assert name not in quadgrad.__all__
        assert not hasattr(quadgrad, name)
