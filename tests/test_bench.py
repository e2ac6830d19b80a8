import math

import numpy as np
import pytest

from quadgrad import (
    CsvTable,
    ExperimentSpec,
    InvalidDimension,
    Method,
    OptimizerConfig,
    QuadGradError,
    experiment_adam_qg,
    experiment_lemma_lr,
    run_experiment,
)
from quadgrad.bench import default_x0, main
from quadgrad.functions import get_function

LEMMA_HEADER = (
    "Iterations,fSFHasLRrawgradientmethod,naiveNAGwithfSFHasLR,enhancedNAGwithQGandfSFHasLR"
)
ADAM_HEADER = "Iterations,Adam,AdamOldQG,AdamNewQG"


class TestCsvTable:
    def test_roundtrip_exact(self):
        table = CsvTable(
            header=["Iterations", "a", "b"],
            rows=[[0.0, 1.5, 74.0], [1.0, 0.1 + 0.2, float("nan")]],
        )
        assert CsvTable.parse(table.emit()) == table

    def test_emit_format(self):
        table = CsvTable(header=["Iterations", "a"], rows=[[0.0, 2.0], [1.0, float("nan")]])
        text = table.emit()
        assert text == "Iterations,a\n0,2.0\n1,nan\n"

    def test_seventeen_digit_fidelity(self):
        value = 0.1234567890123456789
        table = CsvTable(header=["Iterations", "a"], rows=[[0.0, value]])
        parsed = CsvTable.parse(table.emit())
        assert parsed.rows[0][1] == value

    def test_inequality_on_value_change(self):
        a = CsvTable(header=["Iterations", "a"], rows=[[0.0, 1.0]])
        b = CsvTable(header=["Iterations", "a"], rows=[[0.0, 2.0]])
        assert a != b


class TestLemmaLrExperiment:
    def test_booth_shape_and_header(self):
        table = experiment_lemma_lr("booth", x0=[0.0, 0.0], iterations=30)
        assert ",".join(table.header) == LEMMA_HEADER
        assert len(table.rows) == 31
        assert all(len(row) == 4 for row in table.rows)

    def test_booth_convergence_levels(self):
        # the raw-gradient column follows the closed form 2*(64/81)^t on this
        # quadratic; the damped-NAG columns trail it but still collapse from 74
        table = experiment_lemma_lr("booth", x0=[0.0, 0.0], iterations=30)
        final = table.rows[-1][1:]
        assert final[0] == pytest.approx(2.0 * (64.0 / 81.0) ** 30, rel=1e-6)
        assert all(v <= 0.05 for v in final)

    def test_constant_from_optimum(self):
        table = experiment_lemma_lr("booth", x0=[1.0, 3.0], iterations=10)
        for row in table.rows:
            assert row[1:] == [0.0, 0.0, 0.0]

    def test_himmelblau_schema(self):
        table = experiment_lemma_lr("himmelblau", x0=[0.0, 0.0], iterations=30)
        assert len(table.header) == 4
        assert len(table.rows) == 31

    def test_maximization_reports_negated_loss(self):
        table = experiment_lemma_lr(
            "quadratic-counterexample", x0=[-1.0, -1.5], iterations=200
        )
        losses = [row[1] for row in table.rows]
        assert losses[0] == pytest.approx(1.25)
        assert losses[-1] < 1e-6
        assert all(v >= -1e-12 for v in losses)


class TestAdamQgExperiment:
    def test_schema(self):
        table = experiment_adam_qg(2, iterations=30)
        assert ",".join(table.header) == ADAM_HEADER
        assert len(table.rows) == 31
        for row in table.rows:
            assert all(math.isnan(v) or math.isfinite(v) for v in row)

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidDimension):
            experiment_adam_qg(1)

    def test_long_horizon_descends(self):
        table = experiment_adam_qg(2, iterations=300)
        assert table.rows[-1][1] < table.rows[0][1]

    def test_twenty_variables_completes(self):
        table = experiment_adam_qg(20, iterations=30)
        assert len(table.rows) == 31


class TestDivergencePadding:
    def test_nan_rows_after_divergence(self):
        # Adam's first step is sign-like, so it moves every coordinate by
        # about the stepsize, beyond DIVERGENCE_BOUND
        spec = ExperimentSpec(
            function_id="rosenbrock:2",
            x0=np.array([-1.0, -1.0]),
            methods=(
                (
                    "blowup",
                    OptimizerConfig(
                        method=Method.ENHANCED_ADAM,
                        stepsize=1e13,
                        qg_variant=None,
                        max_iterations=20,
                    ),
                ),
            ),
        )
        table = run_experiment(spec)
        assert len(table.rows) == 21
        assert math.isnan(table.rows[1][1])
        assert math.isnan(table.rows[-1][1])
        assert "nan" in table.emit().splitlines()[-1]
        # the partial prefix stays numeric
        assert math.isfinite(table.rows[0][1])

    def test_rows_cover_the_largest_budget(self):
        # each method runs its own budget; a shorter column repeats its last value
        spec = ExperimentSpec(
            function_id="booth",
            x0=np.zeros(2),
            methods=(
                ("short", OptimizerConfig(Method.GD_SPECTRAL, max_iterations=3)),
                ("long", OptimizerConfig(Method.GD_SPECTRAL, max_iterations=10)),
            ),
        )
        table = run_experiment(spec)
        assert [row[0] for row in table.rows] == list(range(11))
        short = [row[1] for row in table.rows]
        long = [row[2] for row in table.rows]
        assert short[:4] == long[:4]
        assert short[4:] == [short[3]] * 7
        assert long[10] < long[3]


class TestDefaults:
    def test_default_starts(self):
        np.testing.assert_array_equal(default_x0(get_function("booth")), [0.0, 0.0])
        np.testing.assert_array_equal(default_x0(get_function("beale")), [1.0, 1.0])
        np.testing.assert_array_equal(
            default_x0(get_function("rosenbrock:4")), [-1.0, -1.0, -1.0, -1.0]
        )

    def test_duplicate_labels_rejected(self):
        cfg = OptimizerConfig(method=Method.ADAM, max_iterations=3)
        with pytest.raises(QuadGradError):
            ExperimentSpec(
                function_id="booth",
                x0=np.zeros(2),
                methods=(("same", cfg), ("same", cfg)),
            )

    def test_no_methods_rejected(self):
        with pytest.raises(QuadGradError):
            ExperimentSpec(function_id="booth", x0=np.zeros(2), methods=())


class TestCli:
    def test_lemma_lr_run(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(
            [
                "--experiment", "lemma-lr", "--function", "booth",
                "--iters", "30", "--x0", "0,0", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == LEMMA_HEADER
        assert len(lines) == 32

    def test_adam_qg_run_to_stdout(self, capsys):
        code = main(["--experiment", "adam-qg", "--nvars", "5", "--iters", "10"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ADAM_HEADER
        assert len(lines) == 12

    def test_unknown_function_exit_code(self, capsys):
        assert main(["--function", "nosuch"]) == 3

    def test_bad_flag_exit_code(self, capsys):
        assert main(["--experiment", "bogus"]) == 2

    def test_bad_x0_length_exit_code(self, capsys):
        assert main(["--function", "booth", "--x0", "1,2,3"]) == 2

    def test_bad_nvars_exit_code(self, capsys):
        assert main(["--experiment", "adam-qg", "--nvars", "1"]) == 2

    @pytest.mark.parametrize("experiment", ["lemma-lr", "adam-qg"])
    def test_zero_iters_exit_code(self, experiment, capsys):
        assert main(["--experiment", experiment, "--iters", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["--function", "booth", "--iters", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_nonfinite_objective_at_x0_exit_code(self, capsys):
        code = main(["--experiment", "lemma-lr", "--function", "rosenbrock:2",
                     "--x0", "1e80,1e80", "--iters", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite at x0" in captured.err

    def test_reruns_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(
                ["--experiment", "adam-qg", "--nvars", "2", "--iters", "40",
                 "--eta", "1.5", "--out", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fixed_hessian_flag(self, tmp_path, capsys):
        out = tmp_path / "fixed.csv"
        code = main(
            ["--experiment", "lemma-lr", "--function", "rosenbrock:2",
             "--iters", "10", "--fixed-hessian", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 12
