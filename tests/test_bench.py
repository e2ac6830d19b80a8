import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadgrad
from quadgrad import (
    CsvTable,
    InvalidInput,
    Method,
    OptimizerConfig,
    Variant,
    booth,
    experiment_adam_qg,
    experiment_lemma_lr,
    rosenbrock,
    run_experiment,
)
from quadgrad import bench
from quadgrad.bench import default_x0, main
from quadgrad.functions import get_function
from test_optimizers import bowl, counted

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

    # equal exactly when the emitted text is: NaN is written "nan" either
    # way, a signed zero is written "-0.0"
    @pytest.mark.parametrize("left, right, equal", [
        (CsvTable(["Iterations", "a"], [[0.0, float("nan")]]),
         CsvTable(["Iterations", "a"], [[0.0, -float("nan")]]), True),
        (CsvTable(["Iterations", "a"], [[0.0, -0.0]]),
         CsvTable(["Iterations", "a"], [[0.0, 0.0]]), False),
        (CsvTable(["Iterations", "a"], [[0.0, 1.0]]),
         CsvTable(["Iterations", "b"], [[0.0, 1.0]]), False),
        (CsvTable(["Iterations", "a"], [[0.0, 1.0]]),
         CsvTable(["Iterations", "a"], [[0.0, 1.0], [1.0, 1.0]]), False),
    ], ids=["nan", "signed-zero", "header", "row-count"])
    def test_equal_when_the_emitted_text_is(self, left, right, equal):
        assert (left == right) is equal
        assert (left.emit() == right.emit()) is equal

    def test_never_equals_another_type(self):
        table = CsvTable(["Iterations", "a"], [[0.0, 1.0]])
        assert table.__eq__("x") is NotImplemented
        assert (table == "x") is False and table != "x"


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
        with pytest.raises(InvalidInput):
            experiment_adam_qg(1)

    def test_long_horizon_descends(self):
        table = experiment_adam_qg(2, iterations=300)
        assert table.rows[-1][1] < table.rows[0][1]

    def test_twenty_variables_completes(self):
        table = experiment_adam_qg(20, iterations=30)
        assert len(table.rows) == 31


class TestColumnConfigs:
    # the README's mapping of each published label to its method, written out by hand
    def test_lemma_lr_columns(self):
        f = get_function("himmelblau")
        expected = run_experiment(f, default_x0(f), {
            "fSFHasLRrawgradientmethod": OptimizerConfig(Method.GD_SPECTRAL, max_iterations=30),
            "naiveNAGwithfSFHasLR": OptimizerConfig(Method.NAG_SPECTRAL, max_iterations=30),
            "enhancedNAGwithQGandfSFHasLR": OptimizerConfig(Method.ENHANCED_NAG,
                                                            max_iterations=30),
        })
        assert experiment_lemma_lr("himmelblau", iterations=30) == expected

    @pytest.mark.parametrize("eta", [0.5, 2.0])
    def test_adam_qg_columns(self, eta):
        f = rosenbrock(2)
        expected = run_experiment(f, default_x0(f), {
            "Adam": OptimizerConfig(Method.ADAM, stepsize=0.1, max_iterations=30),
            "AdamOldQG": OptimizerConfig(Method.ENHANCED_ADAM, stepsize=eta,
                                         qg_variant=Variant.ORIGINAL, max_iterations=30),
            "AdamNewQG": OptimizerConfig(Method.ENHANCED_ADAM, stepsize=eta,
                                         qg_variant=Variant.NEW, max_iterations=30),
        })
        assert experiment_adam_qg(2, iterations=30, eta=eta) == expected

    def test_eta_moves_only_the_qg_columns(self):
        low, high = (experiment_adam_qg(2, iterations=30, eta=eta) for eta in (0.5, 2.0))
        assert [row[1] for row in low.rows] == [row[1] for row in high.rows]
        for column in (2, 3):
            assert [row[column] for row in low.rows] != [row[column] for row in high.rows]


EXPERIMENTS = {
    "lemma-lr": lambda x0: experiment_lemma_lr("booth", x0=x0, iterations=3),
    "adam-qg": lambda x0: experiment_adam_qg(2, iterations=3, x0=x0),
}


class TestExperimentStartPoints:
    # both experiments hand x0 to run() as given, so its typed check decides
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("x0", [[1j, 0], ["a", "b"], [[1.0], [1.0, 2.0]]],
                             ids=["complex", "strings", "ragged"])
    def test_non_real_x0_raises_typed_error(self, experiment, x0):
        with pytest.raises(InvalidInput, match="expected real numbers"):
            EXPERIMENTS[experiment](x0)


class TestDivergencePadding:
    def test_nan_rows_after_divergence(self):
        # Adam's first step is sign-like, so it moves every coordinate by
        # about the stepsize, beyond DIVERGENCE_BOUND
        blowup = OptimizerConfig(method=Method.ENHANCED_ADAM, stepsize=1e13,
                                 qg_variant=None, max_iterations=20)
        table = run_experiment(rosenbrock(2), np.array([-1.0, -1.0]), {"blowup": blowup})
        assert len(table.rows) == 21
        assert math.isnan(table.rows[1][1])
        assert math.isnan(table.rows[-1][1])
        assert "nan" in table.emit().splitlines()[-1]
        # the partial prefix stays numeric
        assert math.isfinite(table.rows[0][1])

    def test_grad_tol_stop_pads_like_a_spent_budget(self):
        # the run stops after two steps, not diverged (see test_optimizers)
        table = run_experiment(bowl(), np.array([1.0, 1.0]), {
            "bowl": OptimizerConfig(Method.GD_SPECTRAL, max_iterations=10)})
        column = [row[1] for row in table.rows]
        assert len(column) == 11
        assert column[3:] == [column[2]] * 8
        assert not any(math.isnan(loss) for loss in column)

    def test_rows_cover_the_largest_budget(self):
        # each method runs its own budget; a shorter column repeats its last value
        table = run_experiment(booth(), np.zeros(2), {
            "short": OptimizerConfig(Method.GD_SPECTRAL, max_iterations=3),
            "long": OptimizerConfig(Method.GD_SPECTRAL, max_iterations=10),
        })
        assert [row[0] for row in table.rows] == list(range(11))
        short = [row[1] for row in table.rows]
        long = [row[2] for row in table.rows]
        assert short[:4] == long[:4]
        assert short[4:] == [short[3]] * 7
        assert long[10] < long[3]

    # 10**18 + 1 slots exceed what a list can index, 10**19 + 1 an index itself
    @pytest.mark.parametrize("budget", [10**18, 10**19])
    def test_budget_beyond_any_table_raises_before_any_run(self, budget):
        f, calls = counted(booth())
        methods = {"short": OptimizerConfig(Method.GD_SPECTRAL, max_iterations=3),
                   "huge": OptimizerConfig(Method.GD_SPECTRAL, max_iterations=budget)}
        with pytest.raises(InvalidInput, match=f"a budget of {budget} iterations"):
            run_experiment(f, np.zeros(2), methods)
        assert not calls


class TestDefaults:
    def test_default_starts(self):
        np.testing.assert_array_equal(default_x0(get_function("booth")), [0.0, 0.0])
        np.testing.assert_array_equal(default_x0(get_function("beale")), [1.0, 1.0])
        np.testing.assert_array_equal(
            default_x0(get_function("rosenbrock:4")), [-1.0, -1.0, -1.0, -1.0]
        )

    # each default written out by hand: changing one changes the output
    @pytest.mark.parametrize("argv, explicit", [
        ([], ["--experiment", "lemma-lr", "--function", "booth", "--iters", "30"]),
        (["--experiment", "adam-qg"],
         ["--experiment", "adam-qg", "--nvars", "2", "--iters", "30", "--eta", "1.0"]),
    ], ids=["no-flags", "adam-qg"])
    def test_cli_defaults(self, argv, explicit, capsys):
        outputs = []
        for args in (argv, explicit):
            assert main(args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 32

    def test_experiment_defaults(self):
        # himmelblau's Hessian varies, so fixed_hessian changes its table
        assert experiment_lemma_lr("himmelblau") == experiment_lemma_lr(
            "himmelblau", x0=None, iterations=30, fixed_hessian=False)
        assert experiment_adam_qg(3) == experiment_adam_qg(
            3, iterations=30, eta=1.0, x0=None, fixed_hessian=False)

    def test_config_defaults(self):
        config = OptimizerConfig(Method.ADAM)
        assert config.stepsize == 0.1
        assert config == OptimizerConfig(Method.ADAM, stepsize=0.1, qg_variant=None,
                                         max_iterations=100, fixed_hessian=False)

    def test_no_methods_rejected(self):
        with pytest.raises(InvalidInput, match="non-empty dict"):
            run_experiment(booth(), np.zeros(2), {})

    def test_label_config_pairs_rejected(self):
        # the tuple of (label, config) pairs the harness took before the dict
        with pytest.raises(InvalidInput, match="non-empty dict"):
            run_experiment(booth(), np.zeros(2), (("a", OptimizerConfig(Method.ADAM)),))

    def test_non_config_value_rejected(self):
        methods = {"a": OptimizerConfig(Method.ADAM), "b": "adam"}
        with pytest.raises(InvalidInput, match="label: OptimizerConfig"):
            run_experiment(booth(), np.zeros(2), methods)


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

    def test_module_form_runs_once_without_runpy_warning(self):
        # importing the package must not import quadgrad.bench, or runpy
        # warns and executes the module a second time
        src = str(Path(quadgrad.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "quadgrad.bench",
             "--experiment", "lemma-lr", "--function", "booth", "--iters", "2"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == LEMMA_HEADER
        assert len(lines) == 4

    @pytest.mark.parametrize("name", ["nosuch", "rosenbrock:3\n"])
    def test_unknown_function_exit_code(self, name, capsys):
        assert main(["--function", name]) == 3

    def test_bad_flag_exit_code(self, capsys):
        assert main(["--experiment", "bogus"]) == 2

    def test_bad_x0_length_exit_code(self, capsys):
        assert main(["--function", "booth", "--x0", "1,2,3"]) == 2

    def test_unparsable_x0_exit_code(self, capsys):
        assert main(["--function", "booth", "--x0", "a,b"]) == 2
        assert "bad --x0 value 'a,b'" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [10**18, 10**19])
    def test_budget_beyond_any_table_exit_code(self, budget, capsys):
        assert main(["--function", "booth", "--iters", str(budget)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a budget of {budget} iterations needs a table "
                                f"too large to build\n")

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

    @staticmethod
    def _open_sink(sink):
        """A write descriptor on which every write fails: ENOSPC or EPIPE."""
        if sink == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            return os.open("/dev/full", os.O_WRONLY)
        read_end, write_end = os.pipe()
        os.close(read_end)
        return write_end

    # with buffered stdout the interpreter flushes the kept bytes again at exit
    @pytest.mark.parametrize("unbuffered, argv", [
        (False, ["--iters", "1"]), (True, ["--iters", "1"]), (False, ["--help"]),
        (True, ["--help"]),
    ], ids=["buffered", "unbuffered", "buffered-help", "unbuffered-help"])
    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    def test_unwritable_stdout_exit_code(self, sink, unbuffered, argv):
        src = str(Path(quadgrad.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        fd = self._open_sink(sink)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quadgrad.bench", *argv],
                env=env, stdout=fd, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(fd)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: [Errno ")
        assert proc.stderr.count("\n") == 1, proc.stderr

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

    # a flag, then the same call without it, help, a usage error, and the first call again
    SEQUENCE = [
        ["--function", "rosenbrock:2", "--iters", "5", "--fixed-hessian"],
        ["--function", "rosenbrock:2", "--iters", "5"],
        ["--help"],
        ["--experiment", "bogus"],
        ["--function", "rosenbrock:2", "--iters", "5", "--fixed-hessian"],
    ]

    def test_one_parser_per_process_gives_what_a_fresh_one_gives(self, capsys):
        def outcomes(fresh_parser):
            seen = []
            for argv in self.SEQUENCE:
                if fresh_parser:
                    bench._build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err))
            return seen

        fresh = outcomes(fresh_parser=True)
        bench._build_parser.cache_clear()
        shared = outcomes(fresh_parser=False)
        assert bench._build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
        # the flag reached the first run and did not stick to the second
        assert shared[0][1] != shared[1][1] and shared[4] == shared[0]
        assert shared[2][1].startswith("usage: quadgrad-bench")
        assert "invalid choice: 'bogus'" in shared[3][2]

    # every shared flag and each experiment's own flags reach the library call
    @pytest.mark.parametrize("argv, experiment", [
        (["--experiment", "lemma-lr", "--function", "rosenbrock:2", "--x0", "0.5,-0.5"],
         lambda **kw: experiment_lemma_lr("rosenbrock:2", x0=[0.5, -0.5], **kw)),
        (["--experiment", "adam-qg", "--nvars", "3", "--eta", "1.5", "--x0", "0.5,-0.5,0.25"],
         lambda **kw: experiment_adam_qg(3, eta=1.5, x0=[0.5, -0.5, 0.25], **kw)),
    ], ids=["lemma-lr", "adam-qg"])
    def test_fixed_hessian_flag(self, argv, experiment, tmp_path, capsys):
        out = tmp_path / "fixed.csv"
        code = main(argv + ["--iters", "10", "--fixed-hessian", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert len(text.splitlines()) == 12
        assert text == experiment(iterations=10, fixed_hessian=True).emit()
        assert text != experiment(iterations=10).emit()
