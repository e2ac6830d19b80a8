"""Plain Adam vs the two quadratic-gradient Adam variants on Rosenbrock.

Sweeps the problem size over {2, 5, 10, 20} variables and the enhanced
stepsize eta over {1.0, 1.5, 2.0}, at the short (30) and long (300)
horizons. Each run writes a three-method CSV to demos/out/ and the summary
table below prints the final loss per column.

Watch the AdamNewQG column on the long horizon: the accelerator built from
the Newton ratios is the erratic one. Every one of its steps in this sweep
is an exact solve; the pseudoinverse is only a fallback for singular cases.
A diverged run shows up as nan padding rather than an exception.
"""

import pathlib

from quadgrad import experiment_adam_qg

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

for iterations in (30, 300):
    print(f"### horizon: {iterations} iterations")
    for n_vars in (2, 5, 10, 20):
        for eta in (1.0, 1.5, 2.0):
            table = experiment_adam_qg(n_vars, iterations=iterations, eta=eta)
            path = OUT / f"adam_qg_n{n_vars}_eta{eta}_{iterations}it.csv"
            path.write_text(table.emit())
            initial = table.rows[0][1]
            finals = ", ".join(
                f"{name}={value:.4g}"
                for name, value in zip(table.header[1:], table.rows[-1][1:])
            )
            print(f"n={n_vars:2d} eta={eta}: start={initial:10.4g}  {finals}")
    print()

print(f"CSVs in {OUT}")
