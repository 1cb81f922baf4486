#!/usr/bin/env python3
"""Reproduce the reference tables: operator rows at small n, the
eigenvalue-estimate column at n = 200, and the measured Monte Carlo
column beside it.

Usage:
    python scripts/reproduce_tables.py [--n 200] [--replicates 500] [--seed 5]
"""

import argparse

from longmem import build_model, eigen_report, run_study
from longmem._checks import whole
from longmem.cli import flag_type, n_flag, seed_flag
from longmem.montecarlo import MIN_REPLICATES

ROW_BETAS = [0.0, 2.2, 3.0, 7.0, 10.0]
STUDY_BETAS = [2.2, 3.0, 10.0]


def print_operator_rows(n):
    print(f"Operator first rows at n = {n}")
    for beta in ROW_BETAS:
        row = build_model(beta, n).first_row
        cells = " ".join(f"{v:10.3f}" for v in row)
        print(f"  beta {beta:>4}: {cells}")
    print()


def print_eigen_table(n):
    print(f"Eigenvalue estimates at n = {n}")
    header = f"  {'beta':>5} {'d_raw':>9} {'d_est':>7} {'alpha':>7} {'var_est':>11} {'kappa':>10} {'slope':>8}"
    print(header)
    for beta in STUDY_BETAS:
        r = eigen_report(build_model(beta, n))
        print(
            f"  {beta:>5} {r.d_raw:>9.3f} {r.d_est:>7.3f} {r.alpha_est:>7.3f} "
            f"{r.var_est:>11.4g} {r.kappa:>10.4g} {r.slope_fit:>8.3f}"
        )
    print()


def print_study_table(n, replicates, seed):
    print(f"Measured statistics: n = {n}, {replicates} replicates, seed {seed}")
    print(
        f"  {'beta':>5} {'stat':>9} {'estimated':>11} {'measured':>11} {'cv':>6}"
    )
    for beta in STUDY_BETAS:
        report = run_study(beta, n, replicates=replicates, seed=seed)
        rows = [
            ("d", report.eigen.d_est, report.mean_d, report.cv_d),
            ("alpha", report.eigen.alpha_est, report.mean_alpha, report.cv_alpha),
            ("variance", report.eigen.var_est, report.mean_var, report.cv_var),
        ]
        for stat, est, mean, cv in rows:
            print(f"  {beta:>5} {stat:>9} {est:>11.4g} {mean:>11.4g} {cv:>6.2f}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=n_flag, default=200)
    parser.add_argument("--replicates", default=500,
                        type=flag_type(int, whole, "replicates", minimum=MIN_REPLICATES))
    parser.add_argument("--seed", type=seed_flag, default=5)
    args = parser.parse_args()

    print_operator_rows(5)
    print_eigen_table(args.n)
    print_study_table(args.n, args.replicates, args.seed)


if __name__ == "__main__":
    main()
