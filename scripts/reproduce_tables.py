#!/usr/bin/env python3
"""Reproduce the reference tables: operator rows at small n, the
eigenvalue-estimate column at n = 200, and the measured Monte Carlo
column beside it.

A sweep of the CLI handlers: the rows are ``longmem spectrum``'s
``first_row`` at n = 5; one ``longmem study`` per beta gives the estimate
table (its summary) and the measured table (its rows).

Usage:
    python scripts/reproduce_tables.py [--n 200] [--replicates 500] [--seed 5]
"""

import argparse

from longmem.cli import (DEFAULT_REPLICATES, DEFAULT_SEED, RunConfig, _cmd_spectrum, _cmd_study,
                         n_flag, seed_flag, study_replicates_flag)

ROW_BETAS = [0.0, 2.2, 3.0, 7.0, 10.0]
STUDY_BETAS = [2.2, 3.0, 10.0]


def estimate_line(beta, summary):
    s = summary
    return (f"  {beta:>5} {s['d_raw']:>9.3f} {s['d_est']:>7.3f} {s['alpha_est']:>7.3f} "
            f"{s['var_est']:>11.4g} {s['kappa']:>10.4g} {s['slope_fit']:>8.3f}")


def measured_lines(beta, columns):
    rows = zip(columns["statistic"], columns["eigen_estimate"],
               columns["measured_mean"], columns["measured_cv"])
    return [f"  {beta:>5} {stat:>9} {est:>11.4g} {mean:>11.4g} {cv:>6.2f}"
            for stat, est, mean, cv in rows]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=n_flag, default=200)
    parser.add_argument("--replicates", type=study_replicates_flag, default=DEFAULT_REPLICATES)
    parser.add_argument("--seed", type=seed_flag, default=DEFAULT_SEED)
    args = parser.parse_args()

    print("Operator first rows at n = 5")
    for beta in ROW_BETAS:
        columns, _ = _cmd_spectrum(RunConfig("spectrum", beta, 5))
        cells = " ".join(f"{v:10.3f}" for v in columns["first_row"])
        print(f"  beta {beta:>4}: {cells}")
    print()

    studies = [
        (beta, *_cmd_study(RunConfig("study", beta, args.n, seed=args.seed,
                                     replicates=args.replicates)))
        for beta in STUDY_BETAS
    ]

    print(f"Eigenvalue estimates at n = {args.n}")
    print(f"  {'beta':>5} {'d_raw':>9} {'d_est':>7} {'alpha':>7} {'var_est':>11} {'kappa':>10} {'slope':>8}")
    for beta, _, summary in studies:
        print(estimate_line(beta, summary))
    print()

    print(f"Measured statistics: n = {args.n}, {args.replicates} replicates, seed {args.seed}")
    print(f"  {'beta':>5} {'stat':>9} {'estimated':>11} {'measured':>11} {'cv':>6}")
    for beta, columns, _ in studies:
        print("\n".join(measured_lines(beta, columns)))
    print()


if __name__ == "__main__":
    main()
