#!/usr/bin/env python3
"""Sweep beta through its shape regimes and emit histogram CSVs.

Runs the ``hist`` command at four betas (bell near 0, skewed bump,
semicircle neighborhood, arcsine at the top): each CSV is the body of
``longmem hist`` at the same settings, and the terminal summary prints
its fitted shape parameter.

Usage:
    python scripts/shape_gallery.py [--outdir shapes] [--replicates 200]
                                    [--n 200] [--bins 100] [--seed 5]
"""

import argparse
from pathlib import Path

import numpy as np

from longmem.cli import (DEFAULT_SEED, RunConfig, _cmd_hist, bins_flag, csv_chunks, hist_replicates_flag,
                         n_flag, seed_flag)
from longmem.estimators import DEFAULT_BIN_COUNT

GALLERY_BETAS = [0.001, 2.2, 4.0, 10.0]


def sketch(columns, width=50):
    density, left = columns["density"], columns["bin_left"]
    peak = float(density.max())
    rows = []
    for k in range(0, len(density), max(1, len(density) // 20)):
        bar = "#" * int(round(width * density[k] / peak))
        rows.append(f"    {left[k]:5.2f} |{bar}")
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="shapes")
    parser.add_argument("--replicates", type=hist_replicates_flag, default=200)
    parser.add_argument("--n", type=n_flag, default=200)
    parser.add_argument("--bins", type=bins_flag, default=DEFAULT_BIN_COUNT)
    parser.add_argument("--seed", type=seed_flag, default=DEFAULT_SEED)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for beta in GALLERY_BETAS:
        cfg = RunConfig("hist", beta, args.n, seed=args.seed,
                        replicates=args.replicates, bins=args.bins)
        columns, summary = _cmd_hist(cfg)
        path = outdir / f"hist_beta{beta:g}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(csv_chunks(columns))
        fit = summary["fit_alpha"]
        fitted = "n/a (too few samples)" if fit is None else f"{fit:.3f}"
        density = columns["density"]
        mid = len(density) // 2
        edge = float(np.mean([density[0], density[-1]]))
        center = float(np.mean(density[mid - 1 : mid + 1]))
        print(f"beta {beta:g}: fitted alpha {fitted}  "
              f"(edge density {edge:.2f}, center {center:.2f}) -> {path}")
        print(sketch(columns))
        print()


if __name__ == "__main__":
    main()
