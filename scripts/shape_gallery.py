#!/usr/bin/env python3
"""Sweep beta through its shape regimes and emit histogram CSVs.

Writes one plot-ready CSV per beta (bell near 0, skewed bump, semicircle
neighborhood, arcsine at the top) plus a terminal summary of the fitted
shape parameter for each.

Usage:
    python scripts/shape_gallery.py [--outdir shapes] [--replicates 200]
                                    [--n 200] [--bins 100] [--seed 5]
"""

import argparse
from pathlib import Path

import numpy as np

from longmem import (
    InsufficientDataError,
    RngStream,
    accumulate_histogram,
    build_model,
    fit_alpha_from_histogram,
    generate,
)
from longmem._checks import whole
from longmem.cli import bins_flag, csv_chunks, flag_type, histogram_columns, n_flag, seed_flag

GALLERY_BETAS = [0.001, 2.2, 4.0, 10.0]


def run_one(beta, n, replicates, bins, seed):
    model = build_model(beta, n)
    vectors = [
        generate(model, RngStream(seed=seed, stream_index=i)).standardized
        for i in range(replicates)
    ]
    return accumulate_histogram(vectors, bin_count=bins)


def write_csv(path, hist):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(csv_chunks(histogram_columns(hist)))


def sketch(hist, width=50):
    peak = float(hist.densities.max())
    rows = []
    for k in range(0, hist.bin_count, max(1, hist.bin_count // 20)):
        bar = "#" * int(round(width * hist.densities[k] / peak))
        rows.append(f"    {hist.edges[k]:5.2f} |{bar}")
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="shapes")
    # accumulate_histogram pools at least one replicate.
    parser.add_argument("--replicates", default=200,
                        type=flag_type(int, whole, "replicates", minimum=1))
    parser.add_argument("--n", type=n_flag, default=200)
    parser.add_argument("--bins", type=bins_flag, default=100)
    parser.add_argument("--seed", type=seed_flag, default=5)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for beta in GALLERY_BETAS:
        hist = run_one(beta, args.n, args.replicates, args.bins, args.seed)
        path = outdir / f"hist_beta{beta:g}.csv"
        write_csv(path, hist)
        try:
            fitted = f"{fit_alpha_from_histogram(hist):.3f}"
        except InsufficientDataError:
            fitted = "n/a (too few samples)"
        edge = float(np.mean([hist.densities[0], hist.densities[-1]]))
        center = float(np.mean(hist.densities[hist.bin_count // 2 - 1 : hist.bin_count // 2 + 1]))
        print(f"beta {beta:g}: fitted alpha {fitted}  "
              f"(edge density {edge:.2f}, center {center:.2f}) -> {path}")
        print(sketch(hist))
        print()


if __name__ == "__main__":
    main()
