"""Replication harness: measured spread statistics over many seeded
replicates, reported next to the eigenvalue predictions.

Replicates are drawn in one place, :func:`longmem.sampler.replicate_blocks`:
replicate ``i`` comes from stream ``(seed, i)``, in replicate order, a block
of consecutive replicates at a time, on the model's route.  ``run_study``
reduces each block straight to its statistics; ``hist`` and the shape
gallery bin each block's standardized rows in one pass and add the counts
block by block.  So a report or a histogram is a pure function of
``(beta, n, replicates, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import whole
# generate and sample_stats, the one-replicate forms of the engine's stages,
# stay importable here: bench/tracer.py wraps them by name.
from .estimators import row_stats, sample_stats  # noqa: F401
from .sampler import generate, replicate_blocks  # noqa: F401
from .spectral import EigenReport, build_model, eigen_report

MIN_REPLICATES = 2
MIN_WORKERS = 1


@dataclass(frozen=True)
class MonteCarloReport:
    """Study outcome: eigenvalue estimates next to measured means and CVs.

    mean_* are replicate means of d_meas, alpha_meas, and the series
    variance; cv_* are the matching coefficients of variation (sample
    standard deviation over mean).
    """

    beta: float
    n: int
    replicates: int
    seed: int
    eigen: EigenReport
    mean_d: float
    mean_alpha: float
    mean_var: float
    cv_d: float
    cv_alpha: float
    cv_var: float


def run_study(beta, n, replicates, seed, workers=1, dense=False):
    """Run a replicated study of the model at one (beta, n).

    Parameters
    ----------
    beta, n : model parameters
    replicates : int
        Number of replicates, at least 2.
    seed : int
        Study seed; replicate ``i`` uses stream ``(seed, i)``.
    workers : int
        Worker count, at least 1; validated only, since replicates run
        serially (a thread pool was slower than one thread).  Its one
        caller is ``bench/probe.py``, and both go with the benchmark's
        next revision.
    dense : bool
        Build the model on the dense route, which its transforms, convolutions
        and ``eigen`` summary follow; ``eigen`` is the ``eigen`` command's
        report on both routes.

    Returns
    -------
    MonteCarloReport

    Raises
    ------
    DegenerateSampleError
        If any replicate's noise is constant; the message names the
        offending stream index and the study aborts.
    """
    replicates = whole(replicates, "replicates", MIN_REPLICATES)
    whole(workers, "workers", MIN_WORKERS)

    model = build_model(beta, n, dense=dense)
    eigen = eigen_report(model)

    measured = np.empty((replicates, 3))
    for block in replicate_blocks(model, seed, replicates):
        stats = row_stats(block.series)
        measured[block.start:block.start + len(block.series)] = np.column_stack(
            (stats.d_meas, stats.alpha_meas, stats.variance)
        )

    means = measured.mean(axis=0)
    sds = measured.std(axis=0, ddof=1)
    cvs = sds / means
    return MonteCarloReport(
        beta=float(beta),
        n=int(n),
        replicates=replicates,
        seed=int(seed),
        eigen=eigen,
        mean_d=float(means[0]),
        mean_alpha=float(means[1]),
        mean_var=float(means[2]),
        cv_d=float(cvs[0]),
        cv_alpha=float(cvs[1]),
        cv_var=float(cvs[2]),
    )
