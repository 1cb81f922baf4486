"""Replication harness: measured spread statistics over many seeded
replicates, reported next to the eigenvalue predictions.

``replicate_samples`` is the one place replicates are drawn: replicate
``i`` comes from stream ``(seed, i)``, in replicate order.  ``run_study``
and the ``hist`` command both consume it, so a report or a histogram is a
pure function of ``(beta, n, replicates, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import whole
from .estimators import sample_stats
from .sampler import RngStream, generate
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


def replicate_samples(model, seed, replicates, dense=False):
    """Yield ``generate(model, RngStream(seed, i), dense=dense)`` for
    ``i = 0 .. replicates - 1``, one replicate at a time."""
    for i in range(replicates):
        yield generate(model, RngStream(seed=seed, stream_index=i), dense=dense)


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
        serially (a thread pool was slower than one thread).
    dense : bool
        Route transforms, convolutions and the ``eigen`` summary through the
        dense oracles; ``eigen`` is the ``eigen`` command's report on both routes.

    Returns
    -------
    MonteCarloReport

    Raises
    ------
    DegenerateSampleError
        If any replicate series is constant; the message names the
        offending stream index and the study aborts.
    """
    replicates = whole(replicates, "replicates", MIN_REPLICATES)
    whole(workers, "workers", MIN_WORKERS)

    model = build_model(beta, n, dense=dense)
    eigen = eigen_report(model, dense=dense)

    measured = np.empty((replicates, 3))
    for i, sample in enumerate(replicate_samples(model, seed, replicates, dense=dense)):
        stats = sample_stats(sample.series)
        measured[i] = stats.d_meas, stats.alpha_meas, stats.variance

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
