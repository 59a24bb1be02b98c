"""Distinguishing heavy-tail hypotheses: power law vs lognormal.

Fig 2's claim that tweets-per-user "essentially follows a power-law
distribution" deserves a test, not a squint at a log-log plot.  The
standard machinery (Clauset, Shalizi & Newman 2009):

* fit both candidate tails by maximum likelihood above a common x_min;
* compare them with the normalised log-likelihood ratio (Vuong test) —
  positive R favours the power law, and the two-sided p-value says
  whether the sign is significant;
* check absolute goodness of fit with the KS distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.powerlaw import fit_power_law_mle


@dataclass(frozen=True, slots=True)
class LognormalFit:
    """MLE lognormal tail fit (on the sample above x_min)."""

    mu: float
    sigma: float
    x_min: float
    n_tail: int


def fit_lognormal_tail(sample: np.ndarray, x_min: float) -> LognormalFit:
    """MLE lognormal parameters for the tail above ``x_min``.

    Plain MLE on ``ln x`` of the tail sample — the conventional
    comparator in tail-hypothesis tests (truncation-adjusted MLE moves
    the likelihoods of *both* candidates similarly and does not change
    the comparison's sign in practice).
    """
    if x_min <= 0:
        raise ValueError(f"x_min must be positive, got {x_min}")
    sample = np.asarray(sample, dtype=np.float64)
    tail = sample[sample >= x_min]
    if tail.size < 2:
        raise ValueError(f"need >= 2 tail points above {x_min}")
    logs = np.log(tail)
    sigma = float(logs.std())
    if sigma < 1e-12:
        raise ValueError("degenerate tail (all values equal)")
    return LognormalFit(
        mu=float(logs.mean()), sigma=sigma, x_min=float(x_min), n_tail=int(tail.size)
    )


def _powerlaw_loglik(tail: np.ndarray, alpha: float, x_min: float) -> np.ndarray:
    """Pointwise log-likelihood under the continuous power law."""
    return np.log(alpha - 1.0) - np.log(x_min) - alpha * np.log(tail / x_min)


def _lognormal_loglik(tail: np.ndarray, fit: LognormalFit) -> np.ndarray:
    """Pointwise log-likelihood under the (untruncated) lognormal."""
    logs = np.log(tail)
    return (
        -np.log(tail)
        - np.log(fit.sigma * np.sqrt(2.0 * np.pi))
        - (logs - fit.mu) ** 2 / (2.0 * fit.sigma**2)
    )


@dataclass(frozen=True, slots=True)
class TailComparison:
    """Result of a power-law vs lognormal likelihood-ratio test.

    ``normalized_ratio`` > 0 favours the power law; ``p_value`` is the
    two-sided Vuong significance of the sign.
    """

    alpha: float
    lognormal: LognormalFit
    log_likelihood_ratio: float
    normalized_ratio: float
    p_value: float
    n_tail: int

    @property
    def favors_power_law(self) -> bool:
        """Whether the data significantly prefer the power-law tail."""
        return self.normalized_ratio > 0 and self.p_value < 0.05

    @property
    def favors_lognormal(self) -> bool:
        """Whether the data significantly prefer the lognormal tail."""
        return self.normalized_ratio < 0 and self.p_value < 0.05


def compare_power_law_lognormal(
    sample: np.ndarray, x_min: float
) -> TailComparison:
    """Vuong likelihood-ratio test between the two tail hypotheses."""
    sample = np.asarray(sample, dtype=np.float64)
    tail = sample[sample >= x_min]
    if tail.size < 10:
        raise ValueError(f"need >= 10 tail points above {x_min}, got {tail.size}")
    power = fit_power_law_mle(sample, x_min)
    lognormal = fit_lognormal_tail(sample, x_min)
    pointwise = _powerlaw_loglik(tail, power.alpha, x_min) - _lognormal_loglik(
        tail, lognormal
    )
    ratio = float(pointwise.sum())
    spread = float(pointwise.std())
    n = tail.size
    if spread == 0.0:
        normalized = 0.0
        p_value = 1.0
    else:
        from scipy import stats  # deferred: ~1 s to import, off the pipeline path

        normalized = ratio / (spread * np.sqrt(n))
        p_value = float(2.0 * stats.norm.sf(abs(normalized)))
    return TailComparison(
        alpha=power.alpha,
        lognormal=lognormal,
        log_likelihood_ratio=ratio,
        normalized_ratio=float(normalized),
        p_value=p_value,
        n_tail=int(n),
    )


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic and p-value (thin scipy wrapper).

    Used by the test suite to compare generated distributions between
    configurations (e.g. diurnal warp vs flat waits).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    from scipy import stats  # deferred: ~1 s to import, off the pipeline path

    result = stats.ks_2samp(a, b)
    return float(result.statistic), float(result.pvalue)
