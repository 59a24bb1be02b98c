"""Pearson correlation with significance.

The paper reports r = 0.816 with a two-tailed p of 2.06e-15 for the
60-area population comparison (Fig 3) and per-cell Pearson values in
Table II.  The implementation is self-contained (the p-value uses the
exact Student t survival function, :func:`scipy.special.stdtr`), with a
log-space variant for quantities compared on log-log axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr


@dataclass(frozen=True, slots=True)
class CorrelationResult:
    """A Pearson correlation coefficient with its two-tailed p-value."""

    r: float
    p_value: float
    n: int

    def __iter__(self):
        yield self.r
        yield self.p_value


def pearson(x: np.ndarray, y: np.ndarray) -> CorrelationResult:
    """Pearson r between two samples with a two-tailed p-value.

    The p-value comes from the exact ``t = r sqrt((n-2)/(1-r²))``
    statistic under the bivariate-normal null, the convention the paper
    follows.  Degenerate inputs (constant series, n < 3) yield r = 0 and
    p = 1 rather than raising, so pipelines stay total.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs y {y.shape}")
    n = int(x.size)
    if n < 3:
        return CorrelationResult(r=0.0, p_value=1.0, n=n)
    x_centered = x - x.mean()
    y_centered = y - y.mean()
    denom = np.sqrt((x_centered**2).sum() * (y_centered**2).sum())
    if denom == 0.0:
        return CorrelationResult(r=0.0, p_value=1.0, n=n)
    r = float((x_centered * y_centered).sum() / denom)
    r = min(1.0, max(-1.0, r))
    if abs(r) == 1.0:
        return CorrelationResult(r=r, p_value=0.0, n=n)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    # scipy.stats.t.sf(|t|, n - 2) is stdtr(n - 2, -|t|), bit for bit,
    # without the ~1 s scipy.stats import.
    p = 2.0 * stdtr(n - 2, -abs(t))
    return CorrelationResult(r=r, p_value=float(p), n=n)


def log_pearson(x: np.ndarray, y: np.ndarray) -> CorrelationResult:
    """Pearson r between ``log10 x`` and ``log10 y``.

    Pairs where either value is non-positive are dropped first.  Used
    for quantities the paper compares on log-log axes (populations in
    Fig 3, flows in Fig 4/Table II).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs y {y.shape}")
    keep = (x > 0) & (y > 0)
    return pearson(np.log10(x[keep]), np.log10(y[keep]))
