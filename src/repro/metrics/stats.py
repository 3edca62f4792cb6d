"""Statistics helpers: means with 95 % confidence intervals.

The paper reports every data point with a 95 % confidence interval over 20
independent repetitions; :func:`mean_ci` is the one place that computation
lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Estimate", "mean_ci"]


@dataclass(frozen=True)
class Estimate:
    """A mean with a symmetric confidence half-width.

    Attributes
    ----------
    mean:
        Sample mean.
    half_width:
        Half-width of the confidence interval (0 for a single sample).
    n:
        Number of samples.
    """

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_ci(samples, confidence: float = 0.95) -> Estimate:
    """Mean and Student-t confidence half-width of *samples*.

    Degenerate inputs are handled the way experiment code wants: an empty
    sequence yields NaN; a single sample yields half-width 0.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    n = arr.size
    if n == 0:
        return Estimate(mean=math.nan, half_width=math.nan, n=0)
    mean = float(arr.mean())
    if n == 1:
        return Estimate(mean=mean, half_width=0.0, n=1)
    sem = float(arr.std(ddof=1) / math.sqrt(n))
    if sem == 0.0:
        return Estimate(mean=mean, half_width=0.0, n=n)
    # scipy.stats costs ~0.8 s to import: paid here, on first use, rather
    # than by every CLI call and worker process at start-up
    from scipy import stats as sps

    t = float(sps.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return Estimate(mean=mean, half_width=t * sem, n=n)
