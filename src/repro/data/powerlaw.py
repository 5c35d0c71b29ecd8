"""Power-law descriptive analysis (Figure 3 of the paper).

Figure 3 plots two log-log histograms over the DBLP corpus and annotates
each with the slope of a least-squares line fit in log-log space:

* Figure 3a — number of names publishing ``k`` papers vs ``k``
  (slope ≈ −1.68);
* Figure 3b — number of co-author name pairs co-occurring ``k`` times vs
  ``k`` (slope ≈ −3.17).

This module provides the histogram and the slope fit used by the
``benchmarks/test_fig3_descriptive.py`` bench and by the quickstart example.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .records import Corpus


@dataclass(frozen=True, slots=True)
class PowerLawFit:
    """A least-squares line fit in log-log space.

    Attributes:
        slope: Fitted exponent (negative for decreasing heavy tails).
        intercept: Fitted log10 intercept.
        r_squared: Coefficient of determination of the fit.
        xs: Distinct frequency values (the histogram support).
        ys: Count of items at each frequency value.
    """

    slope: float
    intercept: float
    r_squared: float
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def predicted(self) -> np.ndarray:
        """Model counts at the histogram support (for plotting/inspection)."""
        return 10.0 ** (self.intercept + self.slope * np.log10(self.xs))


def frequency_histogram(frequencies: Iterable[int]) -> dict[int, int]:
    """Histogram of a frequency sequence: value -> how many items have it."""
    counts = Counter(int(f) for f in frequencies if f > 0)
    return dict(sorted(counts.items()))


def fit_power_law(
    histogram: Mapping[int, int],
    log_binned: bool = False,
    n_bins: int = 12,
) -> PowerLawFit:
    """Fit ``log10(count) = intercept + slope * log10(value)`` by least squares.

    Mirrors the slope annotation in Figure 3.  Requires at least two distinct
    frequency values.

    Args:
        histogram: frequency value -> number of items with that value.
        log_binned: When true, aggregate the histogram into logarithmically
            spaced bins and fit bin densities instead of raw counts.  Raw
            least squares is biased flat by the sparse tail (many frequency
            values with count 1); log-binning is the standard unbiased
            estimator for power-law exponents and is what the Figure 3 bench
            reports.
        n_bins: Number of logarithmic bins when ``log_binned``.
    """
    xs = np.array(sorted(histogram), dtype=float)
    if xs.size < 2:
        raise ValueError("power-law fit needs at least two distinct frequencies")
    ys = np.array([histogram[int(x)] for x in xs], dtype=float)
    if log_binned:
        fit_x, fit_y = _log_bin(xs, ys, n_bins)
    else:
        fit_x, fit_y = xs, ys
    log_x, log_y = np.log10(fit_x), np.log10(fit_y)
    slope, intercept = np.polyfit(log_x, log_y, deg=1)
    residual = log_y - (intercept + slope * log_x)
    total = log_y - log_y.mean()
    denom = float(total @ total)
    r_squared = 1.0 - float(residual @ residual) / denom if denom > 0 else 1.0
    return PowerLawFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        xs=tuple(int(x) for x in xs),
        ys=tuple(int(y) for y in ys),
    )


def _log_bin(
    xs: np.ndarray, ys: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate a histogram into log-spaced bins, returning bin centres and
    densities (count mass divided by bin width)."""
    edges = np.logspace(0.0, np.log10(xs.max() + 1.0), n_bins)
    centers: list[float] = []
    densities: list[float] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (xs >= lo) & (xs < hi)
        if mask.any():
            centers.append(float(np.sqrt(lo * hi)))
            densities.append(float(ys[mask].sum() / (hi - lo)))
    if len(centers) < 2:
        return xs, ys
    return np.array(centers), np.array(densities)


def papers_per_name_distribution(corpus: Corpus) -> dict[int, int]:
    """Figure 3a histogram: #papers-per-name value -> #names with that value."""
    return frequency_histogram(
        corpus.name_frequency(name) for name in corpus.names
    )


def pair_frequency_distribution(corpus: Corpus) -> dict[int, int]:
    """Figure 3b histogram: co-pair frequency -> #name-pairs with that value.

    Counts every unordered pair of *distinct* names per co-author list
    (support threshold 1) — the per-paper rule of
    :func:`repro.graphs.scn.mine_scrs` — which is the population Figure 3b
    summarises.
    """
    pair_counts: Counter[tuple[str, str]] = Counter()
    for paper in corpus:
        pair_counts.update(combinations(sorted(set(paper.authors)), 2))
    return frequency_histogram(pair_counts.values())


def ascii_loglog(histogram: Mapping[int, int], width: int = 48, height: int = 12) -> str:
    """Render a log-log scatter as ASCII art (for terminal reports)."""
    if not histogram:
        return "(empty)"
    xs = np.log10(np.array(sorted(histogram), dtype=float) + 1e-12)
    ys = np.log10(np.array([histogram[k] for k in sorted(histogram)], dtype=float))
    grid = [[" "] * width for _ in range(height)]
    x_span = max(xs.max() - xs.min(), 1e-9)
    y_span = max(ys.max() - ys.min(), 1e-9)
    for x, y in zip(xs, ys):
        col = int((x - xs.min()) / x_span * (width - 1))
        row = height - 1 - int((y - ys.min()) / y_span * (height - 1))
        grid[row][col] = "*"
    return "\n".join("".join(row) for row in grid)
