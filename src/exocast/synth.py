"""Seeded synthetic frames: an autoregressive seasonal target plus indicator
walks, a chosen few of which actually drive the target. Stands in for the
proprietary demand data in experiments and tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import AlignedFrame, Month, MonthlySeries, align_merge, smooth

__all__ = ["SyntheticSpec", "SyntheticTruth", "generate_synthetic"]

DEFAULT_START = Month(2016, 1)
# Driver walks carry a per-driver drift drawn from this range (random sign),
# mirroring how real market indicators trend persistently; without it a
# straight-line continuation of a driftless walk has no predictive edge.
DRIVER_DRIFT_RANGE = (0.3, 0.8)
# Drivers lead the target by a seeded number of months so that lagged
# regressor values carry information a target-only model cannot recover.
# The first driver is near-coincident, later ones lead by up to eight
# months, mirroring the mix of coincident and leading indicators in real
# panels.
DRIVER_LEAD_RANGES = ((2, 4), (4, 8))
DRIVER_SMOOTH_WINDOW = 11


@dataclass(frozen=True)
class SyntheticSpec:
    n_months: int
    ar_coefficient: float = 0.6
    seasonal_amplitude: float = 1.0
    n_indicators: int = 10
    n_drivers: int = 0
    driver_betas: tuple[float, ...] = ()
    noise_sigma: float = 0.5
    seed: int = 0
    start: Month = DEFAULT_START

    def __post_init__(self):
        for name, value in (("ar_coefficient", self.ar_coefficient),
                            ("seasonal_amplitude", self.seasonal_amplitude),
                            ("noise_sigma", self.noise_sigma),
                            *(("driver_betas", beta) for beta in self.driver_betas)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_months < 1 or self.n_indicators < 1:
            raise ValueError("n_months and n_indicators must be positive")
        if not -1 < self.ar_coefficient < 1:
            raise ValueError("ar_coefficient must be in (-1, 1)")
        if not 0 <= self.n_drivers <= self.n_indicators:
            raise ValueError("n_drivers must be in 0..n_indicators")
        if len(self.driver_betas) != self.n_drivers:
            raise ValueError(
                f"driver_betas has {len(self.driver_betas)} entries for "
                f"{self.n_drivers} drivers"
            )
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


TRUTH_SCHEMA = "exocast.synth.truth/1"  # `exocast synth` writes a SyntheticTruth as truth.json


@dataclass(frozen=True)
class SyntheticTruth:
    driver_ids: tuple[str, ...]
    betas: tuple[float, ...]


def generate_synthetic(spec: SyntheticSpec) -> tuple[AlignedFrame, SyntheticTruth]:
    """Target = AR(1) base + yearly sinusoid + sum(beta * lagged driver) + noise.

    Drivers are smoothed, drifting random walks whose values lead the target
    by a seeded few months; the remaining indicators are plain noise walks.
    The whole frame is a pure function of the seed.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_months
    window = min(DRIVER_SMOOTH_WINDOW, n - 1 + n % 2)  # the largest odd length that fits
    width = len(str(spec.n_indicators))
    ids = [f"ind{i + 1:0{max(width, 2)}d}" for i in range(spec.n_indicators)]
    driver_idx = sorted(
        rng.choice(spec.n_indicators, size=spec.n_drivers, replace=False).tolist()
    )

    walks = []
    leads = {}
    for i in range(spec.n_indicators):
        walk = np.cumsum(rng.normal(0.0, 1.0, n))
        if i in driver_idx:
            drift = rng.uniform(*DRIVER_DRIFT_RANGE)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            walk = smooth(walk + sign * drift * np.arange(n), window)
            rank = driver_idx.index(i)
            lo, hi = DRIVER_LEAD_RANGES[min(rank, len(DRIVER_LEAD_RANGES) - 1)]
            leads[i] = int(rng.integers(lo, hi + 1))
        walks.append(walk)

    base = np.zeros(n)
    innovations = rng.normal(0.0, spec.noise_sigma, n)
    for t in range(1, n):
        base[t] = spec.ar_coefficient * base[t - 1] + innovations[t]
    seasonal = spec.seasonal_amplitude * np.sin(2.0 * np.pi * np.arange(n) / 12.0)
    noise = rng.normal(0.0, spec.noise_sigma, n)

    target = base + seasonal + noise
    for beta, di in zip(spec.driver_betas, driver_idx):
        lead = leads[di]
        lagged = np.concatenate([np.full(lead, walks[di][0]), walks[di]])[:n]
        target = target + beta * lagged

    frame = align_merge(
        MonthlySeries("target", spec.start, target.tolist()),
        [MonthlySeries(ids[i], spec.start, walks[i].tolist()) for i in range(spec.n_indicators)],
    )
    truth = SyntheticTruth(
        driver_ids=tuple(ids[i] for i in driver_idx),
        betas=tuple(spec.driver_betas),
    )
    return frame, truth
