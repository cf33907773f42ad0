"""Streaming summary statistics (Welford)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class SummaryStats:
    """Single-pass count / mean / variance (ddof=1) / min / max accumulator.

    update() is the Welford recurrence; the reducers feed it in task
    order, so results are bit-reproducible.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min: float = field(default=math.inf)
    max: float = field(default=-math.inf)

    def update(self, x: float) -> "SummaryStats":
        x = float(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        return self

    @property
    def variance(self) -> float:
        if self.count < 2:
            return math.nan
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)  # nan stays nan

    @property
    def sem(self) -> float:
        if self.count < 2:
            return math.nan
        return self.std / math.sqrt(self.count)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean if self.count else None,
            "variance": None if self.count < 2 else self.variance,
            "std": None if self.count < 2 else self.std,
            "sem": None if self.count < 2 else self.sem,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }
