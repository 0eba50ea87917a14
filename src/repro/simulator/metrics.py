"""Measurement: per-flow delay/jitter/loss and per-link utilisation statistics."""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["FlowStats", "LinkStats", "SimulationResult", "FlowRecorder", "percentile_95"]


@dataclasses.dataclass
class FlowStats:
    """Aggregated measurements of one source-destination flow."""

    flow: Tuple[int, int]
    packets_sent: int
    packets_delivered: int
    packets_dropped: int
    average_delay: float
    jitter: float
    p95_delay: float
    min_delay: float
    max_delay: float

    @property
    def loss_ratio(self) -> float:
        """Fraction of generated packets that never reached the destination."""
        if self.packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.packets_sent


@dataclasses.dataclass
class LinkStats:
    """Aggregated measurements of one directed link."""

    link_index: int
    source: int
    target: int
    utilization: float
    packets_sent: int
    queue_drops: int
    average_queue_occupancy: float
    max_queue_occupancy: int


@dataclasses.dataclass
class SimulationResult:
    """Everything a simulation run reports.

    ``flow_stats`` is keyed by ``(source, destination)``; ``link_stats`` by
    link index.  ``duration`` is the measured interval (excluding warm-up).
    """

    duration: float
    warmup: float
    flow_stats: Dict[Tuple[int, int], FlowStats]
    link_stats: Dict[int, LinkStats]
    total_packets_generated: int
    total_packets_delivered: int
    total_packets_dropped: int
    #: Discrete events the engine executed to produce this result — the
    #: simulator's cost unit (events/sec is the tracked generation metric).
    events_processed: int = 0

    def delays_vector(self, pair_order: List[Tuple[int, int]]) -> np.ndarray:
        """Average delays arranged in ``pair_order`` (NaN for absent flows)."""
        values = []
        for pair in pair_order:
            stats = self.flow_stats.get(pair)
            values.append(stats.average_delay if stats is not None else math.nan)
        return np.array(values, dtype=np.float64)

    def loss_vector(self, pair_order: List[Tuple[int, int]]) -> np.ndarray:
        """Loss ratios arranged in ``pair_order`` (NaN for absent flows)."""
        values = []
        for pair in pair_order:
            stats = self.flow_stats.get(pair)
            values.append(stats.loss_ratio if stats is not None else math.nan)
        return np.array(values, dtype=np.float64)

    @property
    def overall_loss_ratio(self) -> float:
        if self.total_packets_generated == 0:
            return 0.0
        return self.total_packets_dropped / self.total_packets_generated


class FlowRecorder:
    """Accumulates per-packet observations for one flow during measurement."""

    def __init__(self, flow: Tuple[int, int]) -> None:
        self.flow = flow
        self.delays: List[float] = []
        self.packets_sent = 0
        self.packets_dropped = 0
        self._last_delay: Optional[float] = None
        self._jitter_accumulator = 0.0
        self._jitter_samples = 0

    def record_sent(self) -> None:
        self.packets_sent += 1

    def record_dropped(self) -> None:
        self.packets_dropped += 1

    def record_delivery(self, delay: float) -> None:
        self.delays.append(delay)
        if self._last_delay is not None:
            # Jitter as mean absolute delay variation (RFC 3550 flavoured).
            self._jitter_accumulator += abs(delay - self._last_delay)
            self._jitter_samples += 1
        self._last_delay = delay

    def finalize(self) -> Optional[FlowStats]:
        """Build :class:`FlowStats`; returns ``None`` if nothing was delivered."""
        if not self.delays:
            if self.packets_sent == 0:
                return None
            return FlowStats(
                flow=self.flow,
                packets_sent=self.packets_sent,
                packets_delivered=0,
                packets_dropped=self.packets_dropped,
                average_delay=math.nan,
                jitter=math.nan,
                p95_delay=math.nan,
                min_delay=math.nan,
                max_delay=math.nan,
            )
        ordered = sorted(self.delays)
        jitter = (self._jitter_accumulator / self._jitter_samples
                  if self._jitter_samples else 0.0)
        return FlowStats(
            flow=self.flow,
            packets_sent=self.packets_sent,
            packets_delivered=len(ordered),
            packets_dropped=self.packets_dropped,
            # np.mean's pairwise sum, not sum()/n: the value feeds the samples.
            average_delay=float(np.mean(self.delays)),
            jitter=float(jitter),
            p95_delay=float(percentile_95(ordered)),
            min_delay=float(ordered[0]),
            max_delay=float(ordered[-1]),
        )


def percentile_95(ordered: List[float]) -> float:
    """``np.percentile(ordered, 95)`` of a sorted non-empty list, bit for bit.

    This is numpy's default ``linear`` rule (virtual index ``(n-1)*0.95``)
    including its two-sided interpolation, without the per-call array
    overhead numpy pays for a one-off quantile.
    """
    n = len(ordered)
    virtual = (n - 1) * 0.95
    lo = math.floor(virtual)
    a, b = ordered[lo], ordered[min(lo + 1, n - 1)]
    t = virtual - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t
