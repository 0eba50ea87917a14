"""The :class:`Packet` travelling through the simulated network."""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

__all__ = ["Packet"]


@dataclasses.dataclass(slots=True)
class Packet:
    """A single packet of one source-destination flow.

    Attributes
    ----------
    packet_id:
        Unique identifier (per simulation) used for tracing.
    flow:
        ``(source, destination)`` pair of the flow the packet belongs to.
    size_bits:
        Packet size in bits (headers included).
    created_at:
        Simulation time when the source generated the packet.
    delivered_at:
        Simulation time when the destination received it (``None`` while in
        flight or if dropped).
    dropped:
        Set when a full queue discarded the packet.
    hops:
        Node identifiers visited so far (including the source).
    priority:
        Traffic class used by priority schedulers; 0 is the highest priority.
    """

    packet_id: int
    flow: Tuple[int, int]
    size_bits: float
    created_at: float
    delivered_at: Optional[float] = None
    dropped: bool = False
    hops: List[int] = dataclasses.field(default_factory=list)
    priority: int = 0

    @property
    def source(self) -> int:
        return self.flow[0]

    @property
    def destination(self) -> int:
        return self.flow[1]

    @property
    def delay(self) -> Optional[float]:
        """End-to-end delay in seconds, or ``None`` if not delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at
