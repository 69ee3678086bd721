"""Asyncio event channels for the live runtime.

The live runtime (see :mod:`repro.rt`) re-uses every piece of pure
protocol logic from :mod:`repro.core` — rule engines, checkpoint state
machines, the adaptation controller, the EDE — but executes them as
asyncio tasks communicating over these channels instead of simulated
processes.  Per the reproduction bands in DESIGN.md, this backend is
the *runnable prototype*: its timing reflects the host Python runtime,
not the paper's calibrated cost model, so figures come from the
simulation backend while this one demonstrates the system live.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional

from ..core.events import EventBatch, UpdateEvent

__all__ = ["AsyncSubscription", "AsyncChannel"]


class AsyncSubscription:
    """One subscriber: a bounded queue (bound = backpressure depth).

    With ``into`` the subscription delivers into a queue its consumer
    shares between several subscriptions instead of one of its own;
    items then arrive as ``(tag, payload)`` so the consumer can tell
    the sources apart, in the order they were published.
    """

    def __init__(self, name: str, capacity: int = 128,
                 into: Optional[asyncio.Queue] = None,
                 tag: Optional[str] = None):
        self.name = name
        self.queue: asyncio.Queue = (
            into if into is not None else asyncio.Queue(maxsize=capacity)
        )
        self._tag = tag
        self.delivered = 0
        #: deepest the queue has ever been (how close backpressure came)
        self.high_watermark = 0
        #: puts that found the queue full and had to block the publisher
        self.blocked_puts = 0

    async def put(self, item: Any) -> None:
        """Enqueue for this subscriber, tracking backpressure.

        A full queue blocks the caller (that *is* the backpressure
        coupling), but the stall is counted so a run can report how
        often publishers were held up and how deep queues ran.
        """
        if self._tag is not None:
            item = (self._tag, item)
        try:
            self.queue.put_nowait(item)
        except asyncio.QueueFull:
            self.blocked_puts += 1
            await self.queue.put(item)
        depth = self.queue.qsize()
        if depth > self.high_watermark:
            self.high_watermark = depth

    async def get(self) -> Any:
        """Await the next delivered payload."""
        item = await self.queue.get()
        return item

    def level(self) -> int:
        """Items currently queued for this subscriber."""
        return self.queue.qsize()


class AsyncChannel:
    """Named fan-out channel: publish awaits space at every subscriber.

    A slow subscriber therefore exerts backpressure on publishers, the
    same coupling the simulated transport models with bounded inboxes.
    """

    def __init__(self, name: str, kind: str = "data"):
        if kind not in ("data", "control"):
            raise ValueError(f"channel kind must be 'data' or 'control', got {kind!r}")
        self.name = name
        self.kind = kind
        self.subscriptions: List[AsyncSubscription] = []
        self.published = 0

    def subscribe(self, name: str, into: asyncio.Queue) -> AsyncSubscription:
        """Add a subscriber delivering ``(channel kind, payload)`` pairs
        into ``into``, a queue the consumer shares with its other
        subscriptions."""
        sub = AsyncSubscription(name, into=into, tag=self.kind)
        self.subscriptions.append(sub)
        return sub

    async def publish(self, payload: Any) -> int:
        """Deliver ``payload`` to every subscriber; returns deliveries."""
        self.published += 1
        count = 0
        for sub in self.subscriptions:
            await sub.put(payload)
            sub.delivered += 1
            count += 1
        return count

    async def publish_batch(self, events: List[UpdateEvent]) -> int:
        """Deliver ``events`` as one :class:`EventBatch` per subscriber.

        One queue put (one wakeup) per subscriber per batch is the
        live-runtime counterpart of the simulation's one-wire-message
        batching.
        """
        self.published += 1
        count = 0
        for sub in self.subscriptions:
            await sub.put(EventBatch(list(events)))
            sub.delivered += 1
            count += 1
        return count
