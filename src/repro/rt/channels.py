"""Channels for the live runtime.

The live runtime (see :mod:`repro.rt`) re-uses every piece of pure
protocol logic from :mod:`repro.core` — rule engines, checkpoint state
machines, the adaptation controller, the EDE — but executes them as
asyncio tasks.  Per the reproduction bands in DESIGN.md, this backend is
the *runnable prototype*: its timing reflects the host Python runtime,
not the paper's calibrated cost model, so figures come from the
simulation backend while this one demonstrates the system live.

A site publishes on a :class:`Channel`, which hands each payload
straight to the link it is bound to (the TCP layer's encoder and
per-connection corks) — no queue and no task between them.  A site's
socket link puts each run on its main unit's inbox through an
:class:`AsyncSubscription`, which counts how often the inbox was full.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Optional, Protocol, Tuple


__all__ = ["AsyncSubscription", "Channel", "Link"]


class AsyncSubscription:
    """The put side of one consumer's bounded queue (bound =
    backpressure depth)."""

    def __init__(self, name: str, queue: asyncio.Queue):
        self.name = name
        self.queue = queue
        #: deepest the queue has ever been (how close backpressure came)
        self.high_watermark = 0
        #: puts that found the queue full and had to block the publisher
        self.blocked_puts = 0

    def offer(self, item: Any) -> Optional[Awaitable[None]]:
        """Enqueue ``item`` now if there is room; otherwise return the
        put the caller must await before it takes anything more.

        A full queue holds the caller up (that *is* the backpressure
        coupling), but the stall is counted so a run can report how
        often publishers were held up and how deep queues ran.
        """
        try:
            self.queue.put_nowait(item)
        except asyncio.QueueFull:
            self.blocked_puts += 1
            return self._put(item)
        self._note_depth()
        return None

    async def put(self, item: Any) -> None:
        """Enqueue for this subscriber, waiting while the queue is full."""
        waiting = self.offer(item)
        if waiting is not None:
            await waiting

    async def _put(self, item: Any) -> None:
        await self.queue.put(item)
        self._note_depth()

    def _note_depth(self) -> None:
        depth = self.queue.qsize()
        if depth > self.high_watermark:
            self.high_watermark = depth


class Link(Protocol):
    """Where a site's channels deliver: :meth:`send` takes one payload
    (a control payload leaves at once, with whatever data is held);
    :meth:`drain` ships what is held and returns what to await while
    any peer's transport is past its high-water mark (None: nothing)."""

    def send(self, kind: str, payload: Any) -> None: ...

    def drain(self) -> Optional[Awaitable[None]]: ...


class Channel:
    """A site's named outbound channel: :meth:`publish` hands the payload,
    tagged with the channel's kind, to the bound link synchronously, so
    every peer sees events and control in publish order."""

    #: nothing queues on a channel; kept because benchmarks/e2e/server.py's
    #: ``_counters`` still walks it, until ROADMAP 1(e)
    subscriptions: Tuple[AsyncSubscription, ...] = ()

    def __init__(self, name: str, link: Link, kind: str = "data"):
        if kind not in ("data", "control"):
            raise ValueError(f"channel kind must be 'data' or 'control', got {kind!r}")
        self.name = name
        self.kind = kind
        self.link = link
        self.published = 0

    def publish(self, payload: Any) -> None:
        """Deliver ``payload`` to the link."""
        self.published += 1
        self.link.send(self.kind, payload)

    def drain(self) -> Optional[Awaitable[None]]:
        """Ship what the link holds; returns the wait on a backed-up
        peer, or None when no peer is backed up."""
        return self.link.drain()
