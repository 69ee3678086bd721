"""Shared-resource primitives for the simulation kernel.

Two primitives carry the whole cost model of the reproduction:

* :class:`Resource` — a counted server pool with a FIFO wait queue.  Each
  cluster node's CPU is a ``Resource(capacity=n_processors)`` (the paper's
  testbed nodes were dual-processor Pentium IIIs, so capacity 2); every
  action that costs CPU time acquires it for its service demand.
* :class:`Store` — an unbounded-or-bounded FIFO buffer of Python objects
  with blocking ``get``/``put``.  The mirroring framework's *ready queue*
  and channel inboxes are Stores.

Both follow the kernel's event protocol, so processes simply::

    with node.cpu.request() as req:
        yield req
        yield env.timeout(cost)

or use the :meth:`Resource.acquire` convenience generator.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from .kernel import NORMAL, Environment, Event, SimulationError
from .kernel import _PENDING  # inlined Event.__init__ on the hot paths

__all__ = ["Request", "Release", "Resource", "StorePut", "StoreGet", "Store"]


class Request(Event):
    """Pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...

    ``hold`` (used by :meth:`Resource.acquire`) folds the post-grant
    service timer into the grant itself: the event fires ``hold`` time
    units *after* the slot is granted, so request + hold costs one
    kernel event instead of two.  The default (0) is the classic
    request/grant protocol, which fires at the grant instant.
    """

    __slots__ = ("resource", "hold")

    def __init__(self, resource: "Resource", hold: float = 0.0):
        # Event.__init__ inlined: requests, puts and gets are the three
        # hottest allocation sites in the whole simulation
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.hold = hold
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info) -> None:
        # Release synchronously: nobody can wait on the Release event a
        # context-manager exit would mint, so routing it through the
        # kernel heap only adds a no-op event per acquire/release cycle
        # (the hottest pattern in the whole simulation).  Grant order is
        # unchanged — _do_release hands freed slots to waiters exactly
        # as Release.__init__ did, at the same simulated instant.
        self.resource._do_release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        self.resource._cancel(self)


class Release(Event):
    """Event returned by :meth:`Resource.release`; fires immediately."""

    __slots__ = ()

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        resource._do_release(request)
        self.succeed()


class Resource:
    """Counted resource with FIFO granting.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of simultaneous holders (>= 1).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
        # Monitoring hooks: total busy integral for utilisation metrics.
        self._busy_since: dict[Request, float] = {}
        self.busy_time = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Give back a previously granted slot."""
        return Release(self, request)

    def acquire(self, hold: float) -> Generator:
        """Convenience process fragment: request, hold ``hold``, release.

        Usage: ``yield from resource.acquire(cost)``.

        A nonzero hold rides on the request itself (grant-with-hold, see
        :class:`Request`): the kernel wakes this process once, when the
        service interval ends, instead of once at the grant plus once at
        timer expiry.  FIFO fairness, the busy-time integral and release
        ordering (the finally fires inside the same kernel step the old
        timeout did) are unchanged; an interrupt mid-hold still frees the
        slot immediately via the finally, and the stale wake then fires
        as a no-op.
        """
        if hold:
            request = Request(self, hold)
            try:
                yield request
            finally:
                self._do_release(request)
            return
        with self.request() as req:
            yield req

    # -- internals -------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self.queue.append(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        self._busy_since[request] = self.env._now
        hold = request.hold
        if hold:
            # grant-with-hold: the waiter would only wake to start a
            # service timer, so schedule the wake at the timer's expiry
            # instead — the busy interval [now, now + hold] is identical,
            # the intermediate no-op wake is not paid
            request._ok = True
            request._value = None
            self.env._schedule_event(request, NORMAL, delay=hold)
        else:
            request.succeed()

    def _do_release(self, request: Request) -> None:
        users = self.users
        try:
            users.remove(request)
        except ValueError:
            # Releasing an unqueued/ungranted request is a no-op (it may
            # have been cancelled); releasing twice likewise.
            self._cancel(request)
            return
        env = self.env
        now = env._now
        self.busy_time += now - self._busy_since.pop(request)
        # _grant inlined for the freed slot(s): release→grant is the
        # steady-state handoff when the resource is saturated
        queue = self.queue
        if queue and len(users) < self.capacity:
            busy_since = self._busy_since
            while queue and len(users) < self.capacity:
                nxt = queue.popleft()
                users.append(nxt)
                busy_since[nxt] = now
                hold = nxt.hold
                if hold:
                    nxt._ok = True
                    nxt._value = None
                    env._schedule_event(nxt, NORMAL, delay=hold)
                else:
                    nxt.succeed()

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of capacity-time spent busy since t=0.

        Includes currently held slots up to ``env.now``.
        """
        elapsed = self.env.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        in_flight = sum(self.env.now - s for s in self._busy_since.values())
        return (self.busy_time + in_flight) / (elapsed * self.capacity)


class StorePut(Event):
    """Pending put into a :class:`Store` (blocks when at capacity)."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        env = store.env
        self.env = env
        self.callbacks = []
        self._ok = True
        self._defused = False
        self.item = item
        items = store.items
        if not store._put_queue and (
            store.capacity is None or len(items) < store.capacity
        ):
            # Immediate admit — the overwhelmingly common case.  Inline
            # of ``succeed()`` + the dispatch pass this operation would
            # trigger: the put fires first, then any blocked getters, so
            # wake order is identical to the general loop below.
            items.append(item)
            self._value = None
            env._schedule_event(self, NORMAL)
            gets = store._get_queue
            while gets and items:
                gets.popleft().succeed(items.popleft())
            if len(items) > store.peak:
                store.peak = len(items)
            if store.watcher is not None:
                store.watcher(store)
        else:
            self._value = _PENDING
            store._put_queue.append(self)
            store._dispatch()


class StoreGet(Event):
    """Pending get from a :class:`Store` (blocks when empty)."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        env = store.env
        self.env = env
        self.callbacks = []
        self._ok = True
        self._defused = False
        items = store.items
        if items and not store._get_queue:
            # Item ready — inline of ``succeed(item)`` + the dispatch
            # pass: this get fires first, then the space it freed admits
            # blocked puts, matching the general loop's wake order.
            self._value = items.popleft()
            env._schedule_event(self, NORMAL)
            puts = store._put_queue
            if puts:
                capacity = store.capacity
                while puts and (capacity is None or len(items) < capacity):
                    put = puts.popleft()
                    items.append(put.item)
                    put.succeed()
            if len(items) > store.peak:
                store.peak = len(items)
            if store.watcher is not None:
                store.watcher(store)
        else:
            self._value = _PENDING
            store._get_queue.append(self)
            store._dispatch()


class Store:
    """FIFO object buffer with blocking get/put.

    ``capacity=None`` means unbounded (puts never block).  A ``watcher``
    callable, when provided, is invoked as ``watcher(store)`` after every
    level change — the adaptation monitors in :mod:`repro.core.adaptation`
    use this to observe queue lengths without polling.
    """

    def __init__(
        self,
        env: Environment,
        capacity: Optional[int] = None,
        watcher: Optional[Callable[["Store"], None]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()
        self.watcher = watcher
        # peak level, for perturbation diagnostics
        self.peak = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Current number of buffered items."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; fires once space is available."""
        return StorePut(self, item)

    def offer(self, item: Any) -> bool:
        """Non-blocking put: True when ``item`` was admitted immediately.

        The synchronous twin of :meth:`put` for producers that only yield
        the put event to *wait out backpressure*: when the store has room
        (and no earlier put is queued — FIFO admission must hold), the
        item lands now and no kernel event is minted or scheduled, saving
        the producer's wake on the hottest paths (transport delivery, the
        workload driver).  Blocked getters are woken exactly as the
        :class:`StorePut` fast path would wake them.  Returns False —
        admitting nothing — when the put would block; the caller falls
        back to ``yield store.put(item)``.
        """
        items = self.items
        if self._put_queue or (
            self.capacity is not None and len(items) >= self.capacity
        ):
            return False
        items.append(item)
        gets = self._get_queue
        while gets and items:
            gets.popleft().succeed(items.popleft())
        if len(items) > self.peak:
            self.peak = len(items)
        if self.watcher is not None:
            self.watcher(self)
        return True

    def get(self) -> StoreGet:
        """Remove and return the oldest item; fires once available."""
        return StoreGet(self)

    def try_get(self) -> Any:
        """Non-blocking get; raises :class:`SimulationError` if empty."""
        if not self.items:
            raise SimulationError("try_get on empty store")
        item = self.items.popleft()
        self._dispatch()
        return item

    def crash_drain(self) -> list:
        """Fail-stop support: empty the store, waking every blocked peer.

        Models the store's owner dying: buffered items are lost (returned
        to the caller so failure injectors can account for or salvage
        them), every *blocked put is succeeded with its item dropped* (a
        producer must not deadlock against a dead consumer's full inbox),
        and pending gets are discarded (their waiting processes are
        expected to have been interrupted by the same crash).
        """
        lost = list(self.items)
        self.items.clear()
        while self._put_queue:
            put = self._put_queue.popleft()
            lost.append(put.item)
            put.succeed()
        self._get_queue.clear()
        if self.watcher is not None:
            self.watcher(self)
        return lost

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # admit pending puts while below capacity
            while self._put_queue and (
                self.capacity is None or len(self.items) < self.capacity
            ):
                put = self._put_queue.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # satisfy pending gets while items exist
            while self._get_queue and self.items:
                get = self._get_queue.popleft()
                get.succeed(self.items.popleft())
                progress = True
        if len(self.items) > self.peak:
            self.peak = len(self.items)
        if self.watcher is not None:
            self.watcher(self)
