"""Fail-fast supervision of a run's long-lived tasks.

Every queue of the live path is bounded, so a consumer task that raised
leaves its producers blocked for ever: the run would hang where it used
to limp on.  A :class:`TaskSupervisor` owns the tasks of one run and
makes the first exception among them the run's outcome.
"""

from __future__ import annotations

import asyncio
from typing import Any, Coroutine, Optional, Set, TypeVar

__all__ = ["TaskSupervisor"]

T = TypeVar("T")


class TaskSupervisor:
    """A set of tasks of which none may fail quietly."""

    def __init__(self) -> None:
        #: the tasks still running (a finished one leaves the set, so
        #: a link's short waits do not pile up for the run's lifetime)
        self.tasks: Set[asyncio.Task] = set()
        self._failure: Optional[asyncio.Future] = None

    def _failed(self) -> asyncio.Future:
        if self._failure is None:
            self._failure = asyncio.get_running_loop().create_future()
        return self._failure

    def spawn(self, coro: Coroutine[Any, Any, Any]) -> asyncio.Task:
        """Start ``coro`` as a supervised task."""
        task = asyncio.create_task(coro)
        task.add_done_callback(self._on_done)
        self.tasks.add(task)
        return task

    def _on_done(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.fail(task.exception())  # type: ignore[arg-type]

    def fail(self, exc: BaseException) -> None:
        """Make ``exc`` the outcome, as a supervised task's would be —
        for work no supervisor spawned (a link's read callback).
        The first failure wins."""
        if not self._failed().done():
            self._failed().set_exception(exc)

    async def guard(self, coro: Coroutine[Any, Any, T]) -> T:
        """Run ``coro`` to completion — unless a supervised task raises
        first: then ``coro`` is cancelled and that exception raised."""
        failure = self._failed()
        body = asyncio.create_task(coro)
        try:
            await asyncio.wait({body, failure}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            if not body.done():
                body.cancel()
                await asyncio.gather(body, return_exceptions=True)
        if failure.done():
            if not body.cancelled():
                body.exception()  # retrieved: the task failure wins
            raise failure.exception()  # type: ignore[misc]
        return body.result()

    async def cancel(self) -> None:
        """Cancel whatever still runs and wait for it (idempotent)."""
        tasks, self.tasks = self.tasks, set()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._failure is not None and self._failure.done():
            self._failure.exception()  # retrieved: no "never retrieved" log
