"""One memoised explorer for the protocol model checkers.

A checker describes a bounded protocol scenario as a :class:`Model`:
how to build the first world, which actions a world enables, how one
action changes a world, a key that is equal for worlds with the same
future, and what must hold once no action is left.  :func:`explore`
walks **every** schedule of actions depth-first, cloning the world at
each branch and memoising on the key, so the count of complete
schedules it reports is exact while the work grows only with the number
of distinct states.

A safety property that fails on the way raises
:class:`ModelCheckViolation` with the schedule that reached it.  A step
may raise it itself or let the runtime monitor's
:class:`~repro.core.invariants.InvariantViolation` escape; the explorer
turns the latter into the former.  Schedules print one action per line
(:func:`serialize_schedule`) and :func:`replay_schedule` re-executes
one on a fresh world, so a printed counterexample is a reproducer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Protocol, Sequence, Tuple,
)

from ..core.invariants import InvariantViolation

__all__ = [
    "Model",
    "ModelCheckReport",
    "ModelCheckViolation",
    "explore",
    "parse_schedule",
    "replay_schedule",
    "serialize_schedule",
]

Action = Tuple[Any, ...]


class ModelCheckViolation(AssertionError):
    """A safety property failed on some schedule."""

    def __init__(self, message: str, trace: Optional[List[str]] = None):
        super().__init__(message)
        self.trace: List[str] = list(trace or [])


class Model(Protocol):
    """What a checker supplies; :func:`explore` does the rest.

    A world is any deep-copyable object; objects it shares (a monitor
    every site reports to, say) stay shared within each copy.  A step
    or the terminal check raises :class:`ModelCheckViolation`, or lets
    the runtime monitor's ``InvariantViolation`` escape, when a property
    fails.
    """

    def initial(self) -> Any:
        """The world before the first action."""

    def actions(self, world: Any) -> List[Action]:
        """The actions enabled in ``world``; none: ``world`` is terminal."""

    def step(self, world: Any, action: Action) -> None:
        """Apply ``action`` to ``world`` in place."""

    def key(self, world: Any) -> Hashable:
        """Equal for worlds whose futures are the same."""

    def check_terminal(self, world: Any) -> None:
        """Check a world no action is left in."""


@dataclass(frozen=True)
class ModelCheckReport:
    """Result of an exhaustive check (violation-free, or it would have
    raised): the counts of the check's first sweep, those of its lossy
    sweep when it has one, and the lines :meth:`render` prints."""

    title: str
    lines: Tuple[str, ...]
    interleavings: int
    states: int
    lossy_interleavings: int = 0
    lossy_states: int = 0
    handoffs: int = 0

    def render(self) -> str:
        return "\n".join((self.title,) + tuple(f"  {line}" for line in self.lines))


def _run(trace: List[str], call: Callable[..., None], *args: Any) -> None:
    """``call(*args)``, with a failure raised as a violation carrying
    ``trace``."""
    try:
        call(*args)
    except ModelCheckViolation as violation:
        violation.trace = list(trace)
        raise
    except InvariantViolation as exc:
        raise ModelCheckViolation(str(exc), trace) from exc


def _line(action: Action) -> str:
    return " ".join(str(part) for part in action)


def explore(model: Model) -> Tuple[int, int]:
    """Every schedule of ``model``; returns (complete schedules,
    distinct states).  Raises :class:`ModelCheckViolation` on the first
    schedule that breaks a property."""
    memo: Dict[Hashable, int] = {}
    trace: List[str] = []

    def visit(world: Any) -> int:
        key = model.key(world)
        cached = memo.get(key)
        if cached is not None:
            return cached
        actions = model.actions(world)
        if not actions:
            _run(trace, model.check_terminal, world)
            total = 1
        else:
            total = 0
            for action in actions:
                branch = copy.deepcopy(world)
                trace.append(_line(action))
                _run(trace, model.step, branch, action)
                total += visit(branch)
                trace.pop()
        memo[key] = total
        return total

    return visit(model.initial()), len(memo)


# -- schedules as replayable text --------------------------------------


def serialize_schedule(trace: Sequence[str]) -> str:
    """One action per line, exactly as the violation trace prints them."""
    return "\n".join(trace)


def parse_schedule(text: str) -> List[Action]:
    """Inverse of :func:`serialize_schedule`: action tuples again."""
    return [
        tuple(int(part) if part.isdigit() else part for part in line.split())
        for line in text.splitlines()
        if line.strip()
    ]


def replay_schedule(model: Model, schedule: str) -> Optional[ModelCheckViolation]:
    """Re-execute a serialized schedule on a fresh world of ``model``.

    Returns the violation it reproduces (with the replayed trace
    attached), or None when the schedule completes cleanly or diverges
    — an action it names is not enabled where it stands, as when a
    mutant's counterexample is replayed against the fixed protocol.
    """
    world = model.initial()
    trace: List[str] = []
    try:
        for action in parse_schedule(schedule):
            if action not in model.actions(world):
                return None
            trace.append(_line(action))
            _run(trace, model.step, world, action)
        if not model.actions(world):
            _run(trace, model.check_terminal, world)
    except ModelCheckViolation as violation:
        return violation
    return None
