"""Reference check: what the cluster did against what it had to do.

The expected side comes from :mod:`workloads` (an offline rule engine
over the generated events, ``Predicate.matches`` over what it mirrors);
the observed side is what arrived on the generator's sockets plus the
server's own counters.  Every discrepancy is a failed operation; the
run is *correct* only when none touches the outputs themselves — a
delivery that is merely later than the limit fails without making the
run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["Verdict", "check_deliveries", "check_requests", "check_server"]


@dataclass
class Verdict:
    """Failed-operation count plus the reasons the outputs are wrong."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def merge(self, other: "Verdict") -> None:
        """Fold in the verdict of another session of the same run."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def wrong(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} {what}")


def check_deliveries(
    verdict: Verdict,
    expected: Sequence[int],
    received: Sequence[int],
    unknown: int,
    late: int,
) -> None:
    """Set equality between owed and received deliveries.

    ``expected[i]`` is 1 where source event ``i`` owes the subscriber a
    delivery, ``received[i]`` how often it arrived; ``unknown`` counts
    pushes that name no source event at all, ``late`` deliveries past
    the latency limit.
    """
    verdict.attempted += len(expected)
    missing = duplicate = unexpected = 0
    for owed, got in zip(expected, received):
        if owed:
            if got == 0:
                missing += 1
            elif got > 1:
                duplicate += got - 1
        elif got:
            unexpected += got
    verdict.wrong(missing, "deliveries missing")
    verdict.wrong(duplicate, "deliveries duplicated")
    verdict.wrong(unexpected + unknown, "deliveries of events that were not to be delivered")
    verdict.failed += late


def check_requests(
    verdict: Verdict, answers: Sequence[int], unknown: int, late: int
) -> None:
    """Every request answered exactly once (``answers[j]`` = responses
    seen for request ``j``)."""
    verdict.attempted += len(answers)
    verdict.wrong(sum(1 for n in answers if n == 0), "requests unanswered")
    verdict.wrong(sum(n - 1 for n in answers if n > 1), "responses duplicated")
    verdict.wrong(unknown, "responses to requests never made")
    verdict.failed += late


def check_server(
    verdict: Verdict,
    received: int,
    mirrored: int,
    expected_received: int,
    expected_mirrored: int,
    digests: Sequence[str],
    replicas_must_agree: bool,
) -> None:
    """The server's own counts against the offline engine's, and — where
    every event is mirrored — one state digest across all replicas."""
    if (received, mirrored) != (expected_received, expected_mirrored):
        verdict.wrong(
            1,
            f"pass ratio off: server mirrored {mirrored} of {received}, "
            f"offline engine {expected_mirrored} of {expected_received}",
        )
    if replicas_must_agree and len(set(digests)) != 1:
        verdict.wrong(1, f"replica digests differ ({len(set(digests))} distinct)")
