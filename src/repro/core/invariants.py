"""Opt-in runtime invariant monitor for the mirroring protocol.

:class:`InvariantMonitor` hangs off the hot paths behind ``if monitor is
not None`` checks — with ``MirrorConfig.check_invariants`` left at its
default (off) no monitor exists and the cost is one ``None`` test per
hook site.  Switched on, it asserts these safety properties at runtime;
the checkpoint model checker (:mod:`repro.analysis.modelcheck`) runs
this same monitor on every schedule it explores at small scale:

* **stamp monotonicity** — the receiving task sees strictly increasing
  sequence numbers per stream (the paper assumes in-stream order is
  captured by per-stream event ids);
* **mirrored-order monotonicity** — on-path mirror emissions never
  regress: per-stream sequence numbers are non-decreasing and each
  emitted event's vector timestamp dominates its predecessor's.
  End-of-stream *flush* emissions (partial tuples, coalesce buffers
  drained out of arrival order) are exempt by design and pass
  ``ordered=False``;
* **min-timestamp agreement** — a commit's vector equals the proposal
  floored by every collected reply, and every reply dominates it
  (the coordinator never commits past what some site voted);
* **trim safety / no lost update** — a site only trims with a vector its
  own processing dominates, and a trim removes exactly the covered
  prefix the preview predicted;
* **per-round agreement & per-site monotonicity** — all sites applying
  round *r* trim with the same vector, and the vectors a site applies
  never regress across rounds.

A violation raises :class:`InvariantViolation` immediately, naming the
hook and the offending values; there is no recovery path — a tripped
invariant means the mirroring implementation (often a user-supplied
``set_mirror`` function) is broken, not the run's input.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from .events import UpdateEvent, VectorTimestamp

__all__ = ["InvariantViolation", "InvariantMonitor"]


class InvariantViolation(RuntimeError):
    """A protocol safety property failed at runtime."""


class InvariantMonitor:
    """Shared, process-wide observer of one mirrored server's run.

    One instance watches every unit of a server (central and mirrors) —
    the cross-site checks (per-round agreement) need the global view.
    """

    __slots__ = (
        "_stamp_high",
        "_mirror_high",
        "_last_mirrored_vt",
        "_round_vts",
        "_site_commit",
        "violations_checked",
    )

    def __init__(self) -> None:
        self._stamp_high: Dict[str, int] = {}
        self._mirror_high: Dict[str, int] = {}
        self._last_mirrored_vt: Optional[VectorTimestamp] = None
        self._round_vts: Dict[int, VectorTimestamp] = {}
        self._site_commit: Dict[str, VectorTimestamp] = {}
        self.violations_checked = 0

    # -- central receiving task -----------------------------------------
    def on_stamped(self, stream: str, seqno: int) -> None:
        """The receiving task stamped event (stream, seqno)."""
        self.violations_checked += 1
        high = self._stamp_high.get(stream, 0)
        if seqno <= high:
            raise InvariantViolation(
                f"stamping order: stream {stream!r} event #{seqno} arrived "
                f"at/behind high-water mark #{high}"
            )
        self._stamp_high[stream] = seqno

    # -- central sending task -------------------------------------------
    def on_mirrored(self, event: UpdateEvent, ordered: bool = True) -> None:
        """An event left the rule pipeline for the mirror channel.

        ``ordered=False`` marks end-of-stream flush emissions, which may
        legitimately carry older timestamps than already-mirrored events
        (a held buffer drains after later arrivals went out); only the
        stamped-ness check applies to them.
        """
        self.violations_checked += 1
        if event.vt is None:
            raise InvariantViolation(
                f"unstamped event mirrored: {event!r} has no vector timestamp"
            )
        if not ordered:
            return
        high = self._mirror_high.get(event.stream, 0)
        if event.seqno < high:
            raise InvariantViolation(
                f"mirrored order: stream {event.stream!r} event #{event.seqno} "
                f"mirrored after #{high}"
            )
        self._mirror_high[event.stream] = event.seqno
        prev = self._last_mirrored_vt
        if prev is not None and not event.vt.dominates(prev):
            raise InvariantViolation(
                f"mirrored timestamp regression: {event.vt!r} after {prev!r} "
                f"(event {event!r})"
            )
        self._last_mirrored_vt = event.vt

    # -- checkpoint coordinator -------------------------------------------
    def on_commit_decided(
        self,
        proposal: VectorTimestamp,
        replies: Mapping[str, VectorTimestamp],
        commit_vt: VectorTimestamp,
    ) -> None:
        """The coordinator is about to emit a commit for ``commit_vt``."""
        self.violations_checked += 1
        expected = proposal
        for vt in replies.values():
            expected = expected.floor(vt)
        if expected != commit_vt:
            raise InvariantViolation(
                "min-timestamp agreement: committed "
                f"{commit_vt!r}, floor of proposal and replies is {expected!r}"
            )
        for site, vt in replies.items():
            if not vt.dominates(commit_vt):
                raise InvariantViolation(
                    f"commit {commit_vt!r} exceeds the vote {vt!r} of "
                    f"site {site!r} — that site would trim unprocessed events"
                )

    # -- commit application (every site) ----------------------------------
    def on_commit_applied(
        self,
        site: str,
        round_id: int,
        commit_vt: VectorTimestamp,
        processed_vt: VectorTimestamp,
        covered: int,
        removed: int,
    ) -> None:
        """Site ``site`` trimmed its backup queue for a commit.

        ``covered`` is the trim preview (:meth:`BackupQueue.covered_count`
        taken *before* the trim), ``removed`` the actual count removed.
        """
        self.violations_checked += 1
        if not processed_vt.dominates(commit_vt):
            raise InvariantViolation(
                f"lost update: {site!r} trimming with {commit_vt!r} but has "
                f"only processed {processed_vt!r}"
            )
        if covered != removed:
            raise InvariantViolation(
                f"trim mismatch at {site!r}: removed {removed} events, the "
                f"covered prefix was {covered}"
            )
        seen = self._round_vts.get(round_id)
        if seen is None:
            self._round_vts[round_id] = commit_vt
        elif seen != commit_vt:
            raise InvariantViolation(
                f"round {round_id} disagreement: {site!r} applied "
                f"{commit_vt!r}, another site applied {seen!r}"
            )
        prev = self._site_commit.get(site)
        if prev is not None and not commit_vt.dominates(prev):
            raise InvariantViolation(
                f"commit regression at {site!r}: {commit_vt!r} after {prev!r}"
            )
        self._site_commit[site] = commit_vt

    def last_commit(self, site: str) -> Optional[VectorTimestamp]:
        """The vector ``site`` last trimmed with (None: it has not)."""
        return self._site_commit.get(site)
