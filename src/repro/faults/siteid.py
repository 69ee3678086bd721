"""Shard-qualified site ids for the fault tooling.

A sharded cluster names its sites ``shard0/central``,
``shard0/mirror1`` — a shard name, a slash, the site's local name.  The
sim-backed chaos drills run one cluster at a time whose *local* site
names are bare (``central``), so a drill targeting a site inside a named
shard needs an explicit mapping rather than substring matching:
``shard1/central`` must never resolve against shard ``shard10`` (the
string-collision bug this module exists to prevent), and a qualified id
naming some *other* shard must fail loudly instead of silently hitting
the local site of the same name.
"""

from __future__ import annotations

from typing import Tuple

from ..shard.partition import SHARD_SEP, qualify_site

__all__ = ["qualify_site", "split_site", "resolve_site"]


def split_site(site_id: str) -> Tuple[str, str]:
    """Split a (possibly qualified) site id into ``(shard, local)``.

    Splits on the *first* separator only, so a nested name like
    ``shard0/mirror1`` yields ``("shard0", "mirror1")`` and a bare name
    yields ``("", name)``.
    """
    if SHARD_SEP not in site_id:
        return "", site_id
    shard, local = site_id.split(SHARD_SEP, 1)
    return shard, local


def resolve_site(site_id: str, shard: str) -> str:
    """Resolve ``site_id`` to a local site name inside ``shard``.

    Bare ids pass through (a drill written against an unsharded cluster
    runs unchanged inside any shard).  Qualified ids must name *exactly*
    this shard — comparison is on the full shard segment, never a
    prefix, so ``shard1/central`` cannot leak into ``shard10`` — and
    resolve to their local part.  A qualified id against the wrong shard
    (or against an unsharded cluster) raises ``ValueError``.
    """
    owner, local = split_site(site_id)
    if not owner:
        return site_id
    if owner != shard:
        where = f"shard {shard!r}" if shard else "an unsharded cluster"
        raise ValueError(
            f"site id {site_id!r} names shard {owner!r}, "
            f"but this scenario targets {where}"
        )
    return local
