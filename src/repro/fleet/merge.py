"""Gather: merge shard partial pools into the exact single-replica answer.

The single-replica union (:meth:`QueryExpander.score_terms`) iterates
term pools **in term order** and keeps, per user, the first pool entry
achieving the maximum score — so on a score tie the *earliest term's*
:class:`~repro.detector.ranking.RankedExpert` wins (its per-term
``features``/``zscores`` ride along).  Each scatter leg reduces its
slice under that rule and tags survivors with their **global term
index** (:class:`~repro.serving.service.PartialPool`); this merge
applies the identical rule across legs:

    highest score wins; equal scores go to the lowest global index.

Then the exact final steps of the serving path: sort by
``(-score, user_id)``, threshold with ``>=``, cap at ``max_results``.
Because every comparison is on values computed identically on every
replica (same artifact generation ⇒ bit-equal floats), the merged
ranking is byte-identical to what one replica scoring every term would
have returned — the property test in ``tests/test_fleet.py`` proves it
for arbitrary queries.

**A leg ships only its top** ``limit`` (its best ``limit`` users by
``(-score, user_id)``), and for any merge with ``max_results <= limit``
that loses nothing.  Suppose user U is in the merged top K through leg
L's entry.  Any user V ahead of U in L's own order has a leg score that
beats U's (or ties it with a smaller ``user_id``); V's merged score is
at least its leg score, and U's merged score *is* its L score, so V is
ahead of U in the merged order too.  Fewer than K users precede U in
the merged order, hence fewer than K precede it in L's: U is inside L's
top K and was shipped.  A user not in the merged top K is never looked
at.  ``score >= threshold`` keeps a prefix of the sorted list, so
cutting before thresholding is safe for every ``min_zscore``; and the
argument never mentions the other legs, so it holds for any surviving
subset of them — a degraded ``coverage < 1.0`` merge is exact over the
terms that answered.  The merge therefore refuses a pool cut at fewer
than its own ``max_results``: that one could be missing a winner.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.detector.ranking import RankedExpert
from repro.fleet.errors import (
    FleetError,
    FleetTenantMismatchError,
    FleetVersionSkewError,
)
from repro.serving.service import PartialPool

# analysis: exact-path


def merge_partials(
    pools: Iterable[PartialPool],
    *,
    threshold: float,
    max_results: int,
) -> Tuple[Tuple[RankedExpert, ...], int]:
    """Merge scatter legs; returns ``(experts, snapshot_version)``.

    Raises :class:`FleetVersionSkewError` when the legs answered from
    different snapshot versions (a promotion raced the scatter) — the
    router retries rather than serve a cross-generation ranking — and
    :class:`FleetError` for a pool cut below ``max_results``.
    """
    pools = list(pools)
    if not pools:
        raise FleetError("merge_partials needs at least one partial pool")
    tenants = sorted({pool.tenant for pool in pools})
    if len(tenants) > 1:
        raise FleetTenantMismatchError(
            f"scatter legs answered for different tenants {tenants}"
        )
    versions = sorted({pool.snapshot_version for pool in pools})
    if len(versions) > 1:
        raise FleetVersionSkewError(
            f"scatter legs answered from mixed snapshot versions {versions}"
        )
    shallow = [pool.limit for pool in pools if pool.limit < max_results]
    if shallow:
        raise FleetError(
            f"scatter legs cut at {shallow} cannot fill a merge of "
            f"max_results={max_results}"
        )
    best: Dict[int, Tuple[int, RankedExpert]] = {}
    for pool in pools:
        for index, expert in pool.entries:
            incumbent = best.get(expert.user_id)
            if (
                incumbent is None
                or expert.score > incumbent[1].score
                or (
                    expert.score == incumbent[1].score
                    and index < incumbent[0]
                )
            ):
                best[expert.user_id] = (index, expert)
    ranked: List[RankedExpert] = sorted(
        (entry[1] for entry in best.values()),
        key=lambda e: (-e.score, e.user_id),
    )
    kept = [expert for expert in ranked if expert.score >= threshold]
    return tuple(kept[:max_results]), versions[0]
