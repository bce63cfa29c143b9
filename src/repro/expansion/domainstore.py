"""The collection of expertise domains and its exact-match index.

The paper stores its ~100 MB collection in SQL Server 2014 and queries it
"in a few milliseconds"; here the store keeps an in-memory hash index (and
can export itself as a relational table for the SQL engine, which is how
the offline pipeline accounts its output size for Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.community.partition import Partition
from repro.utils.text import phrase_key

if TYPE_CHECKING:
    from repro.relational.table import Table


@dataclass(frozen=True)
class ExpertiseDomain:
    """One community of related keywords."""

    domain_id: str
    keywords: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError(f"domain {self.domain_id!r} has no keywords")

    def __len__(self) -> int:
        return len(self.keywords)


class DomainStore:
    """Exact-match lookup from a query phrase to its domain (§5).

    *"We find the community which contains the query terms exactly and in
    order, after lower-casing."*  Keys are therefore normalised phrases;
    one keyword belongs to exactly one domain (the clustering emits a hard
    partition).
    """

    def __init__(self, domains: list[ExpertiseDomain]) -> None:
        self._domains: dict[str, ExpertiseDomain] = {}
        self._index: dict[str, str] = {}
        for domain in domains:
            if domain.domain_id in self._domains:
                raise ValueError(f"duplicate domain id {domain.domain_id!r}")
            self._domains[domain.domain_id] = domain
            for keyword in domain.keywords:
                key = phrase_key(keyword)
                # a later domain never steals an earlier domain's keyword
                self._index.setdefault(key, domain.domain_id)

    @classmethod
    def from_partition(cls, partition: Partition) -> "DomainStore":
        """Build the store straight from a clustering result.

        Domain ids are **canonical**: each domain is named after its
        smallest member keyword, not the clustering's internal community
        label.  Pointer-style iterations can hand the same member set a
        different label from run to run (label swaps at convergence),
        and the incremental refresh path re-derives labels locally;
        canonical ids make the store a pure function of the partition
        *structure*, so a full rebuild and a delta refresh that agree on
        membership produce identical stores — and a domain whose members
        did not change keeps its id across refreshes.
        """
        return cls.rebuilt(partition, cls([]))

    @classmethod
    def rebuilt(
        cls, partition: Partition, previous: "DomainStore"
    ) -> "DomainStore":
        """Rebuild from a partition, reusing every unchanged domain.

        The delta-refresh path re-clusters only a dirty region, so most
        domains survive a refresh with identical membership; those reuse
        the previous :class:`ExpertiseDomain` instances (no re-sort, and
        identity-comparable in tests), while only the affected domains
        are constructed anew.
        """
        domains = []
        for community in partition.communities():
            members = partition.members(community)
            candidate = previous._domains.get(min(members))
            if (
                candidate is not None
                and len(candidate.keywords) == len(members)
                and set(candidate.keywords) == members
            ):
                domains.append(candidate)
            else:
                keywords = tuple(sorted(members))
                domains.append(
                    ExpertiseDomain(domain_id=keywords[0], keywords=keywords)
                )
        domains.sort(key=lambda domain: domain.domain_id)
        return cls(domains)

    # -- lookup (§5 exact match) ---------------------------------------------

    def lookup(self, query: str) -> ExpertiseDomain | None:
        """The domain containing ``query`` exactly, or ``None``."""
        domain_id = self._index.get(phrase_key(query))
        return self._domains[domain_id] if domain_id is not None else None

    def expand(self, query: str) -> list[str]:
        """Expansion terms for ``query`` (the query itself when unmatched)."""
        domain = self.lookup(query)
        if domain is None:
            return [phrase_key(query)]
        key = phrase_key(query)
        others = [kw for kw in domain.keywords if phrase_key(kw) != key]
        return [key] + others

    # -- introspection ----------------------------------------------------------

    def domains(self) -> list[ExpertiseDomain]:
        return [self._domains[did] for did in sorted(self._domains)]

    @property
    def domain_count(self) -> int:
        return len(self._domains)

    @property
    def keyword_count(self) -> int:
        return len(self._index)

    def known_keywords(self) -> list[str]:
        """Every normalised phrase the exact-match index can resolve."""
        return list(self._index)

    def to_table(self) -> Table:
        """Relational export: ``domains(domain_id, keyword)``."""
        # imported here so a serving process never loads the SQL engine
        from repro.relational.schema import Schema
        from repro.relational.table import Table

        rows = [
            (domain_id, keyword)
            for domain_id in sorted(self._domains)
            for keyword in self._domains[domain_id].keywords
        ]
        return Table(Schema.of("domain_id", "keyword"), rows)

    def storage_bytes(self) -> int:
        """Approximate serialised size — 'about 100 MB' in the paper."""
        return self.to_table().estimated_bytes()

    # -- persistence (the paper stores the collection in SQL Server) --------

    def save(self, path) -> int:
        """Persist the collection as a typed TSV; returns bytes written."""
        from repro.relational.io import save_table

        return save_table(self.to_table(), path)

    @classmethod
    def load(cls, path) -> "DomainStore":
        """Load a collection previously written by :meth:`save`.

        Loaded domains are **validated and canonicalised**: every
        pipeline-built store names each domain after its smallest member
        keyword (see :meth:`from_partition`), and :meth:`rebuilt`'s
        instance-reuse looks domains up by that canonical id — so a
        hand-edited or legacy TSV whose ids drifted (``c42``-style
        clustering labels, renamed domains) must not bypass the
        invariant.  Duplicate keywords within a domain are collapsed; a
        keyword claimed by two different domains is a hard error (the
        clustering emits a hard partition, so such a file is corrupt,
        and silently letting one domain steal the keyword would make
        load order semantically load-bearing).
        """
        from repro.relational.io import load_table

        table = load_table(path)
        members: dict[str, list[str]] = {}
        for domain_id, keyword in table.rows:
            members.setdefault(domain_id, []).append(keyword)
        claimed: dict[str, str] = {}
        domains: list[ExpertiseDomain] = []
        for legacy_id, keywords in sorted(members.items()):
            ordered = tuple(sorted(set(keywords)))
            for keyword in ordered:
                key = phrase_key(keyword)
                other = claimed.setdefault(key, legacy_id)
                if other != legacy_id:
                    raise ValueError(
                        f"keyword {keyword!r} appears in two domains "
                        f"({other!r} and {legacy_id!r}); a domain "
                        "collection is a hard partition"
                    )
            domains.append(
                ExpertiseDomain(domain_id=ordered[0], keywords=ordered)
            )
        domains.sort(key=lambda domain: domain.domain_id)
        return cls(domains)

    def __repr__(self) -> str:
        return (
            f"DomainStore(domains={self.domain_count}, "
            f"keywords={self.keyword_count})"
        )
