"""Consistent model placement via rendezvous (HRW) hashing.

Every (model, replica) pair gets a deterministic 63-bit weight from
:func:`repro.utils.seeding.derive_seed`; a model's placement set is the
top ``replication`` replicas by weight. Rendezvous hashing gives the
two properties a serving ring wants without a token ring's bookkeeping:

* **Stability** — a model's placement depends only on the pair weights,
  so adding or removing *other* replicas never moves a model between
  surviving replicas (minimal disruption: a removed replica's models
  redistribute, nothing else shifts).
* **Determinism** — the router, the supervisor, and any external
  observer compute identical placements from (seed, members,
  replication) alone; no coordination state to replicate or persist.

Replica ids are stable strings (``r0``..``rN-1``) that survive process
respawn, so a recovered replica re-enters the ring owning exactly the
placement set it held before the crash — which is what makes warm
migration (preload before readmission) well-defined.
"""

from __future__ import annotations

import threading

from repro.utils.seeding import derive_seed

__all__ = ["PlacementRing"]


class PlacementRing:
    """Rendezvous-hash placement of models over replica ids.

    ``replication`` is the target copies per model; actual placement
    sets are ``min(replication, len(members))`` wide. Membership edits
    and reads are thread-safe; weights are pure functions of
    ``(seed, model, replica)`` so there is no cached state to migrate.
    """

    def __init__(
        self,
        members: "list[str] | None" = None,
        replication: int = 2,
        seed: int = 0x47454F,  # "GEO"
    ):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        self.seed = seed
        self._lock = threading.Lock()  # guards: _members
        self._members: list[str] = list(members or [])

    # -- membership -----------------------------------------------------------

    def add(self, replica_id: str) -> None:
        with self._lock:
            if replica_id not in self._members:
                self._members.append(replica_id)

    def remove(self, replica_id: str) -> None:
        with self._lock:
            if replica_id in self._members:
                self._members.remove(replica_id)

    def members(self) -> list[str]:
        with self._lock:
            return sorted(self._members)

    def __contains__(self, replica_id: str) -> bool:
        with self._lock:
            return replica_id in self._members

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    # -- placement ------------------------------------------------------------

    def weight(self, model: str, replica_id: str) -> int:
        """The rendezvous weight of placing ``model`` on ``replica_id``."""
        return derive_seed(self.seed, "cluster.placement", model, replica_id)

    def placement(self, model: str, members: "list[str] | None" = None) -> list[str]:
        """The model's replica set, highest weight first.

        The order is meaningful: index 0 is the model's *primary* — the
        router prefers earlier entries among routable replicas with
        equal inflight load. Passing
        ``members`` computes a hypothetical placement (used to preview
        the set a recovering replica must warm before readmission).
        """
        pool = self.members() if members is None else sorted(members)
        ranked = sorted(
            pool, key=lambda rid: (-self.weight(model, rid), rid)
        )
        return ranked[: self.replication]

    def placements(self, models: "list[str]") -> dict[str, list[str]]:
        """Placement sets for many models against one membership view."""
        pool = self.members()
        return {m: self.placement(m, members=pool) for m in models}

    def models_for(
        self, replica_id: str, models: "list[str]"
    ) -> list[str]:
        """The subset of ``models`` whose placement includes the replica —
        the set a respawned replica must warm before rejoining. Computed
        against full membership (including ``replica_id`` itself), so a
        dead-but-recovering replica sees the set it will own once back."""
        pool = self.members()
        if replica_id not in pool:
            pool = sorted(pool + [replica_id])
        return [
            m for m in models if replica_id in self.placement(m, members=pool)
        ]
