"""Leaf-spine fabric topology.

The paper's setting is an ACI-style data-center fabric: leaf switches hold
the policy TCAM and host endpoints, spine switches interconnect the leaves.
Policy enforcement happens at the leaves, so the risk models and the rule
deployment only involve leaf switches; the topology still models spines and
links because the scalability experiment and the use-case scenarios reason
about fabric size and reachability.

The topology is a validated adjacency map: a two-tier fabric needs nothing a
breadth-first walk does not give.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Dict, List, Set

from ..exceptions import FabricError

__all__ = ["SwitchRole", "LeafSpineTopology"]


class SwitchRole(str, enum.Enum):
    """Role of a switch inside the fabric."""

    LEAF = "leaf"
    SPINE = "spine"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LeafSpineTopology:
    """A two-tier Clos (leaf-spine) topology."""

    def __init__(self) -> None:
        self._roles: Dict[str, SwitchRole] = {}
        #: Per switch, its linked switches (a dict as an insertion-ordered set).
        self._links: Dict[str, Dict[str, None]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_switch(self, uid: str, role: SwitchRole) -> str:
        if uid in self._roles:
            raise FabricError(f"switch {uid!r} already present in topology")
        self._roles[uid] = role
        self._links[uid] = {}
        return uid

    def add_leaf(self, uid: str) -> str:
        return self.add_switch(uid, SwitchRole.LEAF)

    def add_spine(self, uid: str) -> str:
        return self.add_switch(uid, SwitchRole.SPINE)

    def add_link(self, a: str, b: str) -> None:
        for node in (a, b):
            if node not in self._roles:
                raise FabricError(f"cannot link unknown switch {node!r}")
        role_a = self._roles[a]
        role_b = self._roles[b]
        if role_a == role_b:
            raise FabricError(
                f"leaf-spine topology only links leaves to spines, got {role_a}-{role_b}"
            )
        self._links[a][b] = self._links[b][a] = None

    @classmethod
    def build(
        cls,
        num_leaves: int,
        num_spines: int = 2,
    ) -> "LeafSpineTopology":
        """Build a full-mesh leaf-spine fabric (every leaf to every spine)."""
        if num_leaves <= 0:
            raise FabricError(f"a fabric needs at least one leaf, got {num_leaves}")
        if num_spines <= 0:
            raise FabricError(f"a fabric needs at least one spine, got {num_spines}")
        topo = cls()
        spines = [topo.add_spine(f"spine-{i + 1}") for i in range(num_spines)]
        for i in range(num_leaves):
            leaf = topo.add_leaf(f"leaf-{i + 1}")
            for spine in spines:
                topo.add_link(leaf, spine)
        return topo

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _by_role(self, role: SwitchRole) -> List[str]:
        return sorted(node for node, held in self._roles.items() if held == role)

    def leaves(self) -> List[str]:
        return self._by_role(SwitchRole.LEAF)

    def spines(self) -> List[str]:
        return self._by_role(SwitchRole.SPINE)

    def _walk(self, src: str) -> Set[str]:
        """Breadth-first from ``src``: every switch reached."""
        reached = {src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for neighbor in self._links[node]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    queue.append(neighbor)
        return reached

    def is_connected(self) -> bool:
        if not self._roles:
            return False
        return len(self._walk(next(iter(self._roles)))) == len(self._roles)

    def validate(self) -> None:
        """Raise :class:`FabricError` if the fabric is not a usable leaf-spine."""
        if not self.leaves():
            raise FabricError("topology has no leaf switches")
        if not self.spines():
            raise FabricError("topology has no spine switches")
        if not self.is_connected():
            raise FabricError("topology is not connected")

    def summary(self) -> Dict[str, int]:
        return {
            "leaves": len(self.leaves()),
            "spines": len(self.spines()),
            "links": sum(len(linked) for linked in self._links.values()) // 2,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return f"LeafSpineTopology(leaves={s['leaves']}, spines={s['spines']}, links={s['links']})"
