"""Physical cluster layout: cores, sockets, nodes and the interconnect.

The layout serves two purposes:

1. Thread placement — every simulated OpenMP thread is pinned to a
   :class:`Core`, which owns the thread's monotonic clock and receives that
   core's OS noise.
2. Network distances — the interconnect is a fixed two-level tree (nodes
   under leaf switches under one root switch) whose hop counts
   (:meth:`Cluster.hops_between`) :class:`repro.mpi.network.NetworkModel`
   turns into per-hop latency between ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class Core:
    """A single hardware thread context.

    Identified globally by ``(node_id, socket_id, core_id)``.
    """

    node_id: int
    socket_id: int
    core_id: int
    frequency_ghz: float = 2.9

    @property
    def global_id(self) -> Tuple[int, int, int]:
        """Globally unique identifier of the core."""
        return (self.node_id, self.socket_id, self.core_id)

    @property
    def seconds_per_cycle(self) -> float:
        """Duration of one clock cycle in seconds."""
        return 1.0e-9 / self.frequency_ghz


@dataclass
class Socket:
    """A CPU package holding ``cores_per_socket`` cores."""

    node_id: int
    socket_id: int
    cores: List[Core] = field(default_factory=list)

    @property
    def n_cores(self) -> int:
        return len(self.cores)


@dataclass
class Node:
    """A compute node: one or more sockets plus memory."""

    node_id: int
    sockets: List[Socket] = field(default_factory=list)
    memory_gb: float = 192.0

    @property
    def cores(self) -> List[Core]:
        """All cores of the node, socket-major order."""
        return [core for socket in self.sockets for core in socket.cores]

    @property
    def n_cores(self) -> int:
        return sum(socket.n_cores for socket in self.sockets)


class Cluster:
    """A set of identical nodes connected through a single-switch fabric.

    Parameters
    ----------
    n_nodes:
        Number of compute nodes.
    sockets_per_node, cores_per_socket:
        CPU layout of every node.
    frequency_ghz:
        Nominal core frequency.
    memory_gb:
        Memory per node (informational).
    name:
        Label used in reports.

    Notes
    -----
    The interconnect is modelled as a two-level tree: every node connects to a
    leaf switch, and leaf switches connect to a root switch (enough fidelity
    for hop-count based latency on a small job; the paper uses 8 processes).
    """

    def __init__(
        self,
        n_nodes: int = 1,
        *,
        sockets_per_node: int = 2,
        cores_per_socket: int = 24,
        frequency_ghz: float = 2.9,
        memory_gb: float = 192.0,
        nodes_per_switch: int = 32,
        name: str = "cluster",
    ) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if sockets_per_node < 1 or cores_per_socket < 1:
            raise ValueError("sockets_per_node and cores_per_socket must be >= 1")
        if nodes_per_switch < 1:
            raise ValueError("nodes_per_switch must be >= 1")
        self.name = name
        self.frequency_ghz = frequency_ghz
        self.nodes: List[Node] = []
        for node_id in range(n_nodes):
            sockets = []
            for socket_id in range(sockets_per_node):
                cores = [
                    Core(node_id, socket_id, core_id, frequency_ghz)
                    for core_id in range(cores_per_socket)
                ]
                sockets.append(Socket(node_id, socket_id, cores))
            self.nodes.append(Node(node_id, sockets, memory_gb))
        self.nodes_per_switch = nodes_per_switch

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cores_per_node(self) -> int:
        return self.nodes[0].n_cores

    @property
    def total_cores(self) -> int:
        return sum(node.n_cores for node in self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def cores_of(self, node_id: int) -> List[Core]:
        """All cores of a node in socket-major order (pinning order)."""
        return self.nodes[node_id].cores

    def iter_cores(self) -> Iterator[Core]:
        for node in self.nodes:
            yield from node.cores

    # ------------------------------------------------------------------
    def hops_between(self, node_a: int, node_b: int) -> int:
        """Number of network hops between two nodes on the two-level tree.

        0 on the same node, 2 under the same leaf switch (node → switch →
        node), 4 across switches (up through the root switch and down).
        """
        if node_a == node_b:
            return 0
        if node_a // self.nodes_per_switch == node_b // self.nodes_per_switch:
            return 2
        return 4

    def place_processes(
        self, n_processes: int, threads_per_process: int
    ) -> List[List[Core]]:
        """Assign cores to MPI processes, filling nodes in order.

        Mirrors a typical ``--map-by node --bind-to core`` launch: processes
        are packed onto nodes; each process gets ``threads_per_process``
        consecutive cores.  Raises if the cluster is too small.
        """
        if n_processes < 1 or threads_per_process < 1:
            raise ValueError("n_processes and threads_per_process must be >= 1")
        placements: List[List[Core]] = []
        node_idx = 0
        core_idx = 0
        for _ in range(n_processes):
            while (
                node_idx < self.n_nodes
                and core_idx + threads_per_process > self.nodes[node_idx].n_cores
            ):
                node_idx += 1
                core_idx = 0
            if node_idx >= self.n_nodes:
                raise ValueError(
                    f"cannot place {n_processes} processes × "
                    f"{threads_per_process} threads on {self.n_nodes} node(s) "
                    f"of {self.cores_per_node} cores"
                )
            cores = self.nodes[node_idx].cores[core_idx : core_idx + threads_per_process]
            placements.append(cores)
            core_idx += threads_per_process
        return placements

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster({self.name!r}, nodes={self.n_nodes}, "
            f"cores/node={self.cores_per_node}, {self.frequency_ghz} GHz)"
        )
