"""Unit tests for the cluster topology model."""

import pytest

from repro.cluster.topology import Cluster, Core


class TestCore:
    def test_global_id_and_cycle_time(self):
        core = Core(node_id=1, socket_id=0, core_id=5, frequency_ghz=2.0)
        assert core.global_id == (1, 0, 5)
        assert core.seconds_per_cycle == pytest.approx(0.5e-9)


class TestCluster:
    def test_manzano_like_layout(self):
        cluster = Cluster(2, sockets_per_node=2, cores_per_socket=24)
        assert cluster.n_nodes == 2
        assert cluster.cores_per_node == 48
        assert cluster.total_cores == 96

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Cluster(1, sockets_per_node=0)
        with pytest.raises(ValueError):
            Cluster(2, nodes_per_switch=0)

    def test_cores_ordered_socket_major(self):
        cluster = Cluster(1, sockets_per_node=2, cores_per_socket=3)
        sockets = [core.socket_id for core in cluster.cores_of(0)]
        assert sockets == [0, 0, 0, 1, 1, 1]

    def test_hops_zero_within_node(self):
        cluster = Cluster(4)
        assert cluster.hops_between(2, 2) == 0

    def test_hops_between_nodes_via_switch(self):
        cluster = Cluster(4)
        # node -> leaf switch -> node = 2 hops with a single switch level
        assert cluster.hops_between(0, 3) == 2

    def test_hops_across_switches(self):
        cluster = Cluster(64, nodes_per_switch=32)
        same_switch = cluster.hops_between(0, 1)
        cross_switch = cluster.hops_between(0, 63)
        assert cross_switch > same_switch

    def test_hops_match_the_two_level_tree_for_every_pair(self):
        # 7 nodes, 3 per leaf switch: switches hold {0,1,2}, {3,4,5}, {6}
        cluster = Cluster(
            7, sockets_per_node=1, cores_per_socket=1, nodes_per_switch=3
        )
        switch = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2}
        for a in range(7):
            for b in range(7):
                expected = 0 if a == b else (2 if switch[a] == switch[b] else 4)
                assert cluster.hops_between(a, b) == expected, (a, b)

    def test_runner_import_does_not_load_networkx(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys, repro.experiments.runner; "
            "sys.exit(1 if 'networkx' in sys.modules else 0)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr.decode()[-2000:]

    def test_place_processes_packs_nodes(self):
        cluster = Cluster(2, sockets_per_node=2, cores_per_socket=24)
        placements = cluster.place_processes(2, 48)
        assert len(placements) == 2
        assert placements[0][0].node_id == 0
        assert placements[1][0].node_id == 1
        assert all(len(cores) == 48 for cores in placements)

    def test_place_processes_multiple_per_node(self):
        cluster = Cluster(1, sockets_per_node=2, cores_per_socket=24)
        placements = cluster.place_processes(4, 12)
        assert [cores[0].core_id for cores in placements[:2]] == [0, 12]
        assert {cores[0].node_id for cores in placements} == {0}

    def test_place_processes_overflow_rejected(self):
        cluster = Cluster(1, sockets_per_node=1, cores_per_socket=8)
        with pytest.raises(ValueError, match="cannot place"):
            cluster.place_processes(2, 8)

    def test_iter_cores_covers_everything(self):
        cluster = Cluster(2, sockets_per_node=1, cores_per_socket=4)
        assert len(list(cluster.iter_cores())) == cluster.total_cores
