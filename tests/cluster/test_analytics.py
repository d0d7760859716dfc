"""Analytics requests through the cluster router: routed, replicated,
verified, deterministic."""

import json

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.service import ServiceClient, ServiceConfig

N = 2048


def dataset(seed=7):
    rng = np.random.default_rng(seed)
    return {
        "age": rng.integers(0, 64, N).astype(np.int64),
        "income": rng.integers(0, 256, N).astype(np.int64),
        "region": rng.integers(0, 8, N).astype(np.int64),
    }


def run_workload(n_nodes, replicas, data):
    router = ClusterRouter(ClusterConfig(n_nodes=n_nodes))
    client = ServiceClient(router)
    client.register_tenant("t", replicas=replicas)
    client.load_bitslice_column("t", "age", data["age"], 6)
    client.load_bitslice_column("t", "income", data["income"], 8)
    client.load_bitmap_index("t", "region", data["region"], 8)
    handles = [
        client.analyze("t", [("cmp", "age", "lt", 30, 6)], ("count",)),
        client.analyze(
            "t",
            [("cmp", "age", "ge", 30, 6), ("range", "region", 2, 5)],
            ("sum", "income", 8),
        ),
        client.analyze(
            "t", [("cmp", "income", "gt", 100, 8)], ("hist", "region", 8)
        ),
    ]
    client.run()
    return router, handles


def expected(data):
    m1 = data["age"] < 30
    m2 = (
        (data["age"] >= 30) & (data["region"] >= 2) & (data["region"] <= 5)
    )
    m3 = data["income"] > 100
    hist = tuple(int(x) for x in np.bincount(data["region"][m3], minlength=8))
    return [
        (int(m1.sum()), float(m1.sum()), None),
        (int(m2.sum()), float(data["income"][m2].sum()), None),
        (int(m3.sum()), float(sum(hist)), hist),
    ]


class TestClusterAnalytics:
    def test_single_node_pass_through(self):
        data = dataset()
        router, handles = run_workload(1, 1, data)
        for handle, (pc, value, groups) in zip(handles, expected(data)):
            assert handle.result().popcount == pc
            assert handle.result().value == value
            assert handle.result().groups == groups
        assert router.verify_results() == 3

    def test_replicated_reads(self):
        data = dataset()
        router, handles = run_workload(4, 2, data)
        for handle, (pc, value, groups) in zip(handles, expected(data)):
            assert handle.result().popcount == pc
            assert handle.result().value == value
            assert handle.result().groups == groups
        assert router.verify_results() == 3

    def test_repeat_runs_byte_identical(self):
        data = dataset()

        def digest():
            _, handles = run_workload(4, 4, data)
            return json.dumps(
                [h.result().to_dict() for h in handles], sort_keys=True
            )

        assert digest() == digest()

    def test_flipped_mask_bit_fails_verification(self):
        """The cluster's oracle check compares kept analytics mask
        bits, not only the popcount, value and groups."""
        data = dataset()
        router = ClusterRouter(
            ClusterConfig(n_nodes=2, service=ServiceConfig(keep_bits=True))
        )
        client = ServiceClient(router)
        client.register_tenant("t", replicas=2)
        client.load_bitslice_column("t", "age", data["age"], 6)
        client.analyze("t", [("cmp", "age", "lt", 30, 6)], ("count",))
        client.run()
        assert router.verify_results() == 1
        (result,) = router.results
        mask = (data["age"] < 30).astype(np.uint8)
        assert np.array_equal(result.bits, mask)
        result.bits[0] ^= 1  # popcount, value and groups still match
        with pytest.raises(AssertionError, match="bits differ"):
            router.verify_results()

    def test_plain_and_analytics_mix(self):
        data = dataset()
        router = ClusterRouter(ClusterConfig(n_nodes=4))
        client = ServiceClient(router)
        client.register_tenant("t", replicas=2)
        client.load_bitslice_column("t", "age", data["age"], 6)
        client.load_bitmap_index("t", "region", data["region"], 8)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, N, dtype=np.uint8)
        y = rng.integers(0, 2, N, dtype=np.uint8)
        client.load_vectors("t", {"x": x, "y": y})
        hq = client.query("t", "and", ("x", "y"))
        ha = client.analyze("t", [("cmp", "age", "le", 10, 6)], ("count",))
        hr = client.range_query("t", "region", 0, 3)
        client.run()
        assert hq.result().popcount == int((x & y).sum())
        assert ha.result().popcount == int((data["age"] <= 10).sum())
        assert hr.result().popcount == int((data["region"] <= 3).sum())
        assert router.verify_results() == 3

    def test_replicated_repeats_replay_byte_identical(self):
        """Routed analyze with replicated heads stays byte-identical
        once the node engines' analytics compilers start replaying."""
        data = dataset()
        router = ClusterRouter(ClusterConfig(n_nodes=4))
        client = ServiceClient(router)
        client.register_tenant("t", replicas=2)
        client.load_bitslice_column("t", "age", data["age"], 6)
        client.load_bitmap_index("t", "region", data["region"], 8)

        spec = ([("cmp", "age", "lt", 30, 6), ("range", "region", 2, 5)],
                ("count",))
        want = int(
            ((data["age"] < 30) & (data["region"] >= 2)
             & (data["region"] <= 5)).sum()
        )
        digests = []
        for t in range(1, 13):
            handle = client.analyze("t", *spec, at=float(t))
            client.run()
            result = handle.result()
            assert result.popcount == want
            digests.append(
                json.dumps(
                    {
                        k: v
                        for k, v in result.to_dict().items()
                        if k not in (
                            "request_id",
                            "arrival_s",
                            "done_s",
                            "batch_id",
                        )
                    },
                    sort_keys=True,
                )
            )
        # the router alternates between the two replica heads, so each
        # node serves every other request; once both nodes are replaying,
        # same-node repeats are byte-identical
        assert digests[-1] == digests[-3]
        assert digests[-2] == digests[-4]
        replays = sum(
            node.service.engine.analytics_compiler.stats.replays
            for node in router.nodes.values()
            if hasattr(node.service.engine, "analytics_compiler")
        )
        assert replays >= 1
        assert router.verify_results() == len(digests)
