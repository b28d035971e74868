"""Object transfer between node stores and the fetch-or-reconstruct path."""

import numpy as np

import repro
from repro.common.serialization import deserialize, serialize
from repro.core.transfer import striped_copy


class TestStripedCopy:
    def test_copy_preserves_content(self):
        value = serialize(np.arange(100_000))
        copy = striped_copy(value, chunk_bytes=4096)
        np.testing.assert_array_equal(deserialize(copy), np.arange(100_000))

    def test_copy_is_independent(self):
        value = serialize(b"payload" * 1000)
        copy = striped_copy(value)
        assert copy.buffers is not value.buffers
        assert copy.total_bytes == value.total_bytes

    def test_small_chunk_sizes(self):
        value = serialize(bytes(range(256)))
        for chunk in (1, 3, 64, 10_000):
            assert deserialize(striped_copy(value, chunk_bytes=chunk)) == bytes(
                range(256)
            )


class TestTransferService:
    def test_transfer_replicates_and_registers_location(self, runtime):
        ref = repro.put(np.ones(1000))  # lands on the driver node
        src = runtime.driver_node
        dst = [n for n in runtime.nodes() if n is not src][0]
        assert not dst.store.contains(ref.object_id)
        assert runtime.transfer.transfer(ref.object_id, dst)
        assert dst.store.contains(ref.object_id)
        assert dst.node_id in runtime.gcs.get_object_locations(ref.object_id)
        assert runtime.transfer.transfer_count == 1
        assert runtime.transfer.bytes_transferred > 0

    def test_transfer_to_holder_is_noop(self, runtime):
        ref = repro.put(1)
        src = runtime.driver_node
        count = runtime.transfer.transfer_count
        assert runtime.transfer.transfer(ref.object_id, src)
        assert runtime.transfer.transfer_count == count

    def test_transfer_with_no_copy_returns_false(self, runtime):
        from repro.common.ids import ObjectID

        dst = runtime.nodes()[1]
        assert not runtime.transfer.transfer(ObjectID.from_seed("ghost"), dst)

    def test_live_locations_excludes_dead_nodes(self, runtime):
        ref = repro.put(2)
        src = runtime.driver_node
        dst = [n for n in runtime.nodes() if n is not src][0]
        runtime.transfer.transfer(ref.object_id, dst)
        assert len(runtime.transfer.live_locations(ref.object_id)) == 2
        runtime.kill_node(dst.node_id)
        assert runtime.transfer.live_locations(ref.object_id) == {src.node_id}


class TestFetcher:
    def test_ensure_local_is_idempotent(self, runtime):
        ref = repro.put(np.zeros(10))
        dst = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        runtime.fetcher.ensure_local(ref.object_id, dst)
        runtime.fetcher.ensure_local(ref.object_id, dst)
        assert dst.store.contains(ref.object_id)

    def test_fetch_waits_for_future_creation(self, runtime):
        """Fetching an object that does not exist yet subscribes and
        completes when the producer publishes it (Figure 7b)."""
        import threading
        import time

        @repro.remote
        def produce():
            time.sleep(0.1)
            return "late"

        ref = produce.remote()
        value = repro.get(ref, timeout=10)
        assert value == "late"

    def test_publication_racing_the_subscription(self, runtime):
        """A location published on another thread can run the fetch's
        callback before ``subscribe`` returns its handle; the fetch must
        still complete and leave no subscription behind."""
        ref = repro.put(np.zeros(10))
        dst = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        src_id = runtime.driver_node.node_id
        gcs = runtime.gcs
        subscribe = gcs.subscribe_object_locations

        def racing_subscribe(object_id, callback):
            unsubscribe = subscribe(object_id, callback)
            callback("add", src_id)  # the racing publication
            return unsubscribe

        before = gcs.num_subscriptions()
        gcs.subscribe_object_locations = racing_subscribe
        try:
            runtime.fetcher.ensure_local(ref.object_id, dst)
        finally:
            gcs.subscribe_object_locations = subscribe
        assert dst.store.contains(ref.object_id)
        assert gcs.num_subscriptions() == before
