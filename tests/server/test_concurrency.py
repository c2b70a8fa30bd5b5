"""Thread-safety of the serving tier: the readers-writer lock, the
append/query hammer (no torn reads, materialized views serving every
read through concurrent appends), the registry lock, and concurrent
clients answered exactly like in-process requests."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import Dataset, GeoService
from repro.api.geojson import region_to_geojson
from repro.server import EdgeCache, GeoClient, GeoHTTPServer
from repro.util.sync import RWLock

from tests.server.conftest import answer, build_dataset, make_rows, read_shapes, wire_query


def polygon_shapes(polygons) -> list[dict]:  # noqa: ANN001
    return read_shapes([region_to_geojson(polygon) for polygon in polygons])


def canonical(envelope: dict) -> str:
    """The answer part of an envelope as text, so NaN equals NaN."""
    return json.dumps(answer(envelope), sort_keys=True)


def run_clients(server, plans: list[list[dict]]) -> list[list[object]]:  # noqa: ANN001
    """One thread and one keep-alive connection per plan; the replies
    of each plan in order."""
    replies: list[list[object]] = [[] for _ in plans]
    errors: list[Exception] = []

    def client(index: int) -> None:
        try:
            with GeoClient.for_server(server) as connected:
                for payload in plans[index]:
                    replies[index].append(connected.query(payload))
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(index,)) for index in range(len(plans))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert not any(thread.is_alive() for thread in threads)
    return replies


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=10)

        def reader() -> None:
            with lock.read():
                inside.wait()  # all three must be inside at once

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_is_exclusive(self):
        lock = RWLock()
        active = []
        torn = []

        def writer() -> None:
            with lock.write():
                active.append("w")
                if len(active) > 1:
                    torn.append(tuple(active))
                time.sleep(0.002)
                active.remove("w")

        def reader() -> None:
            with lock.read():
                if "w" in active:
                    torn.append(tuple(active))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert torn == []

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: once a writer queues, fresh readers wait,
        so sustained query traffic cannot starve appends."""
        lock = RWLock()
        reader_entered = threading.Event()
        release_reader = threading.Event()
        writer_done = threading.Event()
        late_reader_ran = threading.Event()
        order: list[str] = []

        def long_reader() -> None:
            with lock.read():
                reader_entered.set()
                release_reader.wait(timeout=10)

        def writer() -> None:
            with lock.write():
                order.append("writer")
            writer_done.set()

        def late_reader() -> None:
            with lock.read():
                order.append("late_reader")
            late_reader_ran.set()

        first = threading.Thread(target=long_reader)
        first.start()
        reader_entered.wait(timeout=10)
        blocked_writer = threading.Thread(target=writer)
        blocked_writer.start()
        time.sleep(0.05)  # let the writer reach its wait
        late = threading.Thread(target=late_reader)
        late.start()
        time.sleep(0.05)
        assert not late_reader_ran.is_set()  # queued behind the writer
        release_reader.set()
        for thread in (first, blocked_writer, late):
            thread.join(timeout=10)
        assert order == ["writer", "late_reader"]


class TestAppendQueryHammer:
    """The satellite gate: every response observed during a concurrent
    append is bit-identical to the pre-append or the post-append
    answer, keyed by its stamped version -- torn states would produce a
    version-2 body that matches neither."""

    def test_no_torn_reads_under_concurrent_append(self, small_base, kind):
        service = GeoService()
        service.register("small", build_dataset(small_base, kind))
        rows = make_rows()
        pre = answer(service.run_dict(wire_query()))
        assert pre["version"] == 1
        with GeoHTTPServer(service, port=0, edge=EdgeCache(ttl=600.0)) as server:
            replies = []
            errors = []

            def reader() -> None:
                try:
                    with GeoClient.for_server(server) as client:
                        for _ in range(25):
                            replies.append(client.query(wire_query()))
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.03)  # let readers overlap the write
            with GeoClient.for_server(server) as writer:
                appended = writer.append(rows, dataset="small")
            for thread in threads:
                thread.join(timeout=30)
            assert errors == []
            assert appended.status == 200
            assert appended.body["version"] == 2
        post = answer(service.run_dict(wire_query()))
        assert post["version"] == 2
        assert len(replies) == 100
        for reply in replies:
            assert reply.status == 200
            got = answer(reply.body)
            assert got == (pre if reply.body["version"] == 1 else post)

    def test_versions_monotone_per_reader(self, small_base):
        service = GeoService()
        service.register("small", build_dataset(small_base, "geoblock"))
        with GeoHTTPServer(service, port=0, edge=EdgeCache(ttl=600.0)) as server:
            per_reader: list[list[int]] = [[] for _ in range(3)]

            def reader(index: int) -> None:
                with GeoClient.for_server(server) as client:
                    for _ in range(20):
                        per_reader[index].append(client.query(wire_query()).body["version"])

            threads = [threading.Thread(target=reader, args=(index,)) for index in range(3)]
            for thread in threads:
                thread.start()
            with GeoClient.for_server(server) as writer:
                for seed in (11, 12):
                    writer.append(make_rows(count=10, seed=seed), dataset="small")
            for thread in threads:
                thread.join(timeout=30)
        for seen in per_reader:
            assert seen == sorted(seen)

    def test_every_read_served_by_a_view_during_appends(self, small_base, small_polygons, kind):
        """Pinned views on every read shape, one writer appending four
        batches beside four readers: each read is an MV hit, equals the
        sequential replay at its stamped version, and versions never go
        back within a reader."""
        shapes = polygon_shapes(small_polygons[:1])
        batches = [make_rows(count=50, seed=seed) for seed in (21, 22, 23, 24)]
        replay = GeoService()
        replay.register("small", build_dataset(small_base, kind, result_cache=False))
        truth = {}
        for version in range(1, len(batches) + 2):
            if version > 1:
                replay.dataset("small").append(batches[version - 2])
            for index, payload in enumerate(shapes):
                truth[(index, version)] = canonical(replay.run_dict(payload))

        service = GeoService()
        service.register("small", build_dataset(small_base, kind))
        for index, payload in enumerate(shapes):
            assert service.run_dict(dict(payload, op="materialize", name=f"mv-{index}"))["ok"]
        with GeoHTTPServer(service, port=0, edge=EdgeCache(ttl=600.0, stale_ttl=600.0)) as server:
            plan = [index % len(shapes) for index in range(12)]
            written = []

            def write() -> None:
                with GeoClient.for_server(server) as writer:
                    for rows in batches:
                        written.append(writer.append(rows, dataset="small").status)

            writer_thread = threading.Thread(target=write)
            writer_thread.start()
            replies = run_clients(server, [[shapes[index] for index in plan]] * 4)
            writer_thread.join(timeout=60)
        assert written == [200] * len(batches)
        assert service.dataset("small").version == len(batches) + 1
        for got in replies:
            versions = [reply.body["version"] for reply in got]
            assert versions == sorted(versions)
            for index, reply in zip(plan, got):
                assert reply.status == 200
                assert reply.body["stats"]["mv"]["cached"] == 1
                assert canonical(reply.body) == truth[(index, reply.body["version"])]


class TestRegistryLock:
    def test_concurrent_register_and_lookup(self, small_base):
        """Registering datasets while other threads iterate and query
        never raises and never loses a registration."""
        service = GeoService()
        service.register("small", build_dataset(small_base, "geoblock"))
        dataset = service.dataset("small")
        errors = []
        stop = threading.Event()

        def registrar(index: int) -> None:
            try:
                for step in range(10):
                    service.register(f"extra_{index}_{step}", Dataset(dataset.handle))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def scanner() -> None:
            try:
                while not stop.is_set():
                    for name in service.names:
                        assert name in service
                    list(service)  # iterating datasets must never tear
                    service.versions()
                    service.run_dict(wire_query())
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        writers = [threading.Thread(target=registrar, args=(index,)) for index in range(4)]
        readers = [threading.Thread(target=scanner) for _ in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        assert errors == []
        assert len(service) == 1 + 4 * 10


class TestConcurrentClients:
    @pytest.mark.parametrize("clients", [1, 4, 16])
    def test_replies_equal_in_process_answers(self, small_base, small_polygons, clients):
        """48 requests over 16 distinct bodies, split round-robin over
        ``clients`` connections: every reply equals in-process
        ``run_dict`` on the same body."""
        service = GeoService()
        service.register("small", build_dataset(small_base, "geoblock", result_cache=False))
        distinct = polygon_shapes(small_polygons[:8])
        truth = [canonical(service.run_dict(payload)) for payload in distinct]
        indices = list(range(len(distinct))) * 3
        plans = [indices[client::clients] for client in range(clients)]
        with GeoHTTPServer(service, port=0) as server:
            replies = run_clients(server, [[distinct[index] for index in plan] for plan in plans])
        assert sum(len(got) for got in replies) == 48
        for plan, got in zip(plans, replies):
            for index, reply in zip(plan, got):
                assert reply.status == 200
                assert canonical(reply.body) == truth[index]
