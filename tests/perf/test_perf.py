"""Tests for the perf instrumentation package (counters, LRU, taps)."""

import pytest

from repro.orb import World
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.perf import COUNTERS, LRUCache, PerfCounters, WireStats, snapshot


class TestLRUCache:
    def test_get_put_and_len(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert len(cache) == 1
        assert "a" in cache

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_and_miss_counters(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 2
        assert cache.misses == 1

    def test_clear(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_put_existing_key_updates_without_evicting(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    # -- the admission rule ---------------------------------------------

    @staticmethod
    def _bypassed_after_miss(cache, probes=1):
        """One admitted lookup that probes ``probes`` keys and finds
        nothing; then count the lookups the rule bypasses."""
        assert cache.admit()
        for _ in range(probes):
            assert cache.get(object()) is None
        cache.missed()
        skipped = 0
        while not cache.admit():
            skipped += 1
        return skipped

    def test_first_misses_never_skip(self):
        cache = LRUCache(maxsize=4)
        assert [self._bypassed_after_miss(cache) for _ in range(8)] == [0] * 8

    def test_skip_length_follows_the_schedule_and_its_cap(self):
        cache = LRUCache(maxsize=4)
        skips = [self._bypassed_after_miss(cache) for _ in range(14)]
        assert skips == [0] * 8 + [2, 4, 8, 8, 8, 8]
        assert cache.misses == 14  # bypassed lookups are not probes

    def test_a_lookup_counts_one_miss_however_many_keys_it_probes(self):
        cache = LRUCache(maxsize=4)
        skips = [self._bypassed_after_miss(cache, probes=16) for _ in range(10)]
        assert skips == [0] * 8 + [2, 4]

    def test_a_hit_resets_the_count(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        for _ in range(12):
            self._bypassed_after_miss(cache)
        assert cache.get("a") == 1
        assert [self._bypassed_after_miss(cache) for _ in range(9)] == [0] * 8 + [2]

    def test_clear_resets_the_count(self):
        cache = LRUCache(maxsize=4)
        for _ in range(11):
            self._bypassed_after_miss(cache)
        cache.missed()  # opens an 8-lookup bypass
        cache.clear()
        assert cache.admit()
        assert self._bypassed_after_miss(cache) == 0

    def test_without_admit_it_is_a_plain_lru(self):
        cache = LRUCache(maxsize=4)
        for key in range(100):
            assert cache.get(key) is None
        assert cache.admit()


class TestPerfCounters:
    def test_one_field_table_drives_slots_reset_and_snapshot(self):
        counters = PerfCounters()
        for index, name in enumerate(PerfCounters.__slots__):
            setattr(counters, name, index + 1)
        snap = counters.snapshot()
        assert [snap[name] for name in PerfCounters.__slots__] == list(
            range(1, len(PerfCounters.__slots__) + 1)
        )
        counters.reset()
        assert not any(counters.snapshot().values())
        # What bench/worker.py reads is all still on the panel.
        for stem in ("any_span", "ctx_cache", "ior_parse"):
            assert {f"{stem}_hits", f"{stem}_misses", f"{stem}_hit_rate"} <= set(snap)
        assert {"sched_admitted", "sched_shed"} <= set(snap)

    def test_snapshot_derived_rates(self):
        counters = PerfCounters()
        counters.ior_parse_hits = 3
        counters.ior_parse_misses = 1
        counters.note_actuation(0.25)
        counters.note_actuation(0.75)
        snap = counters.snapshot()
        assert snap["ior_parse_hit_rate"] == pytest.approx(0.75)
        assert snap["ctl_actuation_time_mean"] == pytest.approx(0.5)

    def test_snapshot_rates_with_no_traffic(self):
        snap = PerfCounters().snapshot()
        assert snap["ior_parse_hit_rate"] == 0.0
        assert snap["ctl_actuation_time_mean"] == 0.0

    def test_snapshot_includes_pipeline_counters(self):
        counters = PerfCounters()
        counters.pipeline_windows = 2
        counters.pipeline_messages = 8
        counters.note_inflight(5)
        counters.note_inflight(3)  # peak never regresses
        counters.pipeline_out_of_order = 1
        snap = counters.snapshot()
        assert snap["pipeline_windows"] == 2
        assert snap["pipeline_messages"] == 8
        assert snap["pipeline_messages_per_window"] == pytest.approx(4.0)
        assert snap["pipeline_inflight_peak"] == 5
        assert snap["pipeline_out_of_order"] == 1


class _Echo(Servant):
    _repo_id = "IDL:perf/Echo:1.0"

    def echo(self, value):
        return value


class _EchoStub(Stub):
    def echo(self, value):
        return self._call("echo", value)


class TestWireStats:
    def _world(self):
        world = World()
        world.lan(["client", "server"], latency=0.001)
        ior = world.orb("server").poa.activate_object(_Echo())
        return world, _EchoStub(world.orb("client"), ior)

    def test_observer_counts_served_traffic(self):
        # The wire-observer hook fires on the serving ORB: requests in,
        # replies out.
        world, stub = self._world()
        stats = WireStats().attach(world.orb("server"))
        stub.echo("x")
        stub.echo("y")
        assert stats.messages_in == 2
        assert stats.messages_out == 2
        assert stats.bytes_in > 0
        assert stats.bytes_out > 0

    def test_detach_stops_counting(self):
        world, stub = self._world()
        stats = WireStats().attach(world.orb("server"))
        stub.echo("x")
        seen = stats.messages_in
        stats.detach(world.orb("server"))
        stub.echo("y")
        assert stats.messages_in == seen

    def test_snapshot_merges_global_counters(self):
        world, stub = self._world()
        stats = WireStats().attach(world.orb("server"))
        COUNTERS.reset()
        stub.echo("hello")
        snap = stats.snapshot()
        assert snap["messages_in"] == 1
        assert snap["messages_out"] == 1
        # Args and result, each encoded once and decoded once.
        assert snap["any_span_hits"] + snap["any_span_misses"] == 4

    def test_hot_loop_hits_wire_caches(self):
        world, stub = self._world()
        COUNTERS.reset()
        for _ in range(10):
            stub.echo("payload")
        # Steady-state: the same target IOR and the same (empty) service
        # contexts recur, so the IOR parse and the request preamble
        # replay; ``ctx_cache_*`` counts exactly those preamble replays
        # (one first-call miss on the client, nine hits).
        assert COUNTERS.ior_parse_hits > COUNTERS.ior_parse_misses
        assert (COUNTERS.ctx_cache_hits, COUNTERS.ctx_cache_misses) == (9, 1)


class TestModuleSnapshot:
    """The one-call ``repro.perf.snapshot`` instrument panel."""

    def test_global_snapshot_matches_counters(self):
        assert snapshot() == COUNTERS.snapshot()

    def test_orb_snapshot_merges_broker_figures(self):
        world = World()
        world.lan(["client", "server"], latency=0.001)
        ior = world.orb("server").poa.activate_object(_Echo())
        client = world.orb("client")
        stub = _EchoStub(client, ior)
        stub.echo("one")
        future = stub.send_deferred("echo", "two")
        panel = snapshot(client)
        assert panel["host"] == "client"
        assert panel["requests_invoked"] == 2
        assert panel["oneway_failures"] == 0
        assert panel["backpressure_hints_observed"] == 0
        assert panel["ami_inflight"] == 1
        assert panel["ami_queued"] == 1
        assert future.result() == "two"
        panel = snapshot(client)
        assert panel["ami_inflight"] == 0
        assert panel["ami_inflight_peak"] == 1
        # The global counter block is still present alongside.
        assert "pipeline_windows" in panel

    def test_oneway_failures_surface(self):
        world = World()
        world.lan(["client", "server"], latency=0.001)

        class _Fire(Servant):
            _repo_id = "IDL:perf/Fire:1.0"

            def ping(self):
                return None

        class _FireStub(Stub):
            _oneway_ops = frozenset({"ping"})

            def ping(self):
                return self._call("ping")

        ior = world.orb("server").poa.activate_object(_Fire())
        client = world.orb("client")
        stub = _FireStub(client, ior)
        world.faults.crash("server")
        stub.ping()  # best-effort: swallowed, but counted
        assert snapshot(client)["oneway_failures"] == 1


class TestNetsimSnapshot:
    """Kernel/network instrument panels merged into ``snapshot()``."""

    def _world(self):
        world = World()
        world.lan(["client", "server"], latency=0.001)
        ior = world.orb("server").poa.activate_object(_Echo())
        return world, _EchoStub(world.orb("client"), ior)

    def test_orb_snapshot_includes_kernel_and_network_panels(self):
        world, stub = self._world()
        stub.echo("x")
        stub.echo("y")
        panel = snapshot(world.orb("client"))
        assert panel["net_messages_sent"] == world.network.messages_sent
        assert panel["net_bytes_sent"] > 0
        assert "kernel_events_fired" in panel
        assert "kernel_live_peak" in panel

    def test_route_cache_hit_rate_exported(self):
        world, stub = self._world()
        for _ in range(5):
            stub.echo("x")
        panel = snapshot(world=world)
        assert panel["net_route_cache_misses"] >= 1
        assert panel["net_route_cache_hits"] > panel["net_route_cache_misses"]
        assert 0.0 < panel["net_route_cache_hit_rate"] <= 1.0

    def test_explicit_world_without_orb(self):
        world, _ = self._world()
        world.kernel.schedule(1.0, lambda: None)
        world.kernel.run()
        panel = snapshot(world=world)
        assert panel["kernel_events_fired"] == 1
        assert panel["kernel_pending"] == 0
        # Global counter block still present alongside.
        assert "fluid_flowlets" in panel

    def test_fluid_counters_in_global_panel(self):
        from repro.netsim.fluid import Flowlet, FluidTier

        COUNTERS.reset()
        world, _ = self._world()
        tier = FluidTier(world.network, world.kernel)
        tier.start(Flowlet("client", "server", 25_000))
        world.kernel.run()
        panel = snapshot(world=world)
        assert panel["fluid_flowlets"] == 1
        assert panel["fluid_completions"] == 1
        assert panel["fluid_flowlet_bytes"] == 25_000
        assert panel["net_fluid_link_bytes"] == 25_000
