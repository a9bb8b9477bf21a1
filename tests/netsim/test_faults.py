"""Tests for fault injection."""

import pytest

from repro.netsim.faults import FaultInjector
from repro.netsim.kernel import EventKernel, KernelError
from repro.netsim.network import HostCrashed, Network, NoRoute


@pytest.fixture
def world():
    kernel = EventKernel()
    net = Network(kernel.clock)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b")
    return kernel, net, FaultInjector(net, kernel)


class TestImmediateFaults:
    def test_crash_blocks_sends(self, world):
        _, net, faults = world
        faults.crash("b")
        with pytest.raises(HostCrashed):
            net.send("a", "b", 1)

    def test_recover_restores(self, world):
        _, net, faults = world
        faults.crash("b")
        faults.recover("b")
        assert net.send("a", "b", 1) >= 0

    def test_recover_resets_queue(self, world):
        kernel, net, faults = world
        net.host("b").occupy(0.0, 100.0)
        kernel.clock.advance_to(5.0)
        faults.crash("b")
        faults.recover("b")
        assert net.host("b").busy_until == 5.0

    def test_partition_and_heal(self, world):
        _, net, faults = world
        faults.partition({"a"}, {"b"})
        with pytest.raises(NoRoute):
            net.send("a", "b", 1)
        faults.heal()
        assert net.send("a", "b", 1) >= 0

    def test_set_loss_validates_rate(self, world):
        _, net, faults = world
        with pytest.raises(ValueError):
            faults.set_loss(net.link_between("a", "b"), 1.0)

    def test_log_records_events(self, world):
        _, _, faults = world
        faults.crash("b")
        faults.recover("b")
        assert [entry for _, entry in faults.log] == ["crash b", "recover b"]


class TestScheduledFaults:
    def test_crash_schedule_crashes_and_recovers(self, world):
        kernel, net, faults = world
        faults.crash_schedule([(1.0, 2.0, "b")])
        kernel.run_until(1.5)
        assert net.host("b").crashed
        kernel.run_until(2.5)
        assert not net.host("b").crashed

    def test_permanent_crash(self, world):
        kernel, net, faults = world
        faults.crash_schedule([(1.0, float("inf"), "b")])
        kernel.run_until(100.0)
        assert net.host("b").crashed

    def test_invalid_schedule_rejected(self, world):
        _, _, faults = world
        with pytest.raises(ValueError):
            faults.crash_schedule([(2.0, 1.0, "b")])

    @pytest.mark.parametrize(
        "schedule, error",
        [
            ([(1.0, 2.0, "a"), (3.0, 2.5, "b")], ValueError),
            ([(1.0, float("nan"), "a")], ValueError),
            ([(float("nan"), 2.0, "a")], KernelError),
            ([(1.0, 2.0, "a"), (-1.0, float("inf"), "b")], KernelError),
        ],
        ids=["recover-before-crash", "nan-recover", "nan-crash", "past-crash"],
    )
    def test_rejected_schedule_queues_nothing(self, world, schedule, error):
        kernel, net, faults = world
        with pytest.raises(error):
            faults.crash_schedule(schedule)
        assert kernel.pending == 0
        kernel.run()
        assert not net.host("a").crashed

    def test_scheduling_without_kernel_rejected(self):
        net = Network()
        net.add_host("x")
        faults = FaultInjector(net)
        with pytest.raises(RuntimeError):
            faults.crash_at(1.0, "x")

    def test_partition_heal_and_loss_schedule(self, world):
        kernel, net, faults = world
        link = net.link_between("a", "b")
        faults.partition_at(1.0, {"a"}, {"b"})
        faults.heal_at(2.0)
        faults.set_loss_at(3.0, link, 0.5)
        kernel.run_until(1.5)
        with pytest.raises(NoRoute):
            net.send("a", "b", 1)
        kernel.run_until(2.5)
        assert net.send("a", "b", 1) >= 0
        assert link.loss_rate == 0.0
        kernel.run_until(3.5)
        assert link.loss_rate == 0.5

    def test_set_loss_at_validates_rate_up_front(self, world):
        kernel, net, faults = world
        with pytest.raises(ValueError):
            faults.set_loss_at(1.0, net.link_between("a", "b"), 1.0)


class TestScheduledFaultLogTimes:
    def test_log_records_scheduled_fire_time(self, world):
        """The log keeps the *scheduled* instant even when a workload
        event at the same kernel step advanced the clock far past it —
        the re-entrancy that used to stamp apply time instead."""
        kernel, net, faults = world

        def busy_workload():
            # A synchronous step that runs before the fault fires and
            # drags the clock way beyond the fault's scheduled time.
            kernel.clock.advance(10.0)

        kernel.schedule_at(0.5, busy_workload)
        faults.crash_at(1.0, "b")
        faults.recover_at(2.0, "b")
        faults.partition_at(3.0, {"a"}, {"b"})
        faults.heal_at(4.0)
        faults.set_loss_at(5.0, net.link_between("a", "b"), 0.25)
        kernel.run()
        assert [time for time, _ in faults.log] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert [entry.split()[0] for _, entry in faults.log] == [
            "crash",
            "recover",
            "partition",
            "heal",
            "loss",
        ]

    def test_crash_schedule_log_interleaves_deterministically(self, world):
        kernel, _, faults = world
        faults.crash_schedule([(1.0, 3.0, "b"), (2.0, 4.0, "a")])
        kernel.run()
        assert faults.log == [
            (1.0, "crash b"),
            (2.0, "crash a"),
            (3.0, "recover b"),
            (4.0, "recover a"),
        ]

    def test_immediate_faults_still_stamp_clock_time(self, world):
        kernel, _, faults = world
        kernel.clock.advance_to(7.5)
        faults.crash("b")
        assert faults.log == [(7.5, "crash b")]
