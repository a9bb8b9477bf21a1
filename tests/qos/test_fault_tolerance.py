"""Tests for the fault-tolerance characteristic: replica groups."""

import pytest

from repro.orb.exceptions import BAD_PARAM, COMM_FAILURE, TRANSIENT
from repro.orb.modules.base import binding_key
from repro.qos.fault_tolerance import (
    FaultToleranceImpl,
    FaultToleranceMediator,
    ReplicaGroupManager,
)
from tests.qos.conftest import make_counter_class


@pytest.fixture
def manager(world, gen):
    return ReplicaGroupManager(world, "counter", make_counter_class(gen))


@pytest.fixture
def group3(world, manager, gen):
    for host in ("a", "b", "c"):
        manager.add_replica(host)
    stub = manager.bind_client(world.orb("client"), gen.CounterStub)
    return manager, stub


class TestMembership:
    def test_add_replicas(self, manager):
        manager.add_replica("a")
        manager.add_replica("b")
        assert manager.hosts() == ["a", "b"]

    def test_duplicate_host_rejected(self, manager):
        manager.add_replica("a")
        with pytest.raises(ValueError):
            manager.add_replica("a")

    def test_membership_broadcast(self, group3):
        manager, _ = group3
        for host in manager.hosts():
            impl = manager.replica(host).qos_impl("FaultTolerance")
            assert impl.replicas == 3
            assert len(impl.members()) == 3

    def test_remove_replica(self, group3):
        manager, _ = group3
        manager.remove_replica("b")
        assert manager.hosts() == ["a", "c"]
        impl = manager.replica("a").qos_impl("FaultTolerance")
        assert impl.replicas == 2

    def test_remove_tolerates_only_an_already_deactivated_key(self, group3, monkeypatch):
        manager, _ = group3
        key = manager.member_ior("b").profile.object_key
        manager.world.orb("b").poa.deactivate_object(key)
        manager.remove_replica("b")
        assert manager.hosts() == ["a", "c"]
        assert manager.replica("a").qos_impl("FaultTolerance").replicas == 2

        def broken(object_key):
            raise RuntimeError("object map corrupted")

        monkeypatch.setattr(manager.world.orb("c").poa, "deactivate_object", broken)
        with pytest.raises(RuntimeError, match="object map corrupted"):
            manager.remove_replica("c")

    def test_remove_unknown_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.remove_replica("z")

    def test_empty_group_has_no_ior(self, manager):
        with pytest.raises(ValueError):
            manager.group_ior()


class TestStateTransfer:
    def test_new_replica_initialised_from_live_member(self, world, manager, gen):
        manager.add_replica("a")
        stub = manager.bind_client(world.orb("client"), gen.CounterStub)
        stub.increment()
        stub.increment()
        manager.add_replica("b")
        assert manager.replica("b").count == 2
        assert manager.state_transfers == 1

    def test_transfer_skips_crashed_members(self, world, manager, gen):
        manager.add_replica("a")
        manager.add_replica("b")
        stub = manager.bind_client(world.orb("client"), gen.CounterStub)
        stub.increment()
        world.faults.crash("a")
        manager.add_replica("c")
        assert manager.replica("c").count == 1

    def test_transfer_fails_when_all_members_dead(self, world, manager):
        manager.add_replica("a")
        world.faults.crash("a")
        with pytest.raises(COMM_FAILURE):
            manager.add_replica("b")


class TestCrashMasking:
    def test_all_replicas_stay_consistent(self, group3):
        manager, stub = group3
        stub.increment()
        stub.increment()
        assert [manager.replica(h).count for h in manager.hosts()] == [2, 2, 2]

    def test_k_availability(self, world, group3):
        _, stub = group3
        stub.increment()
        world.faults.crash("a")
        assert stub.value() == 1
        world.faults.crash("b")
        assert stub.value() == 1  # one replica left: still served

    def test_total_failure_surfaces(self, world, group3):
        _, stub = group3
        for host in ("a", "b", "c"):
            world.faults.crash(host)
        with pytest.raises((COMM_FAILURE, TRANSIENT)):
            stub.value()

    def test_majority_masks_value_fault(self, world, manager, gen):
        for host in ("a", "b", "c"):
            manager.add_replica(host)
        stub = manager.bind_client(world.orb("client"), gen.CounterStub, policy="majority")
        corrupt = manager.replica("b")
        corrupt.value = lambda: 999_999
        assert stub.value() == 0

    def test_mediator_retries_on_transient(self, world, group3):
        _, stub = group3
        mediator = stub._get_mediator()
        assert isinstance(mediator, FaultToleranceMediator)
        # A lossy path makes individual sends fail; the group + retry
        # still gets an answer through.
        link = world.network.link_between("client", "a")
        world.faults.set_loss(link, 0.4)
        results = [stub.value() for _ in range(10)]
        assert all(result == 0 for result in results)


class TestImpl:
    def test_masking_policy_validation(self):
        impl = FaultToleranceImpl()
        impl.set_masking_policy("majority")
        assert impl.get_masking_policy() == "majority"
        with pytest.raises(BAD_PARAM):
            impl.set_masking_policy("quorum")

    def test_join_leave_group(self):
        impl = FaultToleranceImpl()
        impl.join_group("IOR:aa")
        impl.join_group("IOR:bb")
        impl.join_group("IOR:aa")  # idempotent
        assert impl.replicas == 2
        impl.leave_group("IOR:aa")
        assert impl.members() == ["IOR:bb"]

    def test_group_ior_policy_validated(self, manager):
        manager.add_replica("a")
        with pytest.raises(BAD_PARAM):
            manager.group_ior(policy="quorum")

    def test_group_ior_records_members(self, group3):
        manager, _ = group3
        ior = manager.group_ior()
        from repro.orb.ior import GROUP_TAG

        assert len(ior.component(GROUP_TAG).data["members"]) == 3
        assert ior.qos_characteristics() == ["FaultTolerance"]
