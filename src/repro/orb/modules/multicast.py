"""Group-communication module for replica groups.

Section 6: "a multicast on network layer can be used for k-availability
as well as for diversity through majority votes on results".  This
module fans one logical request out to every member of a replica group
(recorded in the target IOR's group component) and combines the
replies under a per-binding policy:

- ``first``     — return the earliest successful reply (k-availability:
  the call succeeds while at least one replica is up).
- ``all``       — require every member to answer (strict active
  replication; any unreachable replica fails the call).
- ``majority``  — vote on the reply values and return the majority
  result (diversity: masks value faults, not just crashes).

Fan-out is modelled as parallel: every member receives the request at
the same departure instant, and the combined completion time depends
on the policy (earliest reply for ``first``, the vote-deciding reply
for ``majority``, the slowest for ``all``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.orb import giop
from repro.orb.exceptions import BAD_PARAM, COMM_FAILURE, SystemException, TRANSIENT
from repro.orb.ior import GROUP_TAG, IOR
from repro.orb.modules.base import QoSModule
from repro.orb.request import Request

POLICIES = ("first", "all", "majority")
DEFAULT_POLICY = "first"


class MemberOutcome:
    """What one replica did with the fanned-out request."""

    __slots__ = ("member", "reply", "finish", "error")

    def __init__(
        self,
        member: IOR,
        reply: Optional[giop.Reply],
        finish: Optional[float],
        error: Optional[SystemException],
    ) -> None:
        self.member = member
        self.reply = reply
        self.finish = finish
        self.error = error

    @property
    def responded(self) -> bool:
        return self.reply is not None


def _vote_key(reply: giop.Reply) -> Tuple[str, str]:
    """A comparable identity for a reply's outcome (result or exception)."""
    if reply.exception is not None:
        repo_id = getattr(reply.exception, "repo_id", type(reply.exception).__name__)
        return ("exception", f"{repo_id}:{reply.exception}")
    return ("result", repr(reply.result))


class MulticastModule(QoSModule):
    """Deliver requests to replica groups."""

    name = "multicast"
    description = "replica-group fan-out with first/all/majority combination"
    uses_envelope = False
    dynamic_ops = ("set_policy", "get_policy", "group_members")

    def __init__(self) -> None:
        super().__init__()
        self.fanouts = 0
        self.member_failures = 0

    # -- dynamic interface ------------------------------------------------

    def set_policy(self, binding: str, policy: str) -> Dict[str, Any]:
        """Choose the reply-combination policy for a binding."""
        if policy not in POLICIES:
            raise BAD_PARAM(f"unknown policy {policy!r}; choose from {POLICIES}")
        return self.configure_binding(binding, policy=policy)

    def get_policy(self, binding: str) -> str:
        return self.binding_config(binding).get("policy", DEFAULT_POLICY)

    def group_members(self, group_ior_string: str) -> List[str]:
        """Member host names of a group reference (introspection)."""
        ior = IOR.from_string(group_ior_string)
        return [member.profile.host for member in self._members(ior)]

    # -- group plumbing ----------------------------------------------------

    @staticmethod
    def _members(target: IOR) -> List[IOR]:
        component = target.component(GROUP_TAG)
        if component is None:
            raise BAD_PARAM(
                "multicast module needs a group reference "
                "(IOR lacks the group component)"
            )
        members = component.data.get("members", [])
        if not members:
            raise BAD_PARAM("group reference has an empty member list")
        return [IOR.from_string(text) for text in members]

    # -- data plane ----------------------------------------------------------

    def send_request(self, orb: Any, request: Request) -> giop.Reply:
        members = self._members(request.target)
        policy = self.context_for(request).get("policy", DEFAULT_POLICY)
        outcomes = self._fan_out(orb, request, members)
        self.fanouts += 1
        self.member_failures += sum(1 for o in outcomes if not o.responded)
        reply, finish = self._combine(policy, members, outcomes)
        orb.time_source.wait_until(finish)
        self.requests_sent += 1
        return reply

    def _fan_out(
        self, orb: Any, request: Request, members: List[IOR]
    ) -> List[MemberOutcome]:
        depart = orb.time_source.now()
        # Each member leg is a plain GIOP exchange; the group semantics
        # live in the combination policy, not in the legs.
        iiop = orb.qos_transport.iiop_module
        outcomes: List[MemberOutcome] = []
        for member in members:
            per_member = Request(
                member,
                request.operation,
                request.args,
                service_contexts=request.service_contexts,
            )
            reply, error, finish, _, _ = iiop.exchange(orb, per_member, depart)
            outcomes.append(
                MemberOutcome(member, reply, None if error else finish, error)
            )
        return outcomes

    def _combine(
        self,
        policy: str,
        members: List[IOR],
        outcomes: List[MemberOutcome],
    ) -> Tuple[giop.Reply, float]:
        responded = [o for o in outcomes if o.responded]
        if not responded:
            raise COMM_FAILURE(
                f"no replica of the group responded "
                f"({len(outcomes)} member(s) unreachable)"
            )
        if policy == "first":
            winner = min(responded, key=lambda o: o.finish)
            return winner.reply, winner.finish
        if policy == "all":
            if len(responded) < len(members):
                failed = [o.member.profile.host for o in outcomes if not o.responded]
                raise COMM_FAILURE(f"policy 'all': members unreachable: {failed}")
            slowest = max(responded, key=lambda o: o.finish)
            return slowest.reply, slowest.finish
        if policy == "majority":
            return self._majority(members, responded)
        raise BAD_PARAM(f"unknown policy {policy!r}")

    def _majority(
        self, members: List[IOR], responded: List[MemberOutcome]
    ) -> Tuple[giop.Reply, float]:
        threshold = len(members) // 2 + 1
        buckets: Dict[Tuple[str, str], List[MemberOutcome]] = {}
        for outcome in responded:
            buckets.setdefault(_vote_key(outcome.reply), []).append(outcome)
        for votes in buckets.values():
            if len(votes) >= threshold:
                # The decision lands when the vote that completes the
                # majority arrives: the threshold-th earliest reply.
                ordered = sorted(votes, key=lambda o: o.finish)
                decider = ordered[threshold - 1]
                return ordered[0].reply, decider.finish
        raise TRANSIENT(
            f"no majority among {len(responded)} replies "
            f"(need {threshold} of {len(members)})"
        )


from repro.orb.modules import register_module  # noqa: E402

register_module(MulticastModule)
