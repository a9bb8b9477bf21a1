"""Event channel: decoupled publish/subscribe notifications.

CORBA deployments of the paper's era used the COS Event Service for
server→client pushes; MAQS's actuality and replication mechanisms can
reuse such a channel (freshness invalidations, membership changes).
This implementation delivers events as **oneway** ``notify`` requests
— fire-and-forget, so a dead subscriber never stalls the publisher —
through the plain GIOP module's ``exchange``, every notification
leaving at the publication instant.

- :class:`EventChannelServant` — the channel: topics, subscriptions,
  publication with per-topic fan-out.
- :class:`SubscriberServant` — base class for callback objects;
  override :meth:`on_event`.
- :class:`CacheInvalidator` — a ready-made subscriber that invalidates
  an :class:`~repro.qos.actuality.freshness.ActualityMediator` cache
  on matching events, turning the actuality characteristic's polling
  cache into a push-invalidated one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.orb.exceptions import UserException, register_user_exception
from repro.orb.ior import IOR
from repro.orb.request import Request
from repro.orb.servant import Servant
from repro.orb.stub import Stub


@register_user_exception
class UnknownTopic(UserException):
    """Unsubscribing from a topic that has no such subscriber."""

    repo_id = "IDL:maqs/EventChannel/UnknownTopic:1.0"


class EventChannelServant(Servant):
    """A topic-based event channel."""

    _repo_id = "IDL:maqs/EventChannel:1.0"

    def __init__(self, orb: Any) -> None:
        self._orb = orb
        #: topic -> subscriber IOR strings, in subscription order.
        self._subscribers: Dict[str, List[str]] = {}
        self.events_published = 0
        self.notifications_sent = 0

    # -- remote operations ------------------------------------------------

    def subscribe(self, topic: str, subscriber_ior: str) -> None:
        """Register a subscriber reference for a topic; idempotent."""
        IOR.from_string(subscriber_ior)  # validate early
        subscribers = self._subscribers.setdefault(topic, [])
        if subscriber_ior not in subscribers:
            subscribers.append(subscriber_ior)

    def unsubscribe(self, topic: str, subscriber_ior: str) -> None:
        subscribers = self._subscribers.get(topic, [])
        if subscriber_ior not in subscribers:
            raise UnknownTopic(
                f"no such subscription on {topic!r}", topic=topic
            )
        subscribers.remove(subscriber_ior)

    def subscriber_count(self, topic: str) -> int:
        return len(self._subscribers.get(topic, []))

    def publish(self, topic: str, payload: Any) -> int:
        """Push one event to every subscriber of ``topic``.

        Delivery is oneway: unreachable subscribers are skipped without
        failing the publication.  Returns the number of notifications
        sent (not necessarily delivered — fire-and-forget).
        """
        self.events_published += 1
        delivered = 0
        orb = self._orb
        iiop = orb.qos_transport.iiop_module
        now = orb.time_source.now()
        for ior_string in self._subscribers.get(topic, []):
            request = Request(
                IOR.from_string(ior_string),
                "notify",
                (topic, payload),
                response_expected=False,
            )
            iiop.exchange(orb, request, now)
            delivered += 1
        self.notifications_sent += delivered
        return delivered


class EventChannelStub(Stub):
    """Client proxy for the event channel."""

    def subscribe(self, topic: str, subscriber: IOR) -> None:
        self._call("subscribe", topic, subscriber.to_string())

    def unsubscribe(self, topic: str, subscriber: IOR) -> None:
        self._call("unsubscribe", topic, subscriber.to_string())

    def subscriber_count(self, topic: str) -> int:
        return self._call("subscriber_count", topic)

    def publish(self, topic: str, payload: Any) -> int:
        return self._call("publish", topic, payload)


class SubscriberServant(Servant):
    """Base class for event callbacks; override :meth:`on_event`."""

    _repo_id = "IDL:maqs/EventSubscriber:1.0"

    def __init__(self) -> None:
        self.events_received = 0

    def notify(self, topic: str, payload: Any) -> None:
        self.events_received += 1
        self.on_event(topic, payload)

    def on_event(self, topic: str, payload: Any) -> None:
        """Handle one pushed event."""


class CacheInvalidator(SubscriberServant):
    """Invalidate an Actuality mediator's cache on pushed events.

    The event payload may name the operation to invalidate (a string);
    any other payload clears the whole cache.  With push invalidation,
    a client can negotiate a *large* max_age (few polls) and still
    never observe stale data — the channel carries the freshness
    signal instead.
    """

    def __init__(self, mediator: Any) -> None:
        super().__init__()
        self.mediator = mediator
        self.invalidations = 0

    def on_event(self, topic: str, payload: Any) -> None:
        if isinstance(payload, str) and payload:
            self.invalidations += self.mediator.invalidate(payload)
        else:
            self.invalidations += self.mediator.invalidate()
