"""Portable-Object-Adapter-style object adapter.

Section 2.3: "The skeleton on the server side reflects the pendant to
the stub object.  Incoming requests via the ORB are delegated to the
service."  The POA owns the object map (object key → servant), creates
IORs, and models server-side queueing: each request occupies the
host's single-server FIFO queue for the servant's service time.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.orb.contexts import ARRIVAL_TIME_CONTEXT, START_TIME_CONTEXT
from repro.orb.exceptions import OBJECT_NOT_EXIST
from repro.orb.ior import IOR, IIOPProfile, TaggedComponent
from repro.orb.request import Request
from repro.orb.servant import Servant


class POA:
    """The object adapter of one ORB."""

    def __init__(self, orb: "ORB") -> None:  # noqa: F821 - circular by design
        self._orb = orb
        self._servants: Dict[str, Servant] = {}
        self._key_counter = itertools.count(1)
        self.requests_dispatched = 0

    # -- activation -----------------------------------------------------

    def activate_object(
        self,
        servant: Servant,
        object_key: Optional[str] = None,
        components: Optional[List[TaggedComponent]] = None,
    ) -> IOR:
        """Register a servant and return its object reference.

        ``components`` lets callers attach tagged components (e.g. the
        MAQS QoS tag) at activation time.
        """
        if object_key is None:
            object_key = f"obj-{next(self._key_counter)}"
        if object_key in self._servants:
            raise ValueError(f"object key already active: {object_key!r}")
        self._servants[object_key] = servant
        profile = IIOPProfile(self._orb.host_name, self._orb.port, object_key)
        return IOR(servant._repo_id, profile, components)

    def deactivate_object(self, object_key: str) -> None:
        """Remove a servant; later requests raise OBJECT_NOT_EXIST."""
        if object_key not in self._servants:
            raise OBJECT_NOT_EXIST(f"no active object with key {object_key!r}")
        del self._servants[object_key]

    def servant(self, object_key: str) -> Servant:
        """Look up the servant incarnating ``object_key``."""
        try:
            return self._servants[object_key]
        except KeyError:
            raise OBJECT_NOT_EXIST(
                f"no active object with key {object_key!r} on "
                f"{self._orb.host_name!r}"
            ) from None

    def active_keys(self) -> List[str]:
        return sorted(self._servants)

    # -- dispatch ---------------------------------------------------------

    def dispatch(
        self, request: Request, at_time: float
    ) -> Tuple[Any, float, Optional[Dict[str, Any]]]:
        """Deliver a request to its servant.

        Returns ``(result, finish_time, reply_contexts)`` where
        ``finish_time`` accounts for queueing and the servant's
        simulated service time on this host and ``reply_contexts`` are
        scheduler-piggybacked reply service contexts (``None`` unless a
        scheduler is installed and has something to say, e.g. a
        backpressure retry-after hint).  Exceptions propagate to the
        caller (the ORB encodes them into the reply) — including the
        scheduler's OVERLOAD rejections.
        """
        servant = self.servant(request.target.profile.object_key)
        host = self._orb.host
        service_time = servant._service_time(request.operation, request.args)
        # Expose the simulated receive/processing-start instants to the
        # QoS layer (what real ORBs give interceptors as timestamps) —
        # prologs use them e.g. for deadline admission control.
        contexts = dict(request.service_contexts)
        contexts[ARRIVAL_TIME_CONTEXT] = at_time
        scheduler = self._orb.scheduler
        reply_contexts: Optional[Dict[str, Any]] = None
        if scheduler is not None:
            # Admission control + policy scheduling; raises OVERLOAD
            # when the request is not admissible (the POA never sees
            # the servant in that case — shed before dispatch).
            grant = scheduler.admit(request, at_time, service_time)
            contexts[START_TIME_CONTEXT] = grant.start
            finish_time = grant.completion
            reply_contexts = grant.reply_contexts
        else:
            contexts[START_TIME_CONTEXT] = max(at_time, host.busy_until)
            finish_time = host.occupy(at_time, service_time)
        result = servant._dispatch(request.operation, request.args, contexts)
        self.requests_dispatched += 1
        return result, finish_time, reply_contexts
