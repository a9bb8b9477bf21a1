"""Client-side stub runtime.

Section 3.3: "On the client side the stub is extended by a so called
mediator. ... At runtime the mediator of the desired QoS is set in the
stub as a delegate.  Each call is intercepted and delegated to the
mediator which can issue the QoS behaviour on the client side."

:class:`Stub` is the base class of all generated (and hand-written)
stubs.  Every generated method funnels through :meth:`_call`, which
delegates to the installed mediator when one is set and performs the
plain invocation otherwise.  The mediator receives the stub itself, so
it can re-issue, redirect, transform or suppress the invocation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.orb.ami import ReplyFuture
from repro.orb.ior import IOR
from repro.orb.request import Request


class Stub:
    """Proxy for a remote object."""

    #: Operations declared ``oneway`` in the IDL; the QIDL compiler
    #: fills this on generated stubs.  Oneway requests are fire-and-
    #: forget: the caller resumes once the message has left.
    _oneway_ops: frozenset = frozenset()

    #: Operations declared ``idempotent`` in the IDL (attribute reads
    #: and writes are idempotent by construction); the QIDL compiler
    #: fills this on generated stubs.  The reliability layer may retry
    #: these after an *ambiguous* failure — when the servant might
    #: already have executed — because re-execution is harmless.
    _idempotent_ops: frozenset = frozenset()

    def __init__(self, orb: "ORB", ior: IOR) -> None:  # noqa: F821
        self._orb = orb
        self._ior = ior
        self._mediator: Optional[Any] = None
        #: Service contexts attached to every outgoing request (the
        #: negotiated characteristic rides here, see core.binding).
        self._contexts: Dict[str, Any] = {}
        #: Non-zero while a ``send_deferred`` is unwinding through the
        #: mediator chain: the innermost ``_invoke`` then returns a
        #: :class:`~repro.orb.ami.ReplyFuture` instead of blocking.
        self._deferred_depth = 0

    # -- mediator delegation (the MAQS client-side weaving hook) ---------

    def _set_mediator(self, mediator: Optional[Any]) -> None:
        """Install (or with None, remove) the QoS mediator delegate."""
        self._mediator = mediator

    def _get_mediator(self) -> Optional[Any]:
        return self._mediator

    # -- invocation -------------------------------------------------------

    def _call(self, operation: str, *args: Any) -> Any:
        """Entry point used by every generated method."""
        if self._mediator is not None:
            return self._mediator.invoke(self, operation, args)
        return self._invoke(operation, args)

    def send_deferred(self, operation: str, *args: Any) -> ReplyFuture:
        """Issue ``operation`` asynchronously; returns its reply future.

        The call takes the exact same route as a synchronous one —
        through the installed mediator (chain), so QoS interception
        still wraps it — but the underlying invocation joins the AMI
        pipeline instead of blocking: collect the outcome with
        ``future.result()`` (or poll / attach a callback; see
        :class:`~repro.orb.ami.ReplyFuture`).  A lone
        ``send_deferred(op).result()`` is behaviourally identical to
        calling ``op`` synchronously.  Mediators that answer without
        invoking (caches) short-circuit into an already-resolved
        future.
        """
        self._deferred_depth += 1
        try:
            outcome = self._call(operation, *args)
        finally:
            self._deferred_depth -= 1
        if isinstance(outcome, ReplyFuture):
            return outcome
        return self._orb.ami.completed(outcome, self._ior.profile.host)

    def _invoke(
        self,
        operation: str,
        args: Tuple[Any, ...],
        extra_contexts: Optional[Dict[str, Any]] = None,
        target: Optional[IOR] = None,
    ) -> Any:
        """Perform the actual ORB invocation (bypasses the mediator).

        Mediators call this to issue the underlying request after
        applying their client-side QoS behaviour; ``target`` lets a
        mediator redirect the call (e.g. to a specific replica).
        """
        contexts = self._contexts
        if extra_contexts:
            contexts = {**contexts, **extra_contexts}
        # Request copies the context map, so mediators mutating the
        # request never reach the stub's own.
        request = Request(
            target if target is not None else self._ior,
            operation,
            args,
            service_contexts=contexts,
            response_expected=operation not in self._oneway_ops,
        )
        if self._deferred_depth:
            return self._orb.invoke_deferred(request)
        return self._orb.invoke(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mediated = " mediated" if self._mediator is not None else ""
        return f"{type(self).__name__}({self._ior!r}{mediated})"
