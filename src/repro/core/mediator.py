"""Client-side mediators.

Section 3.3: "On the client side the stub is extended by a so called
mediator.  The QoS implementor implements the generated mediator
skeleton.  At runtime the mediator of the desired QoS is set in the
stub as a delegate.  Each call is intercepted and delegated to the
mediator which can issue the QoS behaviour on the client side.  For
each QoS characteristic a mediator is generated."

The QIDL compiler emits one :class:`Mediator` subclass per QoS
characteristic; QoS implementors override the hooks (or
:meth:`Mediator.invoke` wholesale, e.g. for replication fail-over or
client-side caching).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.orb.contexts import CHARACTERISTIC_CONTEXT


class Mediator:
    """Base of all generated mediator skeletons."""

    #: Name of the QoS characteristic this mediator realises; filled by
    #: the generated subclass.
    characteristic = ""

    def __init__(self) -> None:
        self.calls_intercepted = 0

    # -- the interception protocol (called by Stub._call) -----------------

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        """Intercept one client call.

        The default template runs ``before_request`` → ``issue`` →
        ``after_reply``.  Mediators with richer behaviour (retry on
        another replica, answer from a cache without issuing at all)
        override this method.
        """
        self.calls_intercepted += 1
        operation, args = self.before_request(stub, operation, args)
        result = self.issue(stub, operation, args)
        return self.after_reply(stub, operation, result)

    def issue(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        """Perform the underlying invocation, tagged with the characteristic."""
        return stub._invoke(
            operation,
            args,
            extra_contexts={CHARACTERISTIC_CONTEXT: self.characteristic},
        )

    # -- hooks -----------------------------------------------------------

    def before_request(
        self, stub: Any, operation: str, args: Tuple[Any, ...]
    ) -> Tuple[str, Tuple[Any, ...]]:
        """Client-side QoS behaviour before the request leaves (may
        rewrite the operation or its arguments)."""
        return operation, args

    def after_reply(self, stub: Any, operation: str, result: Any) -> Any:
        """Client-side QoS behaviour after the reply returns (may
        rewrite the result)."""
        return result

    # -- installation ------------------------------------------------------

    def install(self, stub: Any) -> "Mediator":
        """Set this mediator as the stub's delegate; returns self."""
        stub._set_mediator(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} for {self.characteristic!r}>"


class MediatorChain:
    """Compose several mediators into one delegate.

    The paper binds one *negotiated* characteristic per relationship,
    but orthogonal client-side concerns (measurement, metering,
    caching on top of compression, ...) stack naturally: each link
    intercepts the call and forwards to the next; the innermost link
    performs the real invocation.

    Links are invoked outermost-first.  Every link must expose the
    mediator protocol (``invoke(stub, operation, args)``); links built
    for chaining can use the ``forward`` callable passed via the
    chain's per-call context instead of ``stub._invoke``.
    """

    characteristic = "__chain__"

    def __init__(self, *links: Any) -> None:
        if not links:
            raise ValueError("a mediator chain needs at least one link")
        self.links = list(links)
        self.calls_intercepted = 0

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        return self._invoke_link(0, stub, operation, args)

    def _invoke_link(
        self,
        index: int,
        stub: Any,
        operation: str,
        args: Tuple[Any, ...],
        extra_contexts: Optional[Dict[str, Any]] = None,
        target: Any = None,
    ) -> Any:
        if index >= len(self.links):
            return stub._invoke(operation, args, extra_contexts, target)
        link = self.links[index]
        # Present the rest of the chain as the link's "stub": the link
        # calls _invoke on it, which recurses into the next link.
        view = _ChainView(self, index, stub, extra_contexts, target)
        return link.invoke(view, operation, args)

    def install(self, stub: Any) -> "MediatorChain":
        stub._set_mediator(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " -> ".join(type(link).__name__ for link in self.links)
        return f"<MediatorChain {names}>"


class _ChainView:
    """Stub facade handed to a chain link: forwards _invoke down-chain.

    Service contexts accumulate outermost-to-innermost (an inner link
    wins a key conflict: it sits closer to the wire and owns the
    request it actually issues); the innermost explicit ``target``
    wins likewise, so an outer failover link's redirect holds unless
    an inner link re-redirects.
    """

    def __init__(
        self,
        chain: MediatorChain,
        index: int,
        stub: Any,
        extra_contexts: Optional[Dict[str, Any]] = None,
        target: Any = None,
    ) -> None:
        self._chain = chain
        self._index = index
        self._stub = stub
        self._extra_contexts = extra_contexts
        self._target = target

    def _invoke(
        self,
        operation: str,
        args: Tuple[Any, ...],
        extra_contexts: Optional[Dict[str, Any]] = None,
        target: Any = None,
    ) -> Any:
        merged = self._extra_contexts
        if extra_contexts:
            merged = dict(merged) if merged else {}
            merged.update(extra_contexts)
        if target is None:
            target = self._target
        if self._index + 1 < len(self._chain.links):
            return self._chain._invoke_link(
                self._index + 1, self._stub, operation, args, merged, target
            )
        return self._stub._invoke(operation, args, merged, target)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._stub, name)
