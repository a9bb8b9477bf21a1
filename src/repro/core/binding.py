"""QoS binding: attributing a client/server relationship with QoS.

Section 3 (QoS binding): "in order to attribute the interactions
between client and service with a distinct QoS provision an assignment
of a QoS characteristic to the client/server relationship has to be
established.  This assignment can vary in time ... and in granularity".
Section 3.2 fixes the granularity: **interfaces only**.

Two pieces live here:

- :class:`QoSProvider` — server-side wiring: declares which
  characteristics a servant supports (implementation + capabilities +
  optional transport module), activates the object with the MAQS QoS
  tag, and stands up the negotiation endpoint.
- :func:`establish_qos` — client-side binding: negotiates an
  agreement, installs the mediator in the stub, assigns and configures
  the transport module, and returns a :class:`QoSBinding` that can be
  renegotiated or released at runtime (assignment "can vary in time").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.mediator import Mediator
from repro.core.negotiation import (
    Agreement,
    CharacteristicSupport,
    NegotiationServant,
    NegotiationStub,
    Negotiator,
    QoSOffer,
    Range,
)
from repro.core.qos_skeleton import QoSImplementation
from repro.orb.contexts import BINDING_CONTEXT, CHARACTERISTIC_CONTEXT, CLASS_CONTEXT
from repro.orb.ior import IOR, QOS_TAG, TaggedComponent
from repro.orb.modules.base import binding_key
from repro.orb.stub import Stub


class BindingError(Exception):
    """Raised on invalid binding requests (granularity, unknown QoS, ...)."""


class _SupportEntry:
    __slots__ = (
        "impl",
        "capabilities",
        "module_name",
        "configure_module",
        "sched_class",
    )

    def __init__(
        self,
        impl: QoSImplementation,
        capabilities: Dict[str, Range],
        module_name: Optional[str],
        configure_module: Optional[Callable[..., None]],
        sched_class: Optional[str] = None,
    ) -> None:
        self.impl = impl
        self.capabilities = capabilities
        self.module_name = module_name
        self.configure_module = configure_module
        self.sched_class = sched_class


class QoSProvider:
    """Server-side assembly of a QoS-enabled object."""

    def __init__(self, world: Any, host_name: str, servant: Any) -> None:
        self.world = world
        self.host_name = host_name
        self.servant = servant
        self.orb = world.orb(host_name)
        self._entries: Dict[str, _SupportEntry] = {}
        self._negotiation = NegotiationServant()
        self.ior: Optional[IOR] = None
        self.negotiation_ior: Optional[IOR] = None

    def support(
        self,
        characteristic: str,
        impl: QoSImplementation,
        capabilities: Optional[Dict[str, Range]] = None,
        capabilities_fn: Optional[Callable[[], Dict[str, Range]]] = None,
        module_name: Optional[str] = None,
        sched_class: Optional[str] = None,
    ) -> "QoSProvider":
        """Declare support for a characteristic.

        ``capabilities`` gives static parameter ranges;
        ``capabilities_fn`` a dynamic provider (e.g. consulting the
        resource manager).  ``module_name`` names the transport module
        clients of this characteristic should be carried by.
        ``sched_class`` names the request-scheduler class requests
        bound under this characteristic are served in; committing an
        agreement then also binds the granted ``rate``/``delay`` into
        that class's admission contract, and commits are vetoed when
        the scheduler cannot cover the promised rate.
        """
        if impl.characteristic != characteristic:
            raise BindingError(
                f"implementation is for {impl.characteristic!r}, "
                f"not {characteristic!r}"
            )
        assigned = getattr(self.servant, "_qos_signatures", {})
        if characteristic not in assigned:
            raise BindingError(
                f"servant does not assign characteristic {characteristic!r} "
                f"(QIDL 'provides' is the only assignment granularity)"
            )
        static = dict(capabilities or {})
        provider = capabilities_fn if capabilities_fn is not None else (lambda: static)
        self.servant.set_qos_impl(impl)
        self._negotiation.add_support(
            CharacteristicSupport(
                characteristic,
                provider,
                on_commit=self._commit_fn(characteristic, impl),
                on_terminate=lambda: self.servant.activate_qos(None),
                admission=self._admission_fn(characteristic),
            )
        )
        self._entries[characteristic] = _SupportEntry(
            impl, static, module_name, None, sched_class
        )
        return self

    def _commit_fn(
        self, characteristic: str, impl: QoSImplementation
    ) -> Callable[[Dict[str, float]], None]:
        def commit(granted: Dict[str, float]) -> None:
            # Apply granted parameter values through the generated
            # accessors, then exchange the delegate (Figure 2).
            for name, value in granted.items():
                setter = getattr(impl, f"set_{name}", None)
                if callable(setter):
                    setter(_coerce_like(impl, name, value))
            self.servant.activate_qos(characteristic)
            # Enforcement side: tie the agreement into the request
            # scheduler so the negotiated rate/delay is what admission
            # control and deadline shedding actually apply.
            entry = self._entries.get(characteristic)
            scheduler = self.orb.scheduler
            if scheduler is not None and entry is not None and entry.sched_class:
                scheduler.ensure_class(entry.sched_class)
                scheduler.map_characteristic(characteristic, entry.sched_class)
                scheduler.bind_contract(entry.sched_class, granted)

        return commit

    def _admission_fn(
        self, characteristic: str
    ) -> Callable[[Dict[str, float]], Optional[str]]:
        def admission(granted: Dict[str, float]) -> Optional[str]:
            entry = self._entries.get(characteristic)
            scheduler = self.orb.scheduler
            if scheduler is None or entry is None or not entry.sched_class:
                return None
            rate = granted.get("rate")
            if not rate:
                return None
            cls = scheduler.find_class(entry.sched_class)
            committed = cls.rate if cls is not None and cls.rate else 0.0
            if not scheduler.admissible_rate(float(rate) - committed):
                return (
                    f"admission control: committing {rate}/s for class "
                    f"{entry.sched_class!r} would exceed the server "
                    f"capacity of {scheduler.capacity_rps}/s"
                )
            return None

        return admission

    def module_for(self, characteristic: str) -> Optional[str]:
        entry = self._entries.get(characteristic)
        return entry.module_name if entry else None

    def activate(self, object_key: Optional[str] = None) -> IOR:
        """Activate servant + negotiation endpoint; returns the QoS-tagged IOR."""
        negotiation_ior = self.orb.poa.activate_object(
            self._negotiation,
            f"{object_key}-negotiation" if object_key else None,
        )
        component = TaggedComponent(
            QOS_TAG,
            {
                "characteristics": sorted(self._entries),
                "negotiator": negotiation_ior.profile.object_key,
                "modules": {
                    name: entry.module_name
                    for name, entry in self._entries.items()
                    if entry.module_name
                },
                "sched": {
                    name: entry.sched_class
                    for name, entry in self._entries.items()
                    if entry.sched_class
                },
            },
        )
        self.ior = self.orb.poa.activate_object(
            self.servant, object_key, components=[component]
        )
        self.negotiation_ior = negotiation_ior
        if self.orb.scheduler is not None:
            # Negotiation traffic is control plane: it must get through
            # precisely when the server is overloaded.
            self.orb.scheduler.mark_control(negotiation_ior.profile.object_key)
        return self.ior


def _coerce_like(impl: Any, name: str, value: float) -> Any:
    """Match the granted float against the impl's current attribute type."""
    current = getattr(impl, name, None)
    if isinstance(current, bool):
        return bool(value)
    if isinstance(current, int):
        return int(value)
    return value


def negotiation_stub_for(orb: Any, ior: IOR) -> NegotiationStub:
    """Build the negotiation stub recorded in a QoS-tagged IOR."""
    component = ior.component(QOS_TAG)
    if component is None:
        raise BindingError("target reference carries no MAQS QoS tag")
    negotiator_key = component.data.get("negotiator")
    if not negotiator_key:
        raise BindingError("QoS tag names no negotiation endpoint")
    negotiation_ior = IOR(
        "IDL:maqs/Negotiation:1.0",
        type(ior.profile)(ior.profile.host, ior.profile.port, negotiator_key),
    )
    return NegotiationStub(orb, negotiation_ior)


class QoSBinding:
    """A live client-side binding of one characteristic to one stub."""

    def __init__(
        self,
        stub: Stub,
        mediator: Optional[Mediator],
        agreement: Agreement,
        negotiator: Negotiator,
        module_name: Optional[str],
    ) -> None:
        self.stub = stub
        self.mediator = mediator
        self.agreement = agreement
        self.negotiator = negotiator
        self.module_name = module_name
        self.released = False

    @property
    def characteristic(self) -> str:
        return self.agreement.characteristic

    @property
    def granted(self) -> Dict[str, float]:
        return dict(self.agreement.granted)

    def renegotiate(self, requirements: Dict[str, Range]) -> Dict[str, float]:
        """Adapt the agreement to new requirements at runtime."""
        if self.released:
            raise BindingError("binding already released")
        granted = self.negotiator.renegotiate(self.agreement, requirements)
        if self.mediator is not None:
            _apply_parameters(self.mediator, granted)
        return granted

    def release(self) -> None:
        """Terminate the agreement and restore the plain stub."""
        if self.released:
            return
        self.negotiator.stub.terminate(self.agreement.agreement_id)
        self.stub._set_mediator(None)
        self.stub._contexts.pop(CHARACTERISTIC_CONTEXT, None)
        self.stub._contexts.pop(CLASS_CONTEXT, None)
        self.stub._contexts.pop(BINDING_CONTEXT, None)
        if self.module_name:
            self.stub._orb.qos_transport.unassign(self.stub._ior)
        self.released = True


def _apply_parameters(mediator: Mediator, granted: Dict[str, float]) -> None:
    for name, value in granted.items():
        if hasattr(mediator, name):
            setattr(mediator, name, _coerce_like(mediator, name, value))


def establish_qos(
    stub: Stub,
    characteristic: str,
    requirements: Optional[Dict[str, Range]] = None,
    mediator: Optional[Mediator] = None,
    configure_module: Optional[Callable[[Any, str], None]] = None,
) -> QoSBinding:
    """Negotiate and install a QoS binding on a stub.

    The binding granularity is the interface (the stub), per Section
    3.2 — there is deliberately no way to bind a characteristic to a
    single operation or parameter.

    ``configure_module`` is called as ``configure_module(module,
    binding_key)`` after the transport module (if the server names one
    for this characteristic) is assigned client-side.
    """
    ior = stub._ior
    offered = ior.qos_characteristics()
    if characteristic not in offered:
        raise BindingError(
            f"server offers {offered}, not {characteristic!r}"
        )
    if mediator is not None and mediator.characteristic != characteristic:
        raise BindingError(
            f"mediator is for {mediator.characteristic!r}, "
            f"not {characteristic!r}"
        )

    orb = stub._orb
    negotiation_stub = negotiation_stub_for(orb, ior)
    negotiator = Negotiator(negotiation_stub)
    offer = QoSOffer(characteristic, requirements or {})
    agreement, granted = negotiator.negotiate(offer)

    if mediator is not None:
        _apply_parameters(mediator, granted)
        mediator.install(stub)
    stub._contexts[CHARACTERISTIC_CONTEXT] = characteristic

    component = ior.component(QOS_TAG)
    module_name = None
    if component is not None:
        module_name = component.data.get("modules", {}).get(characteristic)
    if module_name:
        orb.qos_transport.assign(ior, module_name)
        if configure_module is not None:
            module = orb.qos_transport.module(module_name)
            configure_module(module, binding_key(ior))

    sched_class = None
    if component is not None:
        sched_class = component.data.get("sched", {}).get(characteristic)
    if sched_class:
        # Tag every request of this binding for the server's scheduler:
        # the class it is served in, and a client-distinct binding key
        # so the admission token bucket is per client/server pair.
        stub._contexts[CLASS_CONTEXT] = sched_class
        stub._contexts[BINDING_CONTEXT] = f"{orb.host_name}->{binding_key(ior)}"

    return QoSBinding(stub, mediator, agreement, negotiator, module_name)
