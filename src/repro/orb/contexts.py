"""Service-context keys: every ``maqs.*`` name on the wire, defined once.

GIOP service contexts are how QoS concerns in different layers talk
across the wire without importing one another: a mediator writes a
key, the peer's scheduler or prolog reads it.  The keys live here, at
the ORB's layer, so a writer and a reader share a spelling by both
importing downward.
"""

#: The characteristic a request runs under (mediator -> QoS skeleton).
CHARACTERISTIC_CONTEXT = "maqs.characteristic"

#: Scheduling class and client/server binding of a request
#: (binding -> scheduler).
CLASS_CONTEXT = "maqs.sched.class"
BINDING_CONTEXT = "maqs.sched.binding"
#: Reply: seconds the server asks the client to hold off
#: (scheduler -> backpressure tracker).
RETRY_AFTER_CONTEXT = "maqs.sched.retry_after"

#: Absolute deadline of the *call* on the caller's clock (reliability
#: mediator -> scheduler, which sheds work nobody will wait for).
DEADLINE_CONTEXT = "maqs.reliability.deadline"

#: Receive and processing-start instants the POA hands a servant's
#: prolog (never on the wire: added to the dispatch contexts).
ARRIVAL_TIME_CONTEXT = "maqs.arrival_time"
START_TIME_CONTEXT = "maqs.start_time"
