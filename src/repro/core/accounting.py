"""QoS accounting.

Section 2.2: "infrastructure services for e.g. trading, negotiation,
monitoring and accounting should be an integral part of the
framework", and Section 6: "additional support is needed at runtime in
order to allow negotiation and accounting of QoS enabled
communication.  ... the price is embraced."

Usage is metered per agreement; a tariff prices it.  The
:class:`MeteringMediator` stacks on any mediator chain and records
every intercepted call without touching application code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.negotiation import Agreement


class Tariff:
    """Linear price model: fixed setup plus per-call and per-second fees."""

    __slots__ = ("setup_fee", "per_call", "per_second")

    def __init__(
        self, setup_fee: float = 0.0, per_call: float = 0.0, per_second: float = 0.0
    ) -> None:
        self.setup_fee = setup_fee
        self.per_call = per_call
        self.per_second = per_second

    def price(self, calls: int, busy_seconds: float) -> float:
        return self.setup_fee + calls * self.per_call + busy_seconds * self.per_second


class UsageRecord:
    """Accumulated usage for one agreement."""

    __slots__ = ("agreement_id", "characteristic", "calls", "busy_seconds", "failures")

    def __init__(self, agreement_id: int, characteristic: str) -> None:
        self.agreement_id = agreement_id
        self.characteristic = characteristic
        self.calls = 0
        self.busy_seconds = 0.0
        self.failures = 0

    def record(self, duration: float, failed: bool = False) -> None:
        self.calls += 1
        self.busy_seconds += duration
        if failed:
            self.failures += 1


class AccountingService:
    """Tracks usage and produces invoices per agreement."""

    def __init__(self) -> None:
        self._records: Dict[int, UsageRecord] = {}
        self._tariffs: Dict[int, Tariff] = {}

    def open_account(self, agreement: Agreement, tariff: Optional[Tariff] = None):
        record = UsageRecord(agreement.agreement_id, agreement.characteristic)
        self._records[agreement.agreement_id] = record
        self._tariffs[agreement.agreement_id] = tariff or Tariff()
        return record

    def record(self, agreement_id: int, duration: float, failed: bool = False) -> None:
        try:
            self._records[agreement_id].record(duration, failed)
        except KeyError:
            raise KeyError(f"no account for agreement #{agreement_id}") from None

    def usage(self, agreement_id: int) -> UsageRecord:
        return self._records[agreement_id]

    def invoice(self, agreement_id: int) -> Dict[str, float]:
        record = self._records[agreement_id]
        tariff = self._tariffs[agreement_id]
        return {
            "calls": float(record.calls),
            "busy_seconds": record.busy_seconds,
            "failures": float(record.failures),
            "amount": tariff.price(record.calls, record.busy_seconds),
        }

    def total_billed(self) -> float:
        return sum(
            self._tariffs[aid].price(rec.calls, rec.busy_seconds)
            for aid, rec in self._records.items()
        )


class MeteringMediator:
    """Mediator-stackable usage meter for one agreement."""

    characteristic = "__metering__"

    def __init__(
        self,
        accounting: AccountingService,
        agreement: Agreement,
        inner: Optional[Any] = None,
    ) -> None:
        self.accounting = accounting
        self.agreement = agreement
        self.inner = inner
        self.calls_intercepted = 0

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        now = stub._orb.time_source.now
        started = now()
        failed = False
        try:
            if self.inner is not None:
                return self.inner.invoke(stub, operation, args)
            return stub._invoke(operation, args)
        except Exception:
            failed = True
            raise
        finally:
            self.accounting.record(
                self.agreement.agreement_id, now() - started, failed
            )

    def install(self, stub: Any) -> "MeteringMediator":
        stub._set_mediator(self)
        return self
