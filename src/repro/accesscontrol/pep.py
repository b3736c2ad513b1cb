"""The Policy Enforcement Point at a tenant's edge.

Receives access attempts from subjects in its tenant, routes them through
the federation's :class:`~repro.accesscontrol.plane.ShardedPdpPlane` and
enforces the decision that comes back.  Deny-biased: anything other than
an explicit Permit is enforced as a denial (the safe default for federated
data sharing).

Routing and failover: the plane answers ``endpoints(request)`` — shard
addresses in failover order.  The PEP sends to the first endpoint and arms
a per-attempt timer.  By default the timer window is ``request_timeout``
split evenly across the endpoints answered at submit time, so a
single-evaluator plane keeps the classic whole-request timeout.  With a
:class:`RetryBackoff` installed (``backoff=``), attempt windows instead
grow exponentially with decorrelated jitter — short first probes, longer
later ones — while every window is clamped to the remaining budget so
``request_timeout`` still bounds the whole request.  On a timer expiry
with attempts left the PEP
*re-queries the plane* and retries the same request envelope against the
first not-yet-tried endpoint — re-planning rather than replaying the
submit-time order, so a shard drained from an elastic plane mid-flight is
skipped instead of timed out against.  ``failovers``
counts retries around a shard that is still listed but did not answer (a
fault); ``churn_reroutes`` counts retries whose timed-out shard has left
the re-queried membership (a scripted drain retired it mid-attempt —
topology churn, not a fault).  When no untried endpoint
remains (or the attempt budget is spent) the request is enforced as a
timeout denial, even with budget left — an elastic pool can shrink
mid-flight.  ``request_id``
is the idempotency key: a late or duplicate ``ac_response`` for a
request that has already been enforced (or already failed over and
completed) finds no pending entry and is dropped, so a slow shard can
never double-enforce.

Probe hooks (DRAMS attaches here):

- ``on_request_intercepted(request)`` — the access attempt as the subject
  made it (PEP-in),
- ``on_enforce(request, decision)`` — the decision as actually enforced
  (PEP-out), after any compromise interceptor.

Attack injection points used by :mod:`repro.threats`:

- ``forward_interceptor`` rewrites the request between interception and
  forwarding (request-tampering attack),
- ``enforcement_interceptor`` rewrites the decision between receipt and
  enforcement (decision-tampering attack),
- ``bypass`` fabricates a local decision without consulting the plane
  (circumvention attack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import ValidationError
from repro.simnet.network import Host, Message, Network
from repro.simnet.simulator import Event
from repro.accesscontrol.context_handler import ContextHandler
from repro.accesscontrol.messages import AccessDecision, AccessRequest
from repro.accesscontrol.plane import ShardedPdpPlane

RequestHook = Callable[[AccessRequest], None]
EnforceHook = Callable[[AccessRequest, AccessDecision], None]
ForwardInterceptor = Callable[[AccessRequest], AccessRequest]
EnforcementInterceptor = Callable[[AccessRequest, AccessDecision], AccessDecision]
CompletionCallback = Callable[["EnforcedAccess"], None]


@dataclass(frozen=True)
class RetryBackoff:
    """Exponential backoff with decorrelated jitter for failover windows.

    The first attempt waits ``base`` seconds before failing over; each
    subsequent window is drawn uniformly from
    ``[base, previous * multiplier]`` (decorrelated jitter, after
    Brooker) and capped at ``cap``.  Windows are additionally clamped to
    the remaining ``request_timeout`` budget, so enabling backoff never
    loosens the whole-request bound — it only re-shapes how the budget is
    spent: cheap early probes against a dead link, patient later ones.

    ``None`` (the default on the PEP) keeps the PR 6 even-split window
    and draws no randomness, so existing runs stay bit-identical.
    """

    base: float
    cap: float
    multiplier: float = 3.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValidationError(f"backoff base must be > 0, got {self.base}")
        if self.cap < self.base:
            raise ValidationError(
                f"backoff cap must be >= base, got cap={self.cap} base={self.base}")
        if self.multiplier < 1.0:
            raise ValidationError(
                f"backoff multiplier must be >= 1, got {self.multiplier}")

    def first_window(self, budget: float) -> float:
        return min(self.base, self.cap, budget)

    def next_window(self, previous: float, remaining: float, rng) -> float:
        upper = max(self.base, previous * self.multiplier)
        window = min(self.cap, rng.uniform(self.base, upper))
        return min(window, remaining)


@dataclass
class EnforcedAccess:
    """Outcome of one access attempt, as seen at the PEP."""

    request: AccessRequest
    decision: AccessDecision
    granted: bool
    requested_at: float
    enforced_at: float

    @property
    def latency(self) -> float:
        return self.enforced_at - self.requested_at


@dataclass
class _PendingAttempt:
    """One in-flight request: which shard attempt is live and how to finish."""

    request: AccessRequest
    forwarded: AccessRequest
    #: Shards already attempted (failover never re-tries one of these).
    tried: tuple[str, ...]
    #: Failover attempts remaining after the live one.
    attempts_left: int
    #: The live attempt's timer window.  Without backoff this is the
    #: even split fixed at submit time; with backoff it is the window
    #: the live attempt was armed with (the jitter recurrence's input).
    per_attempt: float
    #: Absolute time the whole request must resolve by (submit time plus
    #: ``request_timeout``); backoff windows clamp to it.
    deadline: float
    callback: Optional[CompletionCallback]
    requested_at: float
    timeout_event: Event
    #: Keyed tracer span for the live attempt (None when untraced).
    trace_key: Optional[tuple] = None


class PolicyEnforcementPoint(Host):
    """Edge enforcement for one tenant."""

    def __init__(
        self,
        network: Network,
        address: str,
        tenant_name: str,
        plane: ShardedPdpPlane,
        request_timeout: float = 30.0,
        backoff: Optional[RetryBackoff] = None,
    ) -> None:
        if not isinstance(plane, ShardedPdpPlane):
            # Fail fast here rather than at the first submit — and before
            # Host.__init__ attaches us: a half-constructed PEP must not
            # occupy the address in the network registry.
            raise ValidationError(f"expected a ShardedPdpPlane, got {type(plane).__name__}")
        super().__init__(network, address)
        self.tenant_name = tenant_name
        self.plane = plane
        self.request_timeout = request_timeout
        self.backoff = backoff
        # Jitter draws come from a dedicated named fork so enabling
        # backoff on one PEP never perturbs any other consumer's stream
        # (and the default no-backoff path draws nothing at all).
        self._backoff_rng = (
            network.rng.fork(f"pep-backoff/{address}") if backoff is not None else None
        )
        self.context_handler = ContextHandler(tenant_name)
        self.enforced: list[EnforcedAccess] = []
        self.timeouts = 0
        self.failovers = 0
        #: Re-routes whose timed-out shard had already left the plane's
        #: membership when the timer fired (a drain retired it
        #: mid-attempt).  Kept apart from ``failovers`` so membership
        #: churn is never misread as shard faults.
        self.churn_reroutes = 0
        self.on_request_intercepted: list[RequestHook] = []
        self.on_enforce: list[EnforceHook] = []
        self.forward_interceptor: Optional[ForwardInterceptor] = None
        self.enforcement_interceptor: Optional[EnforcementInterceptor] = None
        self.bypass: Optional[Callable[[AccessRequest], AccessDecision]] = None
        self._pending: dict[str, _PendingAttempt] = {}
        #: Root trace spans by request id (live until enforcement).
        self._trace_roots: dict = {}

    # -- client API -----------------------------------------------------------

    def request_access(
        self,
        subject: dict,
        resource: dict,
        action: dict,
        callback: Optional[CompletionCallback] = None,
        environment: dict | None = None,
    ) -> AccessRequest:
        """Entry point for subjects in this tenant."""
        content = self.context_handler.build(
            subject=subject,
            resource=resource,
            action=action,
            now=self.sim.now,
            environment=environment,
        )
        request = AccessRequest(
            content=content,
            origin_tenant=self.tenant_name,
            request_id=self.sim.new_id("req"),
            issued_at=self.sim.now,
        )
        return self.submit(request, callback)

    def submit(
        self, request: AccessRequest, callback: Optional[CompletionCallback] = None
    ) -> AccessRequest:
        """Process an already-built access request."""
        tracer = self.network.telemetry
        if tracer is None:
            return self._submit(request, callback)
        # Root span of the decision trace.  The trace id is the request's
        # own (pre-existing) id — tracing mints nothing — and the
        # correlation binding is what lets the log pipeline's async legs
        # re-join this trace later.
        root = self._trace_roots.get(request.request_id)
        if root is None:
            root = tracer.begin(
                "pep.request", self.address, parent=None,
                trace_id=request.request_id,
                attrs={"tenant": self.tenant_name})
            self._trace_roots[request.request_id] = root
            tracer.bind_correlation(request.correlation(), root.context)
        with tracer.activate(root.context):
            return self._submit(request, callback)

    def _submit(
        self, request: AccessRequest, callback: Optional[CompletionCallback]
    ) -> AccessRequest:
        for hook in self.on_request_intercepted:
            hook(request)
        if self.bypass is not None:
            # Circumvention: fabricate a decision locally, never call the plane.
            decision = self.bypass(request)
            self._enforce(request, decision, callback, request.issued_at)
            return request
        forwarded = request
        if self.forward_interceptor is not None:
            forwarded = self.forward_interceptor(request)
        # Route on the envelope the shard will actually receive (and key
        # its decision cache on) — under a tampering interceptor that is
        # the forged request, not the original.
        endpoints = tuple(self.plane.endpoints(forwarded))
        if not endpoints:
            raise ValidationError("decision plane routed no endpoints")
        # A re-submission under an already-pending id supersedes the
        # earlier attempt: disarm its timer, or it would fire against the
        # new attempt's pending entry and force a premature failover.
        previous = self._pending.pop(request.request_id, None)
        if previous is not None:
            previous.timeout_event.cancel()
            tracer = self.network.telemetry
            if tracer is not None and previous.trace_key is not None:
                tracer.close_span(previous.trace_key, "superseded",
                                  strict=False)
        # The attempt budget and deadline freeze at submit time (so
        # request_timeout still bounds the whole request); the actual
        # shard for each retry is re-planned at failover time.
        now = self.sim.now
        if self.backoff is None:
            first_window = self.request_timeout / len(endpoints)
        else:
            first_window = self.backoff.first_window(self.request_timeout)
        self._dispatch(
            request,
            forwarded,
            endpoints[0],
            tried=(),
            attempts_left=len(endpoints) - 1,
            per_attempt=first_window,
            deadline=now + self.request_timeout,
            callback=callback,
            requested_at=now,
        )
        return request

    def _dispatch(
        self,
        request: AccessRequest,
        forwarded: AccessRequest,
        endpoint: str,
        tried: tuple[str, ...],
        attempts_left: int,
        per_attempt: float,
        deadline: float,
        callback: Optional[CompletionCallback],
        requested_at: float,
    ) -> None:
        """Arm the attempt timer and send one shard attempt."""
        timeout_event = self.sim.schedule(per_attempt, lambda: self._timeout(request.request_id))
        tracer = self.network.telemetry
        trace_key = None
        attempt_span = None
        if tracer is not None:
            # One keyed span per shard attempt — the response handler or
            # the attempt timer closes it, whichever fires first.
            root = self._trace_roots.get(request.request_id)
            trace_key = ("pep.dispatch", self.address,
                         request.request_id, len(tried))
            attempt_span = tracer.open_span(
                trace_key, "pep.dispatch", self.address,
                parent=root.context if root is not None else None,
                trace_id=root.trace_id if root is not None else None,
                attrs={"endpoint": endpoint, "attempt": len(tried)})
        self._pending[request.request_id] = _PendingAttempt(
            request=request,
            forwarded=forwarded,
            tried=tried + (endpoint,),
            attempts_left=attempts_left,
            per_attempt=per_attempt,
            deadline=deadline,
            callback=callback,
            requested_at=requested_at,
            timeout_event=timeout_event,
            trace_key=trace_key,
        )
        if attempt_span is not None:
            with tracer.activate(attempt_span.context):
                self.send(endpoint, "ac_request", forwarded.to_dict())
        else:
            self.send(endpoint, "ac_request", forwarded.to_dict())

    # -- message handling ----------------------------------------------------------

    def _handle_response(self, message: Message, decision: AccessDecision) -> None:
        pending = self._pending.pop(decision.request_id, None)
        if pending is None:
            return  # duplicate or timed-out response
        pending.timeout_event.cancel()
        tracer = self.network.telemetry
        if tracer is not None and pending.trace_key is not None:
            tracer.close_span(pending.trace_key, "ok")
        if self.enforcement_interceptor is not None:
            decision = self.enforcement_interceptor(pending.request, decision)
        self._enforce(pending.request, decision, pending.callback, pending.requested_at)

    RECEIVES = {"ac_response": (AccessDecision, _handle_response)}

    def _enforce(
        self,
        request: AccessRequest,
        decision: AccessDecision,
        callback: Optional[CompletionCallback],
        requested_at: float,
    ) -> None:
        tracer = self.network.telemetry
        root = (self._trace_roots.pop(request.request_id, None)
                if tracer is not None else None)
        if root is not None:
            # PEP-out hooks run under the root context so the probe's log
            # legs attach to the decision trace, not to whichever shard's
            # response happened to deliver this enforcement.
            with tracer.activate(root.context):
                for hook in self.on_enforce:
                    hook(request, decision)
            tracer.end(root, status=decision.decision,
                       attrs={"status_code": decision.status_code})
        else:
            for hook in self.on_enforce:
                hook(request, decision)
        outcome = EnforcedAccess(
            request=request,
            decision=decision,
            granted=decision.decision == "Permit",
            requested_at=requested_at,
            enforced_at=self.sim.now,
        )
        self.enforced.append(outcome)
        if callback is not None:
            callback(outcome)

    def _timeout(self, request_id: str) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        tracer = self.network.telemetry
        if tracer is not None and pending.trace_key is not None:
            tracer.close_span(pending.trace_key, "timeout")
        if self.backoff is None:
            next_window = pending.per_attempt
            budget_left = pending.attempts_left > 0
        else:
            remaining = pending.deadline - self.sim.now
            budget_left = pending.attempts_left > 0 and remaining > 1e-9
            next_window = (
                self.backoff.next_window(pending.per_attempt, remaining,
                                         self._backoff_rng)
                if budget_left else 0.0
            )
        if budget_left:
            current = tuple(self.plane.endpoints(pending.forwarded))
            next_endpoint = next(
                (endpoint for endpoint in current if endpoint not in pending.tried), None
            )
            if next_endpoint is not None:
                # Fail over: same envelope, next shard in the *current*
                # plane order (membership and backlogs may have changed
                # since submit).  The request id carries over, so
                # whichever shard answers first wins and stragglers are
                # dropped as duplicates.  A shard the controller drained
                # mid-attempt has dropped out of the re-queried order —
                # that re-route is membership churn, not a shard fault,
                # and must not pollute the failover counter.
                if pending.tried and pending.tried[-1] not in current:
                    self.churn_reroutes += 1
                else:
                    self.failovers += 1
                self._dispatch(
                    pending.request,
                    pending.forwarded,
                    next_endpoint,
                    pending.tried,
                    pending.attempts_left - 1,
                    next_window,
                    pending.deadline,
                    pending.callback,
                    pending.requested_at,
                )
                return
        self.timeouts += 1
        decision = AccessDecision(
            request_id=request_id,
            decision="Deny",
            status_code="timeout",
            decided_at=self.sim.now,
        )
        self._enforce(pending.request, decision, pending.callback, pending.requested_at)
