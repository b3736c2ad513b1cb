"""The PDP as a deployed network service.

Lives in the infrastructure tenant.  For each ``ac_request`` message it
fetches the active policy version from the PRP, evaluates the request and
replies with an ``ac_response``.

Each policy version is compiled once through the target index
(:mod:`repro.xacml.index`) and kept in a small per-fingerprint LRU (policy
flip-flops do not recompile), rule counts are memoised per version, and a
:class:`~repro.accesscontrol.decision_cache.DecisionCache` serves repeated
requests without re-walking the policy tree.  Cached and indexed decisions
are bit-identical to plain object-model evaluation
(``PolicyDecisionPoint(indexed=False)``; differential tests enforce this),
so probes and DRAMS observe the same behaviour either way.

Every decision (and hence its ``pdp-out`` log entry) is stamped with the
policy ``(version, fingerprint)`` it was evaluated under, so when PRP
replicas skew (see :mod:`repro.policydist`) the monitoring plane can tell
honest propagation churn from tampering.  The decision cache keys on the
fingerprint, so a stale replica serving version *k* never pollutes a
fresh replica's cache even when the cache is shared across shards.

Probe hooks (DRAMS attaches here):

- ``on_request_received(request)`` — fired when a request arrives (PDP-in),
- ``on_decision(request, decision)`` — fired when the decision leaves the
  component (PDP-out), *after* any compromise interceptor, because a probe
  can only observe what the component actually emits.

Attack injection: :mod:`repro.threats` installs ``evaluation_interceptor``
to model a compromised evaluation process, or publishes a rogue policy via
the PRP to model policy alteration.  An override PDP bypasses the decision
cache entirely — rogue decisions are neither served from nor written to it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.simnet.network import Host, Message, Network
from repro.xacml.context import RequestContext
from repro.xacml.index import attribute_footprint
from repro.xacml.parser import policy_from_dict
from repro.xacml.pdp import PolicyDecisionPoint
from repro.accesscontrol.decision_cache import DecisionCache
from repro.accesscontrol.messages import AccessDecision, AccessRequest
from repro.accesscontrol.prp import PolicyRetrievalPoint, PolicyVersion

RequestHook = Callable[[AccessRequest], None]
DecisionHook = Callable[[AccessRequest, AccessDecision], None]
EvaluationInterceptor = Callable[[AccessRequest, AccessDecision], AccessDecision]


@dataclass
class _CompiledPolicy:
    """Everything derived once per policy fingerprint."""

    pdp: PolicyDecisionPoint
    rule_count: int
    footprint: frozenset


class PdpService(Host):
    """Network-facing wrapper around the XACML PDP."""

    #: Compiled policy versions kept (LRU): policy publications are
    #: unbounded over a federation's lifetime, distinct *concurrent*
    #: versions (flip-flop churn, skewed replicas) are not.
    PDP_CACHE_SIZE = 8

    def __init__(
        self,
        network: Network,
        address: str,
        prp: PolicyRetrievalPoint,
        base_processing_delay: float = 0.0005,
        per_rule_delay: float = 0.00001,
        decision_cache: Optional[DecisionCache] = None,
        use_decision_cache: bool = True,
        serialize_evaluations: bool = False,
    ) -> None:
        super().__init__(network, address)
        self.prp = prp
        self.base_processing_delay = base_processing_delay
        self.per_rule_delay = per_rule_delay
        #: Capacity model: when True the evaluator is single-threaded —
        #: each evaluation occupies it for its processing delay and
        #: concurrent requests queue behind the busy cursor.  Off by
        #: default (the classic infinitely-parallel service), on in the
        #: decision-plane scaling benchmark where the single-evaluator
        #: ceiling is the thing being measured.
        self.serialize_evaluations = serialize_evaluations
        self._busy_until = 0.0
        self.requests_served = 0
        #: Evaluations accepted but not yet replied to.  The elastic
        #: decision plane drains a shard only once this reaches zero, so
        #: membership changes never abandon in-flight work.
        self.pending_evaluations = 0
        #: Crash/restart state (fault plane).  ``_epoch`` fences scheduled
        #: evaluation events: an event armed before a crash carries the old
        #: epoch and is discarded when it fires, modelling the process
        #: dying with its run queue.
        self.crashed = False
        self.crashes = 0
        self.evaluations_lost = 0
        self._epoch = 0
        self.on_request_received: list[RequestHook] = []
        self.on_decision: list[DecisionHook] = []
        self.evaluation_interceptor: Optional[EvaluationInterceptor] = None
        #: Attack injection point: a rogue policy replacing the PRP view
        #: (models the attacker altering the policy the PDP enforces).
        self.policy_override: Optional[PolicyDecisionPoint] = None
        self.pdp_compilations = 0
        self._pdp_cache: "OrderedDict[str, _CompiledPolicy]" = OrderedDict()
        self.decision_cache: Optional[DecisionCache] = None
        if use_decision_cache:
            # "or" would discard an *empty* shared cache (len() == 0 is falsy).
            self.decision_cache = decision_cache if decision_cache is not None else DecisionCache()
            self.decision_cache.bind(prp)

    # -- policy management -------------------------------------------------------

    def _compiled_current(self) -> tuple[PolicyVersion, _CompiledPolicy]:
        """The active policy version with its compiled artefacts (LRU-kept)."""
        version = self.prp.current()
        compiled = self._pdp_cache.get(version.fingerprint)
        if compiled is None:
            root = policy_from_dict(version.document)
            compiled = _CompiledPolicy(
                pdp=PolicyDecisionPoint(root, indexed=True),
                rule_count=_count_rules(version.document),
                footprint=attribute_footprint(root),
            )
            self._pdp_cache[version.fingerprint] = compiled
            self.pdp_compilations += 1
            while len(self._pdp_cache) > self.PDP_CACHE_SIZE:
                self._pdp_cache.popitem(last=False)
        else:
            self._pdp_cache.move_to_end(version.fingerprint)
        return version, compiled

    def current_footprint(self) -> tuple[PolicyVersion, frozenset]:
        """Active policy version and its attribute footprint (LRU-kept).

        Public so the decision plane can route on the same footprint
        projection this service keys its cache with, without compiling
        the policy a second time.
        """
        version, compiled = self._compiled_current()
        return version, compiled.footprint

    def _rule_count(self) -> int:
        return self._compiled_current()[1].rule_count

    # -- load inspection ---------------------------------------------------------

    def busy_seconds(self) -> float:
        """The shard's *busy cursor*: queued work ahead of a new arrival.

        Under ``serialize_evaluations`` every accepted request extends
        ``_busy_until``, so this is exactly how long a request arriving
        now would wait before its evaluation starts.  The queue-aware
        decision plane routes around shards whose cursor is long instead
        of waiting out the PEP's per-attempt timeout.  An
        infinitely-parallel evaluator (the default model) never queues
        and always reports 0.
        """
        if not self.serialize_evaluations:
            return 0.0
        return max(0.0, self._busy_until - self.sim.now)

    # -- crash / restart ---------------------------------------------------------

    def crash(self) -> None:
        """Abrupt process failure: drop off the network, lose in-flight work.

        Accepted-but-unanswered evaluations are gone (their scheduled
        events are epoch-fenced, their PEPs will time out and fail over);
        the busy cursor resets with the process.  The decision cache is
        *not* touched here — whether it dies with the process is the
        plane's call (:meth:`ShardedPdpPlane.crash_shard` clears a
        partitioned cache, leaves a shared one to the survivors).
        Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self._epoch += 1
        self.evaluations_lost += self.pending_evaluations
        self.pending_evaluations = 0
        self._busy_until = 0.0
        tracer = self.network.telemetry
        if tracer is not None:
            # Accepted-but-unanswered evaluations die with the process;
            # their spans close now instead of lingering as orphans.
            tracer.close_prefixed(("pdp.evaluate", self.address), "crashed")
        self.network.detach(self.address)

    def restart(self) -> None:
        """Come back up at the same address (a fresh network incarnation).

        Messages sent to the dead incarnation stay dead (the network's
        incarnation fence drops them); only traffic sent from now on
        reaches the restarted service.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.network.attach(self)

    # -- message handling -------------------------------------------------------

    def _handle_request(self, message: Message, request: AccessRequest) -> None:
        for hook in self.on_request_received:
            hook(request)
        # Compute the cache key once at receipt; the scheduled evaluation
        # reuses it unless a racing policy publication changed the
        # fingerprint in between (then it recomputes — correctness first).
        # The processing delay is committed here, so a hit-predicted request
        # whose entry is flushed/evicted before evaluation is charged the
        # hit-path delay despite the full tree walk — an accepted
        # approximation, bounded by in-flight requests per policy publish.
        keyed = self._request_key(request)
        hit_expected = keyed is not None and self.decision_cache.contains(keyed[1])
        delay = self.base_processing_delay
        if not hit_expected:
            delay += self.per_rule_delay * self._rule_count()
        if self.serialize_evaluations:
            start = max(self.sim.now, self._busy_until)
            self._busy_until = start + delay
            delay = self._busy_until - self.sim.now
        self.pending_evaluations += 1
        epoch = self._epoch
        tracer = self.network.telemetry
        if tracer is not None:
            # Keyed span covering queue wait + evaluation; the reply path
            # closes it, a crash closes every open one for this shard.
            # open_span is idempotent, so a duplicated delivery re-finds
            # the live span instead of forking the trace.
            key = ("pdp.evaluate", self.address, request.request_id)
            tracer.open_span(key, "pdp.evaluate", self.address, attrs={"cache_hit": hit_expected})
        evaluate = partial(self._evaluate_and_reply, request, message.src, keyed, epoch)
        self.sim.schedule(delay, evaluate, label=f"pdp-eval:{request.request_id}")

    RECEIVES = {"ac_request": (AccessRequest, _handle_request)}

    def _request_key(self, request: AccessRequest) -> Optional[tuple[str, str]]:
        """``(fingerprint, cache key)`` for the active policy, if cacheable."""
        if self.decision_cache is None or self.policy_override is not None:
            return None
        if self.prp.version_count() == 0:
            return None
        version, compiled = self._compiled_current()
        key = self.decision_cache.request_key(
            version.fingerprint, request.content, compiled.footprint
        )
        return version.fingerprint, key

    def _evaluate_and_reply(
        self,
        request: AccessRequest,
        reply_to: str,
        keyed: Optional[tuple[str, str]] = None,
        epoch: Optional[int] = None,
    ) -> None:
        if epoch is not None and epoch != self._epoch:
            # The process crashed after accepting this evaluation; the
            # event outlived it.  The loss was already accounted at crash
            # time (``evaluations_lost``) — just let the event die.
            return
        tracer = self.network.telemetry
        if tracer is not None:
            span_key = ("pdp.evaluate", self.address, request.request_id)
            span = tracer.keyed(span_key)
            if span is not None:
                # The reply (and the PDP-out probe legs) inherit the
                # evaluation span; non-strict close because a duplicated
                # request schedules a second evaluation of the same key.
                with tracer.activate(span.context):
                    self._serve(request, reply_to, keyed)
                tracer.close_span(span_key, "ok", strict=False)
                return
        self._serve(request, reply_to, keyed)

    def _serve(
        self, request: AccessRequest, reply_to: str, keyed: Optional[tuple[str, str]]
    ) -> None:
        self.requests_served += 1
        self.pending_evaluations -= 1
        payload, version = self._decide(request, keyed)
        decision = AccessDecision(
            request_id=request.request_id,
            decision=payload["decision"],
            obligations=payload["obligations"],
            status_code=payload["status_code"],
            decided_at=self.sim.now,
            # Provenance stamp: the policy this evaluator claims it decided
            # under.  On the compromised-override path the stamp still names
            # the PRP's version — an attacker forging decisions forges a
            # legitimate-looking stamp, and only the Analyser's re-derivation
            # exposes the lie.
            policy_version=version.version if version is not None else 0,
            policy_fingerprint=version.fingerprint if version is not None else "",
        )
        if self.evaluation_interceptor is not None:
            decision = self.evaluation_interceptor(request, decision)
        for hook in self.on_decision:
            hook(request, decision)
        self.send(reply_to, "ac_response", decision.to_dict())

    def _decide(
        self, request: AccessRequest, keyed: Optional[tuple[str, str]] = None
    ) -> tuple[dict, Optional[PolicyVersion]]:
        """Serialized response for ``request`` plus the policy version used:
        cached, indexed, or overridden."""
        if self.policy_override is not None:
            # Compromised evaluation path: never consult or feed the cache.
            response = self.policy_override.evaluate(RequestContext.from_dict(request.content))
            claimed = self.prp.current() if self.prp.version_count() else None
            return _response_payload(response), claimed
        version, compiled = self._compiled_current()
        key = None
        if self.decision_cache is not None:
            if keyed is not None and keyed[0] == version.fingerprint:
                key = keyed[1]
            else:
                key = self.decision_cache.request_key(
                    version.fingerprint, request.content, compiled.footprint
                )
            cached = self.decision_cache.get(key)
            if cached is not None:
                return cached, version
        response = compiled.pdp.evaluate(RequestContext.from_dict(request.content))
        payload = _response_payload(response)
        if key is not None:
            self.decision_cache.put(key, version.fingerprint, payload)
        return payload, version


def _response_payload(response) -> dict:
    return {
        "decision": response.decision.value,
        "status_code": response.status_code,
        "obligations": [ob.to_dict() for ob in response.obligations],
    }


def _count_rules(document: dict) -> int:
    if document.get("kind") == "policy":
        return len(document.get("rules", []))
    return sum(_count_rules(child) for child in document.get("children", []))
