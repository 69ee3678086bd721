"""The simulated main unit (§3.1), built on :class:`MainCore`.

Each site runs a *main unit* executing the application-specific code —
the Event Derivation Engine — over the events its auxiliary unit
forwards.  The central site's main unit additionally distributes the
resulting state updates to the regular-client population; every site's
main unit serves client initial-state requests (the mirror sites'
"primary task", per the paper, is exactly that request service).

What the unit decides — apply, view choice, accounting, checkpoint
floor — is :class:`~repro.core.maincore.MainCore`'s.  This unit adds
the simulation: it charges the node's modelled cost around each core
call, runs a pool of request handlers, coalesces requests onto an
in-flight build, and transfers each view to the client over the
modelled link.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster import Message, Node, Transport
from ..metrics import RunMetrics
from ..ois.clients import ClientPool, InitStateRequest
from ..ois.ede import EventDerivationEngine
from ..sim import Environment, Interrupt
from .config import MirrorConfig
from .events import EOS, UpdateEvent
from .maincore import MainCore

__all__ = ["MainUnit"]

#: Request-handler threads per site (thread-per-request server model).
REQUEST_HANDLERS = 4


class MainUnit(MainCore):
    """Business-logic unit of one site.

    Parameters
    ----------
    site:
        Site name (``"central"``, ``"mirror1"``, ...).
    node:
        The cluster node this unit shares with its auxiliary unit — the
        CPU contention between request service and event processing on
        this shared resource is the perturbation the paper measures.
    distribute_updates:
        True on the central site only: charge per-update distribution
        cost, record update delays, and push updates to the client pool.
    clients_endpoint:
        Transport endpoint of the (external) client population; updates
        and snapshots are transmitted there when set, charging the
        client-ethernet link.
    """

    def __init__(
        self,
        env: Environment,
        site: str,
        node: Node,
        transport: Transport,
        metrics: RunMetrics,
        distribute_updates: bool = False,
        clients_endpoint: Optional[str] = None,
        client_pool: Optional[ClientPool] = None,
        snapshot_on_wire: bool = True,
        mirror_config: Optional[MirrorConfig] = None,
        broker: Optional[Any] = None,
    ):
        super().__init__(site, EventDerivationEngine(), mirror_config)
        self.env = env
        self.node = node
        self.transport = transport
        self.metrics = metrics
        self.distribute_updates = distribute_updates
        self.clients_endpoint = clients_endpoint
        self.client_pool = client_pool
        #: content-based subscription broker (``repro.sub``): when set,
        #: the distributing site pays per *matched* delivery on top of
        #: the flat distribution cost; None keeps the seed's economics
        self.broker = broker
        #: False models recovering clients reached over their own links
        #: (per-client paths, not the single modelled client ethernet)
        self.snapshot_on_wire = snapshot_on_wire
        self.inbox = transport.register(f"{site}.main", node)
        self.requests = transport.register(f"{site}.requests", node)
        self._requests_in_service = 0
        #: request messages currently inside ``_serve_request`` (one per
        #: worker); a crash reclaims these into the dead letters so a
        #: request caught mid-service is re-issued, not silently lost
        self._serving_msgs: list = []
        # request coalescing: while a snapshot build is in flight, the
        # builder's completion event lets concurrent requests share the
        # one build instead of each paying for their own
        self._build_done = None
        self._shared_snapshot = None
        #: degraded-mode flag (``repro.faults``): set while a failover is
        #: in flight — responses served now may be stale and say so
        self.degraded = False
        #: uid of the event currently inside ``ede.process`` (promotion
        #: replay must not double-feed it); stale values are harmless —
        #: a finished event is covered by ``checkpointer.processed_vt``
        self._processing_uid = -1
        self.processes: list = []
        self.start_processes()

    def start_processes(self) -> None:
        """(Re)spawn this unit's processes; used at build and at restart
        after a fault-injected crash (``repro.faults``)."""
        env = self.env
        self.processes = [env.process(self._event_loop())]
        # a pool of request-handler threads: under a request storm the
        # handlers crowd the node CPU's FIFO queue, starving the site's
        # event path — the perturbation §4.3 adapts away
        for _ in range(REQUEST_HANDLERS):
            self.processes.append(env.process(self._request_loop()))

    # -- monitoring ------------------------------------------------------
    def pending_requests(self) -> int:
        """Outstanding request count: the paper's 'application level
        buffer holding all pending client requests' monitor."""
        return self.requests.inbox.level + self._requests_in_service

    # -- processes ---------------------------------------------------------
    def _event_loop(self):
        try:
            yield from self._event_loop_body()
        except Interrupt:
            return  # fail-stop crash: die between (not inside) event steps

    def _event_loop_body(self):
        # loop invariants hoisted (distribute_updates is NOT — failover
        # flips it at runtime, so it is read fresh each event)
        costs = self.node.costs
        execute = self.node.execute
        inbox_get = self.inbox.inbox.get
        apply = self.apply
        while True:
            msg = yield inbox_get()
            if msg.payload == EOS:
                continue
            event: UpdateEvent = msg.payload
            self._processing_uid = event.uid
            yield from execute(costs.ede_cost(event.size))
            outputs = apply(event)
            if self.distribute_updates:
                for out in outputs:
                    yield from execute(costs.update_cost(out.size))
                    # content-based routing: with a broker configured the
                    # distributing site also pays one index probe plus a
                    # per-matched-client delivery demand — what makes
                    # subscription *selectivity* a perturbation knob
                    broker = self.broker
                    if broker is not None:
                        yield from execute(costs.sub_match_cost())
                        matched = broker.on_distribute(self.site, out)
                        if matched:
                            yield from execute(
                                costs.sub_delivery_cost(out.size, matched)
                            )
                    # update delay is measured when the EDE *sends* the
                    # update (paper §4.3) — client-link transit is not
                    # part of it, and distribution must not stall the EDE
                    self.metrics.update_delay.observe(self.env.now, out.entered_at)
                    self.metrics.updates_distributed += 1
                    # the server reaches its client population over
                    # "multiple network links" (§1): distribution CPU is
                    # charged above, but updates do not serialise through
                    # the single modelled client link (snapshots do)
                    if self.client_pool is not None:
                        self.client_pool.on_update(out, self.env.now)

    def _request_loop(self):
        costs = self.node.costs
        try:
            while True:
                msg = yield self.requests.inbox.get()
                request: InitStateRequest = msg.payload
                self._requests_in_service += 1
                self._serving_msgs.append(msg)
                yield from self._serve_request(request, costs)
                self._serving_msgs.remove(msg)
                self._requests_in_service -= 1
        except Interrupt:
            return  # crash mid-service: the injector parks _serving_msgs

    def _serve_request(self, request: InitStateRequest, costs):
        """Charge the service cost around :meth:`MainCore.serve` and hand
        off the response transfer.

        A full view is charged, then built: by default the full build
        cost per request, exactly the paper's economics (the store's
        view cache still elides the redundant Python-side rebuild, which
        cannot perturb simulated time).  With ``serve_cached_snapshots``
        on, cache hits and requests coalesced onto an in-flight build
        pay only the cached-service cost.  A delta view is built, then
        charged by what it turned out to be.
        """
        execute = self.node.execute
        store = self.ede.state
        state_bytes = store.state_bytes()
        fresh = store.cache_fresh
        if self._serve_deltas and request.resumable:
            view = self.serve(request, self.env.now)
            if view.is_delta:
                yield from execute(costs.request_delta_cost(view.size))
            elif self._serve_cached and fresh:
                # fallback full view, served straight from the cache
                yield from execute(costs.request_cached_cost(state_bytes))
            else:
                yield from execute(costs.request_cost(state_bytes))
        elif not self._serve_cached:
            # snapshot construction is the CPU-heavy part — this is what
            # steals cycles from event processing and perturbs the site
            yield from execute(costs.request_cost(state_bytes))
            view = self.serve(request, self.env.now)
        elif fresh:
            yield from execute(costs.request_cached_cost(state_bytes))
            view = self.serve(request, self.env.now)
        elif self._build_done is not None:
            # coalesce: a build is already in flight on this site — pay
            # the cached-service cost and share the builder's view
            # (capture the event first: the builder may finish, and clear
            # the slot, while this request's service cost elapses)
            done = self._build_done
            yield from execute(costs.request_cached_cost(state_bytes))
            if not done.processed:
                yield done
            # published before the event fires, and never cleared
            view = self._shared_snapshot
            self.snapshot_cache_hits += 1
        else:
            # leader: pay the full build, publish it to any coalescers
            self._build_done = self.env.event()
            yield from execute(costs.request_cost(state_bytes))
            view = self._shared_snapshot = self.serve(request, self.env.now)
            done, self._build_done = self._build_done, None
            done.succeed()
        # the transfer to the recovering client rides the client
        # link asynchronously; the next request's service starts now
        self.env.process(self._respond(request, view))

    def _respond(self, request: InitStateRequest, view):
        if self.clients_endpoint is not None and self.snapshot_on_wire:
            yield from self.transport.send(
                self.node,
                self.clients_endpoint,
                Message(kind="data", payload=view, size=view.size),
            )
        if self.transport.node_down(self.node.name):
            # the site died while the transfer was in flight: no response
            # ever reached the client, and the request is already off the
            # serving list — park it with the dead letters so the failover
            # supervisor re-issues it against a surviving site
            self.transport.dead_letters.append(
                Message(kind="data", payload=request, size=64)
            )
            return
        response = self.respond(request, view, self.env.now, self.degraded)
        if self.degraded:
            self.metrics.requests_served_degraded += 1
        self.metrics.requests_served += 1
        self.metrics.request_latency.observe(response.latency)
        if self.client_pool is not None:
            self.client_pool.on_init_response(response)
