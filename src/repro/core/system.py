"""Scenario assembly: build a whole mirrored OIS server and run it.

:class:`MirroredServer` wires up the paper's Figure 2 architecture on
the simulated cluster: a central site (auxiliary + main unit) fed by
data sources, ``n_mirrors`` secondary mirror sites, data/control event
channels between them, a regular-client population behind the client
ethernet, and an httperf-style request driver aimed at the mirrors.

``run()`` replays the configured event script, drives the request
arrivals, and returns :class:`~repro.metrics.RunMetrics` whose
``total_execution_time`` is the paper's headline metric: the time to
process the entire event sequence *and* service all client requests.
"""

from __future__ import annotations

import gc

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence

from ..channels import ChannelRegistry
from ..cluster import CostModel, Message, Network, Node, Transport
from ..metrics import RunMetrics
from ..ois.clients import ClientPool, InitStateRequest
from ..ois.flightdata import EventScript, FlightDataConfig, generate_script
from ..sim import Environment
from ..workload import RoundRobinBalancer
from .adaptation import AdaptationController
from .aux_unit import CentralAuxUnit, MirrorAuxUnit
from .config import MirrorConfig
from .functions import FunctionRegistry, default_registry, simple_mirroring
from .invariants import InvariantMonitor
from .main_unit import EOS, MainUnit

__all__ = ["ScenarioConfig", "ScenarioResult", "MirroredServer", "run_scenario"]

#: Nodes are modelled as single serial servers: the framework's tasks
#: contend on one effective processor (the paper's dual-processor
#: testbed spent its second CPU on OS/interrupt work, and the reported
#: overheads — "thread scheduling, queue management" — appear on the
#: critical path, not hidden by task parallelism).
NODE_CPUS = 1
#: Master seed of the synthetic subscription population's substream.
SUBSCRIPTION_SEED = 7
#: Seconds between source retries while the ingest site is down.
SOURCE_RETRY_S = 0.05


@dataclass
class ScenarioConfig:
    """Everything that defines one experimental run."""

    #: number of secondary mirror sites (0 = central only)
    n_mirrors: int = 1
    #: the mirroring function / parameters in force at start
    mirror_config: MirrorConfig = field(default_factory=simple_mirroring)
    #: False = the no-mirroring baseline (events only forwarded to the
    #: central EDE; no backup queues, no checkpoints, no mirror traffic)
    mirroring: bool = True
    #: event workload (sizes, counts, rates)
    workload: FlightDataConfig = field(default_factory=FlightDataConfig)
    #: request arrival times (seconds); build with workload.arrival_times
    request_times: Sequence[float] = ()
    #: alternatively, a constant request rate (req/s) sustained until the
    #: event stream has been fully processed — the paper's "constant
    #: request load" setup for self-paced (ASAP) event sequences
    request_rate: float = 0.0
    #: where requests go: "mirrors" (paper default; falls back to the
    #: central site when there are none), or "central"
    request_target: str = "mirrors"
    #: pre-existing operational state (flights); raises snapshot weight
    #: (0 = snapshots cover only the flights the workload itself creates,
    #: keeping request cost CPU-dominated — the paper uses httperf purely
    #: "to simulate client requests that add load to the server's sites")
    preload_flights: int = 0
    #: per-node CPU cost model
    costs: CostModel = field(default_factory=CostModel)
    #: heterogeneity: per-mirror speed factors (>1 = slower machine);
    #: shorter sequences pad with 1.0 — mirror i uses costs.scaled(f_i)
    mirror_speed_factors: Sequence[float] = ()
    #: transfer snapshots over the modelled client link (False = clients
    #: are reached over their own per-client paths; service cost only)
    snapshot_on_wire: bool = True
    #: size of a rotating pool of *resume-capable* thin clients: when
    #: > 0, requests are issued round-robin from this many client ids,
    #: each advertising the generation of its previous view so servers
    #: with ``delta_snapshots`` enabled can answer incrementally.
    #: 0 = the paper's anonymous one-shot clients.
    delta_client_pool: int = 0
    #: charge serialization + link costs for the *measured* binary wire
    #: size of each remote payload (``repro.wire`` codec) instead of the
    #: modeled ``Message.size``; False keeps every default-config run
    #: byte-identical to the seed
    measured_wire_sizes: bool = False
    # -- content-based subscriptions (repro.sub) --------------------------
    #: size of the synthetic subscription population registered with the
    #: distributing site's broker; 0 keeps the seed's flat-broadcast
    #: distribution path (and its byte-identical figures) untouched
    sub_population: int = 0
    #: expected fraction of flight-keyed events each subscribed client
    #: receives (each client subscribes to ~selectivity * n_flights
    #: flights) — the x-axis of the perturbation-vs-selectivity figure
    sub_selectivity: float = 0.01
    #: also evaluate every consulted event against the naive predicate
    #: oracle and count divergences (chaos drills assert the count is 0)
    sub_verify: bool = False
    #: hard stop for the simulation (None = run to quiescence)
    time_limit: Optional[float] = None
    #: enable the adaptation controller when the config has monitors
    adaptation: bool = False
    #: collect a control-plane trace (metrics.tracer)
    trace: bool = False
    registry: Optional[FunctionRegistry] = None
    # -- fault injection and failover (repro.faults) ----------------------
    #: scripted faults to inject (a ``repro.faults.FaultPlan``); None
    #: keeps every default-config run byte-identical to the seed
    fault_plan: Optional[Any] = None
    #: run the failure detector + failover supervisor (heartbeats,
    #: membership, live mirror promotion)
    failover: bool = False
    #: seconds between liveness beacons from each site
    heartbeat_interval: float = 0.5
    #: uniform jitter fraction applied to each heartbeat period (seeded)
    heartbeat_jitter: float = 0.0
    #: seconds between detector timeout sweeps
    detection_sweep: float = 0.25
    #: detector thresholds, in heartbeat intervals (hysteresis pair)
    suspect_after: float = 3.0
    dead_after: float = 6.0
    #: name of the shard this scenario's cluster represents (e.g.
    #: ``shard0``).  Local site names stay bare; fault-plan actions and
    #: supervisor notifications may then use shard-qualified ids
    #: (``shard0/mirror1``), resolved exactly — see
    #: :mod:`repro.faults.siteid`.  "" = unsharded.
    shard: str = ""

    def __post_init__(self):
        if self.n_mirrors < 0:
            raise ValueError("n_mirrors must be >= 0")
        if self.request_target not in ("mirrors", "central"):
            raise ValueError("request_target must be 'mirrors' or 'central'")
        if any(t < 0 for t in self.request_times):
            raise ValueError("request times must be >= 0")
        if self.request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        if self.request_rate and list(self.request_times):
            raise ValueError("give request_times or request_rate, not both")
        if self.preload_flights < 0:
            raise ValueError("preload_flights must be >= 0")
        if self.delta_client_pool < 0:
            raise ValueError("delta_client_pool must be >= 0")
        if any(f <= 0 for f in self.mirror_speed_factors):
            raise ValueError("mirror speed factors must be positive")
        if self.sub_population < 0:
            raise ValueError("sub_population must be >= 0")
        if self.sub_population and not 0.0 < self.sub_selectivity <= 1.0:
            raise ValueError(
                f"sub_selectivity must be in (0, 1], got {self.sub_selectivity}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if not 0.0 <= self.heartbeat_jitter < 1.0:
            raise ValueError("heartbeat_jitter must be in [0, 1)")
        if self.detection_sweep <= 0:
            raise ValueError("detection_sweep must be positive")
        if (
            self.fault_plan is not None
            and getattr(self.fault_plan, "site_actions", lambda: ())()
            and not self.failover
            and self.time_limit is None
        ):
            # a dead site with nobody recovering it leaves the source
            # retrying forever: quiescence would never come
            raise ValueError(
                "site-level faults need failover=True or a time_limit"
            )


@dataclass
class ScenarioResult:
    """A finished run: metrics plus handles for deeper inspection."""

    config: ScenarioConfig
    metrics: RunMetrics
    server: "MirroredServer"


class MirroredServer:
    """One fully wired scenario instance (build once, run once)."""

    def __init__(self, config: ScenarioConfig, script: Optional[EventScript] = None):
        self.config = config
        self.script = script if script is not None else generate_script(config.workload)
        self.metrics = RunMetrics()
        if config.trace:
            from ..sim.trace import Tracer

            self.metrics.tracer = Tracer()
        self.env = Environment()
        self.network = Network(self.env)
        self.transport = Transport(self.env, self.network)
        self.channels = ChannelRegistry(self.env, self.transport)
        self._build()

    # -- construction ------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config
        env = self.env

        # nodes: central + mirrors inside the cluster; clients external
        self.central_node = Node(env, "central", cpus=NODE_CPUS, costs=cfg.costs)
        factors = list(cfg.mirror_speed_factors) + [1.0] * cfg.n_mirrors
        self.mirror_nodes = [
            Node(
                env, f"mirror{i+1}", cpus=NODE_CPUS,
                costs=cfg.costs if factors[i] == 1.0 else cfg.costs.scaled(factors[i]),
            )
            for i in range(cfg.n_mirrors)
        ]
        self.clients_node = Node(env, "clients", cpus=1, costs=cfg.costs)
        self.network.mark_external("clients")
        self.client_pool = ClientPool()
        self.transport.register("clients.sink", self.clients_node)

        # content-based subscription broker (deferred import: the seed's
        # flat-broadcast distribution path never pays for repro.sub)
        self.broker = None
        if cfg.sub_population > 0:
            from ..sim.rng import RandomStreams
            from ..sub.broker import SubscriptionBroker, build_population

            self.broker = SubscriptionBroker(verify=cfg.sub_verify)
            self.broker.populate(
                build_population(
                    cfg.sub_population,
                    self.script.flight_keys(),
                    cfg.sub_selectivity,
                    RandomStreams(SUBSCRIPTION_SEED).stream("subscriptions"),
                )
            )

        # main units (the central one distributes updates to clients)
        self.central_main = MainUnit(
            env, "central", self.central_node, self.transport, self.metrics,
            distribute_updates=True,
            clients_endpoint="clients.sink",
            client_pool=self.client_pool,
            snapshot_on_wire=cfg.snapshot_on_wire,
            mirror_config=cfg.mirror_config,
            broker=self.broker,
        )
        self.mirror_mains = [
            MainUnit(
                env, node.name, node, self.transport, self.metrics,
                distribute_updates=False,
                clients_endpoint="clients.sink",
                client_pool=self.client_pool,
                snapshot_on_wire=cfg.snapshot_on_wire,
                    mirror_config=cfg.mirror_config,
                broker=self.broker,
            )
            for node in self.mirror_nodes
        ]
        for main in [self.central_main] + self.mirror_mains:
            for i in range(cfg.preload_flights):
                main.ede.state.flight(f"PRE{i:04d}")

        # one monitor watches every unit: the cross-site invariants
        # (per-round agreement) need the global view
        self.monitor = (
            InvariantMonitor() if cfg.mirror_config.check_invariants else None
        )

        # mirror aux units + channels
        self.mirror_auxes = [
            MirrorAuxUnit(
                env, node.name, node, self.transport, main, self.metrics,
                monitor=self.monitor,
            )
            for node, main in zip(self.mirror_nodes, self.mirror_mains)
        ]
        mirror_channel = self.channels.create("mirror.data", kind="data")
        ctrl_channel = self.channels.create("mirror.ctrl", kind="control")
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        for aux in self.mirror_auxes:
            mirror_channel.subscribe(f"{aux.site}.aux.data")
            ctrl_channel.subscribe(f"{aux.site}.aux.ctrl")

        participants = {"central"} | {aux.site for aux in self.mirror_auxes}
        adaptation = None
        if cfg.adaptation:
            adaptation = AdaptationController(
                cfg.mirror_config,
                registry=cfg.registry if cfg.registry is not None else default_registry(),
            )
        self.adaptation = adaptation
        self.central_aux = CentralAuxUnit(
            env, self.central_node, self.transport, self.central_main,
            mirror_channel, ctrl_channel, cfg.mirror_config, participants,
            self.metrics,
            mirroring_enabled=cfg.mirroring,
            adaptation=adaptation,
            monitor=self.monitor,
        )

        # site registries (name -> unit/node) for routing and failover
        self.mains = {"central": self.central_main}
        self.mains.update({m.site: m for m in self.mirror_mains})
        self.auxes: dict = {"central": self.central_aux}
        self.auxes.update({a.site: a for a in self.mirror_auxes})
        self.nodes = {"central": self.central_node}
        self.nodes.update({n.name: n for n in self.mirror_nodes})

        # live-failover state: which site plays primary, and where the
        # source stream currently lands (both switched at promotion)
        self.primary_site = "central"
        self.ingest = "central.aux.data"
        self.source_done = False
        self._ingest_abandoned = False
        self._request_driver_done = True
        self.request_balancer = self._request_targets()

        # fault wiring (deferred imports: repro.faults is layered on top
        # of core and is only paid for when a scenario asks for it)
        self.fault_injector = None
        self.failover_supervisor = None
        if cfg.fault_plan is not None and cfg.fault_plan.link_actions():
            from ..faults.link import LinkFaultController

            self.transport.fault_controller = LinkFaultController(cfg.fault_plan)
        if cfg.measured_wire_sizes:
            from ..wire import WireSizeProbe

            self.transport.size_probe = WireSizeProbe()
        if cfg.failover:
            from ..faults.failover import FailoverSupervisor

            self.failover_supervisor = FailoverSupervisor(self)
        if cfg.fault_plan is not None and cfg.fault_plan.site_actions():
            from ..faults.injector import FaultInjector

            self.fault_injector = FaultInjector(self, cfg.fault_plan)

        # drivers
        env.process(self._source_driver())
        if cfg.request_times:
            self._request_driver_done = False
            env.process(self._request_driver(sorted(cfg.request_times)))
        elif cfg.request_rate > 0:
            self._request_driver_done = False
            env.process(self._rate_request_driver(cfg.request_rate))

    # -- site lookups (repro.faults) ---------------------------------------
    def main_of(self, site: str) -> MainUnit:
        return self.mains[site]

    def aux_of(self, site: str):
        return self.auxes[site]

    def node_of(self, site: str) -> Node:
        return self.nodes[site]

    def stream_done_event(self):
        """The event that resolves when the stream is fully processed —
        the central aux unit's, unless a promotion moved the stream's
        tail to a new primary before the central one could finish."""
        if self.primary_site == "central" or self.central_aux.stream_done.triggered:
            return self.central_aux.stream_done
        return self.auxes[self.primary_site].stream_done

    def promote_site(self, site: str, participants: set, resume_vt=None) -> None:
        """Re-point the server at a promoted primary (live failover).

        Unsubscribes the promoted site from the mirror channels (it now
        publishes to them), flips its aux unit into primary mode, makes
        its main unit the update distributor, and re-targets every
        survivor's checkpoint replies.  The *ingest* switch is left to
        the failover supervisor: salvaged in-flight source events must be
        re-fed to the new primary before fresh ones may flow.
        """
        aux = self.auxes[site]
        self.mirror_channel.unsubscribe(f"{site}.aux.data")
        self.ctrl_channel.unsubscribe(f"{site}.aux.ctrl")
        config = aux.applied_config or self.config.mirror_config
        aux.promote_to_primary(
            self.mirror_channel, self.ctrl_channel, config, participants,
            resume_vt=resume_vt,
        )
        self.mains[site].distribute_updates = True
        for other, peer in self.auxes.items():
            if other != site and isinstance(peer, MirrorAuxUnit):
                peer.reply_endpoint = f"{site}.aux.ctrl"
        self.primary_site = site

    # -- drivers -------------------------------------------------------------
    def _source_driver(self):
        """Replay the event script into the current ingest endpoint.

        The source is a driver, not a modelled component: events are
        injected at their scripted times and all cost accounting starts
        at the central receiving task (DESIGN.md §5).  While the ingest
        site is down the source holds and retries — the wide-area feed's
        flow control — so no *new* events enter during a failover.
        """
        count = 0
        for se in self.script.fresh_events():
            if se.at > self.env.now:
                yield self.env.timeout(se.at - self.env.now)
            delivered = yield from self._ingest_put(
                Message(kind="data", payload=se.event, size=se.event.size)
            )
            if not delivered:
                self.metrics.events_lost_at_source += 1
            count += 1
        self.metrics.events_generated = count
        self.source_done = True
        yield from self._ingest_put(Message(kind="data", payload=EOS, size=0))

    def _ingest_put(self, message: Message):
        """Deliver into the ingest endpoint, waiting out a dead primary.

        Returns False when delivery was abandoned (the primary died and
        no failover is coming), which loses the event *at the source* —
        uncommitted by definition.
        """
        while True:
            ep = self.transport.endpoint(self.ingest)
            if not self.transport.node_down(ep.node.name):
                # the driver only yields the put to wait out a full inbox;
                # with room available the event lands synchronously
                if not ep.inbox.offer(message):
                    yield ep.inbox.put(message)
                return True
            if self._ingest_abandoned:
                return False
            yield self.env.timeout(SOURCE_RETRY_S)

    def _request_targets(self) -> RoundRobinBalancer:
        cfg = self.config
        if cfg.request_target == "mirrors" and self.mirror_auxes:
            targets = [f"{aux.site}.requests" for aux in self.mirror_auxes]
        else:
            targets = ["central.requests"]
        return RoundRobinBalancer(targets)

    def _issue_request(self, i: int):
        cfg = self.config
        if cfg.delta_client_pool > 0:
            # a rotating pool of known clients: repeat visitors advertise
            # the generation of their previous view (resume capability)
            request = self.client_pool.resume_request(
                f"thin{i % cfg.delta_client_pool:05d}",
                self.env.now,
                reply_to="clients.sink",
            )
        else:
            request = InitStateRequest(
                client_id=f"thin{i:05d}", issued_at=self.env.now,
                reply_to="clients.sink",
            )
        self.metrics.requests_issued += 1
        # the balancer attribute is re-read per request: the failover
        # supervisor swaps it when a serving site dies
        ep = self.transport.endpoint(self.request_balancer.pick())
        message = Message(kind="data", payload=request, size=64)
        if self.transport.node_down(ep.node.name):
            # undeliverable: park with the dead letters so the failover
            # supervisor can re-issue it against a surviving site
            self.transport.dropped += 1
            self.transport.dead_letters.append(message)
            return self.env.timeout(0.0)
        return ep.inbox.put(message)

    def _request_driver(self, times: Sequence[float]):
        """httperf stand-in: open-loop arrivals at explicit times."""
        for i, at in enumerate(times):
            if at > self.env.now:
                yield self.env.timeout(at - self.env.now)
            yield self._issue_request(i)
        self._request_driver_done = True

    def _rate_request_driver(self, rate: float):
        """Constant request load sustained while the event stream runs."""
        spacing = 1.0 / rate
        i = 0
        while not (
            self.stream_done_event().triggered or self._ingest_abandoned
        ):
            yield self._issue_request(i)
            i += 1
            yield self.env.timeout(spacing)
        self._request_driver_done = True

    # -- execution ------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Run to quiescence; fills and returns the metrics.

        A server instance runs once: processes consume their queues, so
        re-running would silently measure an empty system.
        """
        if getattr(self, "_ran", False):
            raise RuntimeError(
                "MirroredServer.run() may only be called once; build a "
                "fresh server (or use run_scenario) for another run"
            )
        self._ran = True
        # GC pacing (matches the socket runtime): the kernel allocates a
        # handful of small objects per simulated event, so the collector's
        # default gen-0 trigger fires thousands of times per run scanning
        # mostly-live graphs.  Raise the threshold for the run's duration;
        # collection stays enabled and thresholds are restored on exit.
        gc_thresholds = gc.get_threshold()
        gc.set_threshold(50_000, gc_thresholds[1], gc_thresholds[2])
        try:
            self.env.run(until=self.config.time_limit)
        finally:
            gc.set_threshold(*gc_thresholds)
        self.metrics.total_execution_time = self.env.now
        self.metrics.bytes_on_wire = self.network.total_bytes()
        self.metrics.wire_messages = self.transport.wire_messages
        if self.transport.size_probe is not None:
            probe = self.transport.size_probe
            self.metrics.wire_frames_encoded = probe.frames_measured
            self.metrics.wire_bytes_encoded = probe.bytes_measured
            self.metrics.wire_encode_fallbacks = probe.fallbacks
        self.metrics.cpu_utilization = {
            node.name: node.utilization()
            for node in [self.central_node, *self.mirror_nodes]
        }
        if not self.metrics.rule_stats:
            self.metrics.rule_stats = self.central_aux.engine.stats()
        if self.broker is not None:
            self.metrics.sub_events_consulted = self.broker.events_consulted
            self.metrics.sub_deliveries = self.broker.deliveries
            self.metrics.sub_reregistrations = self.broker.reregistrations
            self.metrics.sub_oracle_mismatches = self.broker.oracle_mismatches
        if self.fault_injector is not None:
            self.fault_injector.finalize(self.metrics)
        if self.failover_supervisor is not None:
            self.failover_supervisor.finalize(self.metrics)
        return self.metrics

    # -- consistency inspection (used by tests / recovery) ----------------
    def replica_digests(self) -> List[tuple]:
        """State digests of the central + every mirror EDE."""
        return [self.central_main.ede.state_digest()] + [
            m.ede.state_digest() for m in self.mirror_mains
        ]


def run_scenario(
    config: ScenarioConfig, script: Optional[EventScript] = None
) -> ScenarioResult:
    """Convenience one-shot: build, run, return result."""
    server = MirroredServer(config, script=script)
    metrics = server.run()
    return ScenarioResult(config=config, metrics=metrics, server=server)
