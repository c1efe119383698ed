"""The three benchmark workloads: ``bulk``, ``churn`` and ``rpc``.

Each workload is a function ``round(inputs, phase) -> Round`` that
builds one seeded world afresh, runs it to completion and returns
what it measured and verified.  ``inputs`` is a ``random.Random``
derived from the run seed; nothing else feeds the world, so the same
inputs give the same simulated run, event for event.

``phase`` is the runner's handle on the round: the workload calls
``phase.watch(sim)`` right after creating its simulator (the event
digest), ``phase.setup_done()`` / ``phase.measure_done()`` around the
measured phase, and wraps its own application callbacks with
``phase.app`` so a traced run books them to the harness.

Why these three (see ``README.md``): ``bulk`` is datapath and batched
AEAD with no handshakes, ``churn`` is handshakes, pool and timers with
little bulk AEAD, and ``rpc`` is per-record cost on established
sessions with small records on both sides of the scalar/numpy
crossover.  Each is the bypass workload for the others' optimisations.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.sanitizers import EventOrderRecorder
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import dual_path_network, simple_duplex_network
from repro.scale.loadgen import ScaleConfig, run_scale
from repro.scale.pool import PoolConfig
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from hostspeed import HostSpeed
from spans import HARNESS, Tracer


@dataclass
class Round:
    """What one round of a workload measured and verified."""

    #: Wall seconds spent establishing the sessions this round used
    #: (inside set-up for ``bulk``/``rpc``; for ``churn`` handshakes are
    #: the work, so it is the measured phase).
    establish_s: float = 0.0
    #: The phase ``establish_s`` lies in: 0 = set-up, 1 = measured phase.
    establish_phase: int = 0
    sessions: int = 0
    #: Completed and verified transfers or request/response exchanges.
    requests: int = 0
    #: Application payload bytes delivered and verified (both ways).
    app_bytes: int = 0
    #: Simulated seconds of the measured phase.
    sim_s: float = 0.0
    #: Simulated time-to-first-byte samples, seconds.
    ttfb: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Layer facts read from the world after the round.
    facts: Dict[str, float] = field(default_factory=dict)


class Phase:
    """One round's clock, event digest and optional tracer and host-speed
    samples."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 speed: bool = False) -> None:
        self.tracer = tracer
        #: Samples before set-up, between the phases and after the
        #: measured phase, each outside the timed intervals.
        self.speed = HostSpeed() if speed else None
        self.recorder = EventOrderRecorder()
        self.t0 = time.perf_counter()
        self.t1 = self.t1m = self.t2 = 0.0

    def watch(self, sim) -> None:
        """Hash the round's (time, seq) event order from here on."""
        sim.attach_event_hook(self.app(self.recorder))

    def app(self, fn: Callable) -> Callable:
        """The benchmark's own callback, booked to the harness."""
        if self.tracer is None:
            return fn
        return self.tracer.wrap(HARNESS, fn)

    def setup_done(self) -> None:
        self.t1 = time.perf_counter()
        if self.speed is not None:
            self.speed.mark()
        self.t1m = time.perf_counter()
        if self.tracer is not None:
            self.tracer.start()

    def measure_done(self) -> None:
        if self.tracer is not None:
            self.tracer.stop()
        self.t2 = time.perf_counter()
        if self.speed is not None:
            self.speed.mark()

    @property
    def setup_s(self) -> float:
        return self.t1 - self.t0

    @property
    def measure_s(self) -> float:
        """Wall seconds of the measured phase."""
        return self.t2 - self.t1m

    def slowdown(self, phase: int) -> float:
        """Host slowdown over set-up (0) or the measured phase (1)."""
        return self.speed.slowdown(phase) if self.speed is not None else 1.0

    def digest(self) -> str:
        return self.recorder.hexdigest()


def _identity(inputs, name: str):
    ca = CertificateAuthority("Bench Root", seed=inputs.randbytes(16))
    identity = ca.issue_identity(name, seed=inputs.randbytes(16))
    trust = TrustStore()
    trust.add_authority(ca)
    return identity, trust


def _link_drops(links) -> int:
    return sum(
        link.stats["dropped_loss"] + link.stats["dropped_queue"]
        + link.stats["dropped_down"]
        for link in links
    )


# ----------------------------------------------------------------------
# bulk: one two-path session, two large transfers
# ----------------------------------------------------------------------

BULK_BYTES = 2 << 20
BULK_RATE_BPS = 30e6
#: Bernoulli loss on the v6 path's middle link (both directions), from
#: the start of the data phase: a lost SYN would hold the join back by a
#: whole initial RTO, past the set-up's fixed simulated deadline.
BULK_V6_LOSS = 0.002
#: TTFB sample unit: the first byte of every chunk of this size, timed
#: from the start of the transfers.  Two transfers have no tail of
#: their own; per-chunk times do (their p50 is the time to half of the
#: data).
BULK_CHUNK = 4096


def bulk_round(inputs, phase: Phase) -> Round:
    out = Round()
    topo = dual_path_network(
        rate_bps=BULK_RATE_BPS, v4_delay=0.010, v6_delay=0.025,
        seed=inputs.randrange(1 << 20),
    )
    sim = topo.sim
    phase.watch(sim)
    identity, trust = _identity(inputs, "bulk.example")
    sessions: List[TcplsSession] = []
    # Aggregation mode: each stream's records spread over both paths,
    # so a loss on v6 shifts load to v4 instead of stalling one stream.
    TcplsServer(
        TcplsContext(identity=identity, seed=inputs.randrange(1 << 30),
                     multipath_mode="aggregate"),
        TcpStack(topo.server, seed=inputs.randrange(1 << 30)),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="bulk.example",
                     seed=inputs.randrange(1 << 30),
                     multipath_mode="aggregate"),
        TcpStack(topo.client, seed=inputs.randrange(1 << 30)),
    )
    first = int(BULK_BYTES * inputs.uniform(0.4, 0.6))
    contents = [inputs.randbytes(first), inputs.randbytes(BULK_BYTES - first)]

    started = time.perf_counter()
    client.connect(topo.server_v4)
    client.handshake()
    sim.run(until=1.0)
    v6 = client.connect(topo.server_v6, src=topo.client_v6)
    client.handshake(conn_id=v6)
    sim.run(until=2.0)
    out.establish_s = time.perf_counter() - started
    if not (sessions and len(client._active_conns()) == 2
            and len(sessions[0]._active_conns()) == 2):
        out.errors.append("bulk: two-path session did not establish")
        return out
    out.sessions = 1
    server = sessions[0]
    streams = [server.stream_new(), server.stream_new()]
    server.streams_attach()
    expected = {
        sid: (content, hashlib.sha256(content).hexdigest())
        for sid, content in zip(streams, contents)
    }
    got = {sid: 0 for sid in streams}
    hashers = {sid: hashlib.sha256() for sid in streams}
    next_chunk = {sid: 0 for sid in streams}
    finished: List[float] = []

    def on_data(sid: int, data: bytes) -> None:
        hashers[sid].update(data)
        got[sid] += len(data)
        waited = sim.now - t_start
        while next_chunk[sid] < got[sid]:
            out.ttfb.append(waited)
            next_chunk[sid] += BULK_CHUNK
        if got[sid] == len(expected[sid][0]):
            finished.append(sim.now)

    client.on_stream_data = phase.app(on_data)

    phase.setup_done()
    t_start = sim.now
    topo.v6_links[1].loss_rate = BULK_V6_LOSS
    for sid in streams:
        server.send(sid, expected[sid][0])
    sim.run()
    phase.measure_done()

    out.attempted = len(streams)
    for sid in streams:
        content, digest = expected[sid]
        if got[sid] != len(content) or hashers[sid].hexdigest() != digest:
            out.failed += 1
            out.errors.append(
                f"bulk: stream {sid} delivered {got[sid]}/{len(content)} B "
                "or its content hash differs"
            )
        else:
            out.requests += 1
            out.app_bytes += len(content)
    out.sim_s = (max(finished) if finished else sim.now) - t_start
    out.facts["netsim.link.drops"] = _link_drops(topo.v4_links + topo.v6_links)
    return out


# ----------------------------------------------------------------------
# churn: the repro.scale farm, open-loop arrivals, heterogeneous clients
# ----------------------------------------------------------------------

CHURN_SESSIONS = 20
#: Wave-B (pool reuse) arrivals per wave-A session: four in five users
#: are fresh, so handshakes dominate.  The pool sends reuse to its
#: best-scored session, which can take all of wave B; a session holds
#: at most ``TcplsContext.max_streams`` (64) streams, closed ones
#: included, so wave B (5) stays below that.
CHURN_REUSE = 0.25
#: Client hosts, each with its own link profile; the farm dials them
#: round-robin, two wave-A sessions per host.
CHURN_CLIENT_HOSTS = 10
#: One-way delay and rate ranges the per-client-host profiles cover.
CHURN_DELAY = (0.001, 0.040)
CHURN_RATE_BPS = (5e6, 200e6)
#: Small messages keep every record on the scalar path: churn measures
#: session set-up, not bulk AEAD.
CHURN_REQUEST, CHURN_RESPONSE = 100, 200


def _stratified(inputs, count: int, low: float, high: float) -> List[float]:
    """``count`` log-spaced values over [low, high], one seeded draw from
    the middle half of each stratum, in seeded order: every seed covers
    the whole range, so the simulated tail and median come from the
    range, not from one lucky draw."""
    values = [
        low * (high / low) ** ((i + 0.25 + 0.5 * inputs.random()) / count)
        for i in range(count)
    ]
    inputs.shuffle(values)
    return values


def churn_round(inputs, phase: Phase) -> Round:
    out = Round()
    config = ScaleConfig(
        sessions=CHURN_SESSIONS,
        reuse_fraction=CHURN_REUSE,
        listeners=2,
        client_hosts=CHURN_CLIENT_HOSTS,
        arrival_span=0.5,
        hold_time=0.25,
        request_bytes=CHURN_REQUEST,
        response_bytes=CHURN_RESPONSE,
        seed=inputs.randrange(1 << 30),
        pool=PoolConfig(max_streams_per_session=1),
    )
    delays = _stratified(inputs, CHURN_CLIENT_HOSTS, *CHURN_DELAY)
    rates = _stratified(inputs, CHURN_CLIENT_HOSTS, *CHURN_RATE_BPS)
    links = []

    def on_world(world) -> None:
        phase.watch(world.sim)
        # No session tickets: every dial is a full handshake, so churn
        # carries the X25519 and Ed25519 cost of fresh users.
        world.client_ctx.ticket_store = None
        for link, delay, rate in zip(world.links, delays, rates):
            link.delay = delay
            link.rate_bps = rate
        links.extend(world.links)
        phase.setup_done()

    result = run_scale(config, on_world=on_world)
    phase.measure_done()

    expected = config.sessions + int(config.sessions * config.reuse_fraction)
    pool = result.pool_stats
    out.attempted = expected
    out.requests = result.requests_completed
    out.failed = expected - result.requests_completed
    out.sessions = pool["dials"] - pool["failed"]
    out.establish_s = phase.measure_s
    out.establish_phase = 1
    out.app_bytes = result.requests_completed * (
        config.request_bytes + config.response_bytes
    )
    out.sim_s = result.sim_time
    out.ttfb = list(result.ttfb)
    if result.requests_started != expected or result.requests_failed:
        out.errors.append(
            f"churn: {result.requests_completed}/{expected} requests "
            f"completed, {result.requests_failed} failed"
        )
    if pool["open"] != 0:
        out.errors.append(f"churn: pool ends with open={pool['open']}")
    if result.live_events != 0:
        out.errors.append(f"churn: {result.live_events} live events remain")
    out.facts.update({
        "netsim.link.drops": _link_drops(links),
        "scale.pool.dials": pool["dials"],
        "scale.pool.reused": pool["reused"],
        "scale.pool.dial_failures": pool["failed"],
    })
    return out


# ----------------------------------------------------------------------
# rpc: closed-loop request/response on established sessions
# ----------------------------------------------------------------------

RPC_SESSIONS = 3
RPC_STREAMS = 3
RPC_EXCHANGES = 10  # per stream and round
#: Message sizes are log-uniform over this range, across the ~700 B
#: scalar/numpy ChaCha20 crossover; each stream's requests (and its
#: responses) take one size from every stratum, in seeded order, so
#: every seed offers the same size mix.
RPC_SIZES = (32, 4096)
#: Request header: request length, response length.
_REQ = struct.Struct(">II")


class _RpcLoop:
    """One stream's closed loop: the next request goes out only after
    the previous response has fully arrived."""

    def __init__(self, session: TcplsSession, sid: int, plan, out: Round,
                 sim) -> None:
        self.session = session
        self.sid = sid
        self.plan = plan
        self.out = out
        self.sim = sim
        self.index = 0
        self.got = 0
        self.sent_at = 0.0

    def send_next(self) -> None:
        req_len, resp_len = self.plan[self.index]
        self.got = 0
        self.sent_at = self.sim.now
        header = _REQ.pack(req_len, resp_len)
        self.session.send(self.sid, header + b"q" * (req_len - len(header)))

    def on_data(self, data: bytes) -> None:
        req_len, resp_len = self.plan[self.index]
        out = self.out
        if self.got == 0:
            out.ttfb.append(self.sim.now - self.sent_at)
        self.got += len(data)
        if data.count(req_len & 0xFF) != len(data) or self.got > resp_len:
            out.errors.append(f"rpc: stream {self.sid} response differs")
            return
        if self.got < resp_len:
            return
        out.requests += 1
        out.app_bytes += req_len + resp_len
        self.index += 1
        if self.index < len(self.plan):
            self.send_next()


def _serve_rpc(session: TcplsSession, wrap: Callable) -> None:
    """Answer each complete request with ``resp_len`` bytes of its tag."""
    pending: Dict[int, bytearray] = {}

    def on_data(sid: int, data: bytes) -> None:
        buf = pending.setdefault(sid, bytearray())
        buf.extend(data)
        if len(buf) >= _REQ.size:
            req_len, resp_len = _REQ.unpack_from(buf)
            if len(buf) >= req_len:
                del pending[sid]
                session.send(sid, bytes([req_len & 0xFF]) * resp_len)

    session.on_stream_data = wrap(on_data)


def rpc_round(inputs, phase: Phase) -> Round:
    out = Round()
    net, client_host, server_host, link = simple_duplex_network(
        rate_bps=100e6, delay=0.005, seed=inputs.randrange(1 << 20),
    )
    sim = net.sim
    phase.watch(sim)
    identity, trust = _identity(inputs, "rpc.example")
    server_sessions: List[TcplsSession] = []
    TcplsServer(
        TcplsContext(identity=identity, seed=inputs.randrange(1 << 30)),
        TcpStack(server_host, seed=inputs.randrange(1 << 30)),
        on_session=server_sessions.append,
    )
    client_ctx = TcplsContext(trust_store=trust, server_name="rpc.example",
                              seed=inputs.randrange(1 << 30))
    client_stack = TcpStack(client_host, seed=inputs.randrange(1 << 30))
    plans = []
    for _ in range(RPC_SESSIONS * RPC_STREAMS):
        requests = _stratified(inputs, RPC_EXCHANGES, *RPC_SIZES)
        responses = _stratified(inputs, RPC_EXCHANGES, *RPC_SIZES)
        plans.append([(int(q), int(r)) for q, r in zip(requests, responses)])

    started = time.perf_counter()
    clients = []
    for _ in range(RPC_SESSIONS):
        client = TcplsSession(client_ctx, client_stack)
        client.connect("10.0.0.2")
        client.handshake()
        clients.append(client)
    sim.run(until=1.0)
    out.establish_s = time.perf_counter() - started
    out.sessions = sum(client.handshake_complete for client in clients)
    if out.sessions != RPC_SESSIONS or len(server_sessions) != RPC_SESSIONS:
        out.errors.append("rpc: sessions did not establish")
        return out
    for session in server_sessions:
        _serve_rpc(session, phase.app)

    loops: List[_RpcLoop] = []
    for client in clients:
        table = {}
        for _ in range(RPC_STREAMS):
            sid = client.stream_new()
            table[sid] = _RpcLoop(client, sid, plans[len(loops)], out, sim)
            loops.append(table[sid])
        client.streams_attach()
        client.on_stream_data = phase.app(
            lambda sid, data, table=table: table[sid].on_data(data)
        )

    phase.setup_done()
    t_start = sim.now
    for loop in loops:
        loop.send_next()
    sim.run()
    phase.measure_done()

    out.attempted = RPC_SESSIONS * RPC_STREAMS * RPC_EXCHANGES
    out.failed = out.attempted - out.requests
    out.sim_s = sim.now - t_start
    if out.failed:
        out.errors.append(
            f"rpc: {out.requests}/{out.attempted} exchanges completed"
        )
    out.facts["netsim.link.drops"] = _link_drops([link])
    return out


WORKLOADS = {"bulk": bulk_round, "churn": churn_round, "rpc": rpc_round}

#: Distinct inputs per run: round ``r`` uses inputs ``r % CYCLE``, so a
#: run repeats each input and checks the repeat's digest.  The simulated
#: metrics pool the first cycle, which holds at least 1010 TTFB samples
#: (a p99 with ten beyond it) and averages the seeded loss in ``bulk``.
CYCLE = {"bulk": 32, "churn": 41, "rpc": 12}
#: Inputs the traced run measures (untraced, then traced): about ten
#: seconds of traced rounds each.
TRACED_INPUTS = {"bulk": 12, "churn": 8, "rpc": 12}
