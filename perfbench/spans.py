"""Per-layer time attribution from outside the program.

:class:`Tracer` wraps the public entry points of each layer (and the
few internal hooks a counter needs) in timing wrappers, patching every
module namespace that bound the name, and wraps every callback the
simulator schedules in a span named after the layer that owns the
callback's code.  Each span keeps its name, start, end and parent; a
layer's self time is its spans' durations minus their child spans.

Rules that keep the split honest:

- a call into a span of the same name as the innermost open span opens
  no new span (``chacha20_encrypt`` calling ``chacha20_block`` stays one
  ``crypto.chacha`` span), so self times never double count;
- counters flagged ``nested`` (ChaCha20 blocks, TCP segments) still
  count inside such calls, every other counter counts top-level calls;
- nothing here schedules events or touches protocol state, so a traced
  run must reproduce the untraced run's event digest exactly (the
  runner checks this).

Install with :meth:`Tracer.install` before the traced worlds are built
(callbacks bound at construction time then bind the wrappers) and
remove with :meth:`Tracer.uninstall`; spans are recorded only between
:meth:`start` and :meth:`stop`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.core.contexts import ContextManager
from repro.core.session import TcplsServer, TcplsSession
from repro.netsim.engine import Event, Simulator
from repro.netsim.link import Link
from repro.scale.loadgen import ScaleWorld
from repro.scale.pool import SessionPool
from repro.tcp.connection import TcpConnection
from repro.tcp.stack import TcpStack
from repro.tls.record import CipherState
from repro.tls.session import TlsSession

# ``repro.crypto`` re-exports functions under its submodules' names
# (``x25519``), so the submodules are looked up by their full names.
(aead, chacha20, chacha20_fast, ed25519, hkdf, poly1305, poly1305_fast,
 x25519) = (importlib.import_module(f"repro.crypto.{name}") for name in (
    "aead", "chacha20", "chacha20_fast", "ed25519", "hkdf", "poly1305",
    "poly1305_fast", "x25519"))

_now = time.perf_counter_ns

HARNESS = "harness"
UNATTRIBUTED = "unattributed"

#: Owner module prefix -> span name for callbacks the engine dispatches
#: (first match wins, so narrower prefixes come first); callbacks of any
#: other module run as ``unattributed``.
_DISPATCH_SPANS = (
    ("repro.netsim.link", "netsim.link"),
    ("repro.netsim", "netsim.engine"),
    ("repro.tcp", "tcp"),
    ("repro.tls", "tls.handshake"),
    ("repro.core", "core.session"),
    ("repro.scale.pool", "scale.pool"),
    ("repro.scale", "scale.farm"),
)

#: Every span name, in report order; a span's layer is its first part.
SPANS = (
    "netsim.engine", "netsim.link", "tcp", "tls.handshake", "tls.record",
    "crypto.aead", "crypto.chacha", "crypto.poly1305", "crypto.x25519",
    "crypto.ed25519", "crypto.hkdf", "core.session", "core.contexts",
    "scale.pool", "scale.farm", HARNESS, UNATTRIBUTED,
)
LAYERS = ("netsim", "tcp", "tls", "crypto", "core", "scale")


def _tcp_payload(raw: bytes) -> int:
    return len(raw) - (raw[12] >> 4) * 4


# Counter hooks: ``count(counts, args, result, before)``.

def _count_segment_out(counts, args, result, before):
    counts["tcp.segments_out"] += 1
    counts["tcp.payload_bytes"] += _tcp_payload(args[2])


def _count_segments_out(counts, args, result, before):
    raws = args[2]
    counts["tcp.segments_out"] += len(raws)
    counts["tcp.payload_bytes"] += sum(_tcp_payload(raw) for raw in raws)


def _count_retransmits(counts, args, result, before):
    counts["tcp.retransmits"] += args[0].stats["retransmissions"] - before


def _retransmits_before(args):
    return args[0].stats["retransmissions"]


def _count_batch(counts, args, result, before):
    counts["netsim.link.batch_calls"] += 1
    counts["netsim.link.batched_pkts"] += len(args[2])


def _count_record(kind: str, overhead: int):
    def count(counts, args, result, before):
        counts[f"tls.record.{kind}_calls"] += 1
        counts["tls.record.plaintext_bytes"] += len(args[1]) - overhead
    return count


def _count_aead(kind: str, data_index: int, overhead: int):
    def count(counts, args, result, before):
        counts[f"crypto.aead.{kind}_calls"] += 1
        counts["crypto.aead.bytes"] += max(len(args[data_index]) - overhead, 0)
    return count


def _count_open_record(counts, args, result, before):
    counts["core.contexts.open_attempts"] += args[0].trial_decryptions - before
    if result is not None:
        counts["core.contexts.records_opened"] += 1


def _trials_before(args):
    return args[0].trial_decryptions


def _count(key: str, amount: Callable = None):
    def count(counts, args, result, before):
        counts[key] += 1 if amount is None else amount(args)
    return count


class _Entry:
    __slots__ = ("owner", "attr", "span", "count", "before", "nested")

    def __init__(self, owner, attr: str, span: str, count=None,
                 before=None, nested: bool = False) -> None:
        self.owner = owner
        self.attr = attr
        self.span = span
        self.count = count
        self.before = before
        self.nested = nested


def _entries() -> List[_Entry]:
    """The wrapped entry points, layer by layer."""
    E = _Entry
    return [
        # netsim: the event loop and the link data path.
        E(Simulator, "run", "netsim.engine"),
        E(Link, "transmit", "netsim.link", _count("netsim.link.transmit_calls")),
        E(Link, "transmit_batch", "netsim.link", _count_batch),
        # tcp: segments in from the network, the application send path,
        # segments out to the network, retransmissions.
        E(TcpStack, "_on_datagram", "tcp", _count("tcp.segments_in")),
        E(TcpStack, "connect", "tcp"),
        E(TcpStack, "send_raw", "tcp", _count_segment_out, nested=True),
        E(TcpStack, "send_raw_batch", "tcp", _count_segments_out, nested=True),
        E(TcpConnection, "send", "tcp"),
        E(TcpConnection, "close", "tcp"),
        E(TcpConnection, "_retransmit_earliest", "tcp", _count_retransmits,
          _retransmits_before, nested=True),
        E(TcpConnection, "_sack_recovery_send", "tcp", _count_retransmits,
          _retransmits_before, nested=True),
        # tls: the handshake state machine and the record protection layer.
        E(TlsSession, "start_handshake", "tls.handshake"),
        E(TlsSession, "receive", "tls.handshake"),
        E(TlsSession, "process_handshake_bytes", "tls.handshake"),
        E(TlsSession, "_client_handle_finished", "tls.handshake",
          _count("tls.handshake.count"), nested=True),
        E(CipherState, "seal", "tls.record", _count_record("seal", 0)),
        E(CipherState, "open", "tls.record", _count_record("open", 16)),
        # crypto primitives.
        E(aead.ChaCha20Poly1305, "encrypt", "crypto.aead", _count_aead("seal", 2, 0)),
        E(aead.ChaCha20Poly1305, "decrypt", "crypto.aead", _count_aead("open", 2, 16)),
        E(aead, "seal_with_keystream", "crypto.aead", _count_aead("seal", 1, 0)),
        E(aead, "open_with_keystream", "crypto.aead", _count_aead("open", 1, 16)),
        E(chacha20, "chacha20_block", "crypto.chacha",
          _count("crypto.chacha.scalar_blocks"), nested=True),
        E(chacha20, "chacha20_encrypt", "crypto.chacha"),
        E(chacha20_fast, "chacha20_keystream", "crypto.chacha",
          _count("crypto.chacha.batched_blocks", lambda a: a[3]), nested=True),
        E(chacha20_fast, "chacha20_keystream_multi", "crypto.chacha",
          _count("crypto.chacha.batched_blocks", lambda a: len(a[1]) * a[3]),
          nested=True),
        E(chacha20_fast, "xor_keystream", "crypto.chacha"),
        E(poly1305, "poly1305_mac", "crypto.poly1305", _count("crypto.poly1305.calls")),
        E(poly1305_fast, "poly1305_mac_fast", "crypto.poly1305",
          _count("crypto.poly1305.calls")),
        E(x25519, "x25519", "crypto.x25519", _count("crypto.x25519.calls")),
        E(x25519, "x25519_base", "crypto.x25519", _count("crypto.x25519.calls")),
        E(ed25519, "ed25519_sign", "crypto.ed25519", _count("crypto.ed25519.sign_calls")),
        E(ed25519, "ed25519_verify", "crypto.ed25519",
          _count("crypto.ed25519.verify_calls")),
        E(ed25519, "ed25519_public_key", "crypto.ed25519"),
        E(hkdf, "hkdf_extract", "crypto.hkdf", _count("crypto.hkdf.calls")),
        E(hkdf, "hkdf_expand", "crypto.hkdf", _count("crypto.hkdf.calls")),
        E(hkdf, "hkdf_expand_label", "crypto.hkdf", _count("crypto.hkdf.calls")),
        E(hkdf, "derive_secret", "crypto.hkdf", _count("crypto.hkdf.calls")),
        # core: the session API, the receive path and callbacks from TCP,
        # and per-(stream, connection) contexts with trial decryption.
        *(E(TcplsSession, name, "core.session") for name in (
            "connect", "handshake", "stream_new", "streams_attach",
            "stream_close", "close", "recv_data", "_on_tcp_data", "_pump",
            "_on_tcp_established", "_on_tcp_peer_close", "_on_tcp_failed",
        )),
        E(TcplsSession, "send", "core.session", _count("core.session.send_calls")),
        E(TcplsServer, "_on_tcp_connection", "core.session"),
        E(TcplsServer, "_route", "core.session"),
        E(TcplsServer, "reap_closed", "core.session"),
        E(ContextManager, "open_record", "core.contexts", _count_open_record,
          _trials_before),
        E(ContextManager, "install", "core.contexts"),
        # scale: the session pool and the churn farm driving it.
        E(SessionPool, "acquire", "scale.pool", _count("scale.pool.acquires")),
        *(E(SessionPool, name, "scale.pool") for name in (
            "release", "retire", "maintain", "drain", "_dial",
        )),
        *(E(ScaleWorld, name, "scale.farm") for name in (
            "start", "finalize", "_dial", "_on_acquired", "_complete",
            "_fail", "_depart",
        )),
    ]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.active = False
        self.counts: Dict[str, float] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        #: Summed duration of the root spans, one per measured phase.
        self.root_ns = 0
        #: Recorded spans ``[name, start_ns, end_ns, parent_index]``;
        #: the first ``span_cap`` are kept, the rest only aggregated.
        self.spans: List[list] = []
        self.spans_seen = 0
        self.span_cap = span_cap
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._owner_cache: Dict[object, str] = {}

    # -- spans ---------------------------------------------------------

    def push(self, name: str) -> None:
        now = _now()
        stack = self._stack
        index = -1
        self.spans_seen += 1
        if len(self.spans) < self.span_cap:
            index = len(self.spans)
            self.spans.append([name, now, 0, stack[-1][3] if stack else -1])
        stack.append([name, now, 0, index])

    def pop(self) -> int:
        name, start, child, index = self._stack.pop()
        now = _now()
        duration = now - start
        self.self_ns[name] += duration - child
        self.total_ns[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = now
        return duration

    def start(self) -> None:
        """Open the root harness span of one measured phase."""
        self.active = True
        self.push(HARNESS)

    def stop(self) -> None:
        self.root_ns += self.pop()
        if self._stack:
            raise RuntimeError(f"unclosed spans at phase end: {self._stack}")
        self.active = False

    def wrap(self, name: str, fn: Callable, count=None, before=None,
             nested: bool = False) -> Callable:
        """``fn`` timed as a ``name`` span (and counted) while active."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            opens = not stack or stack[-1][0] != name
            if not opens and not (nested and count is not None):
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            result = None
            if opens:
                tracer.push(name)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if opens:
                    tracer.pop()
                if count is not None:
                    count(tracer.counts, args, result, token)

        return traced

    # -- dispatched callbacks -----------------------------------------

    def owner_span(self, callback) -> str:
        """The span a scheduled callback runs under: its code's layer."""
        fn = callback
        while isinstance(fn, functools.partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        # A wrapped entry point shares the wrapper's code object with
        # every other; classify the function it wraps.
        fn = getattr(fn, "__wrapped__", fn)
        key = getattr(fn, "__code__", None) or type(fn)
        span = self._owner_cache.get(key)
        if span is None:
            module = getattr(fn, "__module__", None) or ""
            span = UNATTRIBUTED
            for prefix, candidate in _DISPATCH_SPANS:
                if module == prefix or module.startswith(prefix + "."):
                    span = candidate
                    break
            self._owner_cache[key] = span
        return span

    def _dispatch(self, callback):
        name = self.owner_span(callback)
        tracer = self
        counts = self.counts

        def dispatched(*args):
            if not tracer.active:
                return callback(*args)
            counts["netsim.events"] += 1
            tracer.push(name)
            try:
                return callback(*args)
            finally:
                tracer.pop()

        return dispatched

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, module, attr: str, value) -> None:
        """Rebind ``module.attr`` in every module that imported it."""
        original = getattr(module, attr)
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("repro"):
                continue
            for key, bound in list(vars(other).items()):
                if bound is original:
                    self._patch(other, key, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for entry in _entries():
            original = getattr(entry.owner, entry.attr)
            wrapped = self.wrap(entry.span, original, entry.count,
                                entry.before, entry.nested)
            if isinstance(entry.owner, type):
                self._patch(entry.owner, entry.attr, wrapped)
            else:
                self._patch_everywhere(entry.owner, entry.attr, wrapped)

        tracer = self
        counts = self.counts
        schedule = Simulator.schedule
        cancel = Event.cancel

        def traced_schedule(sim, delay, callback, *args):
            if tracer.active:
                counts["netsim.timer.scheduled"] += 1
            return schedule(sim, delay, tracer._dispatch(callback), *args)

        def traced_cancel(event):
            if tracer.active and not event.cancelled:
                counts["netsim.timer.cancelled"] += 1
            cancel(event)

        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Event, "cancel", traced_cancel)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def layer_seconds(self, layer: str) -> float:
        return sum(
            ns for name, ns in self.self_ns.items()
            if name.split(".", 1)[0] == layer
        ) / 1e9

    def write(self, path: str) -> None:
        """Dump the recorded spans (name table plus index rows)."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as handle:
            json.dump({
                "names": names,
                "columns": ["name", "start_ns", "end_ns", "parent"],
                "spans_seen": self.spans_seen,
                "spans": [
                    [index[name], start, end, parent]
                    for name, start, end, parent in self.spans
                ],
            }, handle, separators=(",", ":"))

