"""Central kill-switches for the datapath fast paths.

Every performance shortcut in the datapath (batched crypto, cached wire
serialization, O(1) TCP accounting, lazy middlebox parsing) is guarded
by a named flag here.  The rules:

- a fast path must be **bit-identical** to the scalar/reference path it
  replaces — flags exist so the reference behaviour stays reachable for
  cross-check tests and for the before/after legs of the perf
  benchmarks, not because the paths may diverge;
- the scalar path is the specification.  When a flag is off, the code
  executes the same logic the pre-fast-path tree ran, so
  ``scalar_baseline()`` reproduces the original datapath for honest
  baseline measurements;
- flags are read on the hot path, so lookups go through module-level
  helpers kept deliberately tiny.

Set ``REPRO_FASTPATH=0`` in the environment to start with every fast
path disabled (the benchmark baseline leg does this per-process-free
via ``scalar_baseline()`` instead).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator

#: Every known fast-path feature, and what it gates.
FEATURES = (
    # Batched Poly1305 + numpy ChaCha20 keystream above one measured
    # crossover in the AEAD path (crypto/poly1305_fast.py,
    # crypto/aead.py, tls/record.py readahead window).
    "crypto.batch",
    # Trial-decryption context affinity: try the stream context that
    # authenticated the previous record first (core/contexts.py).
    "tls.affinity",
    # Cached TcpSegment wire bytes, single-buffer serialization and the
    # folded-big-int RFC 1071 checksum (tcp/segment.py).
    "wire.cache",
    # O(1) bytes-in-flight accounting and ordered-scoreboard ACK
    # processing in TcpConnection (tcp/connection.py).
    "tcp.ack",
    # Lazy fixed-header peeks in middleboxes plus host address / route
    # lookup caches (netsim/middlebox.py, netsim/node.py).
    "netsim.fast",
    # Hierarchical timer wheel replacing the engine's global event heap
    # (netsim/timerwheel.py, netsim/engine.py): O(1) inserts and
    # bucket-local ordering for many-session timer churn.
    "netsim.wheel",
    # Vectorized link queue service: TCP send bursts travel as one batch
    # down Interface.send_batch -> Link.transmit_batch, where numpy
    # computes the chained service times for the whole burst
    # (netsim/link.py, netsim/node.py, tcp/connection.py).
    "netsim.vectorq",
)

#: The registered fastpath-vs-scalar cross-check test for every feature
#: (repo-relative paths).  The FP001 lint rule enforces that each entry
#: exists and actually references its flag, so no fast path can outlive
#: the test that proves it bit-identical to the scalar reference.
CROSSCHECKS: Dict[str, str] = {
    "crypto.batch": "tests/crypto/test_fastpath_crypto.py",
    "tls.affinity": "tests/core/test_contexts.py",
    "wire.cache": "tests/tcp/test_fastpath_wire.py",
    "tcp.ack": "tests/tcp/test_fastpath_wire.py",
    "netsim.fast": "tests/netsim/test_fastpath_netsim.py",
    "netsim.wheel": "tests/netsim/test_timerwheel.py",
    "netsim.vectorq": "tests/netsim/test_vectorq.py",
}

_DEFAULT = os.environ.get("REPRO_FASTPATH", "1") != "0"
_flags: Dict[str, bool] = {name: _DEFAULT for name in FEATURES}

#: The live flag mapping itself, for per-packet hot paths where even the
#: ``enabled()`` call shows up in profiles: ``fastpath.flags["wire.cache"]``
#: is one dict lookup instead of a function call.  Mutate only through
#: ``set_enabled``/``scalar_baseline``/``overridden``.
flags = _flags


def enabled(name: str) -> bool:
    """True when the named fast path is active."""
    return _flags[name]


def set_enabled(name: str, value: bool) -> None:
    if name not in _flags:
        raise KeyError(f"unknown fastpath feature {name!r}")
    _flags[name] = bool(value)


def all_enabled() -> Dict[str, bool]:
    """Snapshot of every flag (for BENCH_*.json provenance)."""
    return dict(_flags)


@contextmanager
def scalar_baseline() -> Iterator[None]:
    """Run the enclosed block on the pre-fast-path reference datapath.

    Disables every fast path, restoring previous values on exit.  Used
    by the perf benchmarks for the "before" leg and by the wire-fidelity
    tests to prove both datapaths emit identical packets.
    """
    saved = dict(_flags)
    try:
        for name in _flags:
            _flags[name] = False
        yield
    finally:
        _flags.update(saved)


@contextmanager
def overridden(name: str, value: bool) -> Iterator[None]:
    """Temporarily force one flag (test helper)."""
    saved = _flags[name]
    try:
        _flags[name] = bool(value)
        yield
    finally:
        _flags[name] = saved
