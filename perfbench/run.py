"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk|churn|rpc --seed N \\
        --seconds S --trace 0|1

A run repeats rounds of the workload (each one a fresh, seeded world:
set-up, then the measured phase) for ``--seconds`` of wall time, and at
least one full input cycle.  Round ``r`` uses input ``r % CYCLE``; a
warm-up round of input 0 comes first, and every repeat of an input must
reproduce its event digest exactly.

``--trace 0`` prints the end-to-end metrics: wall-clock figures are
medians of the per-round values at nominal host speed (``hostspeed.py``),
simulated outcomes pool the first cycle.
``--trace 1`` runs the first ``TRACED_INPUTS`` inputs untraced and then
again under the span tracer (``spans.py``), checks that both produce the
same digests and delivered bytes, and prints the per-layer split; the
spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import os

# The simulator is single-threaded; keep numpy's BLAS pools from
# competing with it for the host's cores.  Must precede any numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Wall seconds per traced round by which the phase clock may differ
#: from the summed self times (the calls that open and close the root
#: span lie outside it).
ROOT_GAP_S = 1e-4

#: The declared metrics: name -> unit, from the benchmark's own spec.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _percentile(samples, q: float):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Runner:
    """Runs rounds of one workload and keeps their results."""

    def __init__(self, name: str, seed: int) -> None:
        import workloads

        self.name = name
        self.seed = seed
        self.round_fn = workloads.WORKLOADS[name]
        self.cycle = workloads.CYCLE[name]
        self.traced_inputs = workloads.TRACED_INPUTS[name]
        self.phase_cls = workloads.Phase
        self.digests = {}
        self.errors = []
        #: Sample the host's speed in every round (end-to-end runs; the
        #: traced run compares raw wall times of two passes instead).
        self.sample_speed = False

    def inputs(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def run_round(self, index: int, tracer=None):
        from repro.analysis.sanitizers import reset_process_globals

        gc.collect()
        reset_process_globals()
        phase = self.phase_cls(tracer, self.sample_speed)
        result = self.round_fn(self.inputs(index), phase)
        result.setup_s = phase.setup_s
        result.measure_s = phase.measure_s
        result.slowdowns = (phase.slowdown(0), phase.slowdown(1))
        result.digest = phase.digest()
        self.errors.extend(result.errors)
        reference = self.digests.setdefault(index, result.digest)
        if result.digest != reference:
            self.errors.append(
                f"input {index}: event digest {result.digest[:16]} differs "
                f"from the first run's {reference[:16]}"
            )
        return result

    def run_inputs(self, count: int, tracer=None):
        return [self.run_round(i, tracer) for i in range(count)]

    def run_for(self, seconds: float):
        """Rounds for ``seconds`` of wall time and at least one cycle."""
        deadline = time.perf_counter() + seconds
        rounds = []
        while len(rounds) < self.cycle or time.perf_counter() < deadline:
            rounds.append(self.run_round(len(rounds) % self.cycle))
        return rounds

    def run_digest(self) -> str:
        """One digest over the inputs every run mode runs."""
        combined = hashlib.sha256()
        for index in range(self.traced_inputs):
            combined.update(self.digests[index].encode("ascii"))
        return combined.hexdigest()


def _sim_metrics(cycle_rounds, errors):
    app_bytes = sum(r.app_bytes for r in cycle_rounds)
    sim_s = sum(r.sim_s for r in cycle_rounds)
    samples = [t for r in cycle_rounds for t in r.ttfb]
    metrics = {"sim_goodput_mbps": app_bytes * 8 / sim_s / 1e6}
    counts = {"samples": len(samples)}
    for q, key in ((0.50, "sim_ttfb_p50_ms"), (0.99, "sim_ttfb_p99_ms")):
        value, beyond = _percentile(samples, q)
        counts[f"beyond_{key}"] = beyond
        if beyond < MIN_BEYOND:
            errors.append(
                f"{key}: only {beyond} of {len(samples)} samples lie beyond it"
            )
        metrics[key] = value * 1000.0
    return metrics, counts


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def e2e_metrics(rounds, cycle: int, errors):
    """End-to-end metrics: wall-clock figures are medians over rounds of
    each round's value at nominal host speed (``hostspeed.py``): a
    phase's wall time is divided by the slowdown sampled around it.
    Rounds that stopped before their measured phase (their errors fail
    the run) have no wall times to take."""
    timed = [r for r in rounds if r.measure_s > 0]
    per_round = {
        "setup_s": [r.setup_s / r.slowdowns[0] for r in timed],
        "app_bytes_per_s": [r.app_bytes * r.slowdowns[1] / r.measure_s
                            for r in timed],
        "sessions_per_s": [
            r.sessions * r.slowdowns[r.establish_phase] / r.establish_s
            for r in timed],
        "requests_per_s": [r.requests * r.slowdowns[1] / r.measure_s
                           for r in timed],
    }
    metrics = {k: _median(v) for k, v in per_round.items()}
    # The program's peak: the host-speed kernel's buffer is resident
    # from import to exit, so it adds a constant to the process peak.
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        - hostspeed.BUFFER_RESIDENT
    ) / 2**20
    sim, counts = _sim_metrics(rounds[:cycle], errors)
    metrics.update(sim)
    raw = {
        "setup_s": _median([r.setup_s for r in timed]),
        "requests_per_s": _median([r.requests / r.measure_s for r in timed]),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_slowdown": _median([r.slowdowns[1] for r in timed]),
    }
    return {k: {"value": metrics[k], "unit": E2E[k]} for k in E2E}, counts, raw


def layer_metrics(tracer, plain, traced, errors):
    """The per-layer split of the traced pass.

    Counts and self times are those of the traced pass; rates divide
    by the untraced pass's wall time, which tracing does not inflate.
    """
    from spans import HARNESS, LAYERS, SPANS, UNATTRIBUTED

    c = tracer.counts
    wall = sum(r.measure_s for r in traced)
    plain_wall = sum(r.measure_s for r in plain)
    facts = {}
    for r in traced:
        for key, value in r.facts.items():
            facts[key] = facts.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    s = tracer.self_seconds
    unattributed = s(UNATTRIBUTED)
    record_calls = c["tls.record.seal_calls"] + c["tls.record.open_calls"]
    chacha_blocks = (c["crypto.chacha.scalar_blocks"]
                     + c["crypto.chacha.batched_blocks"])
    m = {
        "netsim.events": c["netsim.events"],
        "netsim.events_per_s": ratio(c["netsim.events"], plain_wall),
        "netsim.engine.self_s": s("netsim.engine"),
        "netsim.link.transmit_calls": c["netsim.link.transmit_calls"],
        "netsim.link.batch_calls": c["netsim.link.batch_calls"],
        "netsim.link.pkts_per_batch": ratio(c["netsim.link.batched_pkts"],
                                            c["netsim.link.batch_calls"]),
        "netsim.link.drops": facts.get("netsim.link.drops", 0),
        "netsim.link.self_s": s("netsim.link"),
        "netsim.timer.scheduled": c["netsim.timer.scheduled"],
        "netsim.timer.cancelled": c["netsim.timer.cancelled"],
        "tcp.segments_out": c["tcp.segments_out"],
        "tcp.segments_in": c["tcp.segments_in"],
        "tcp.payload_bytes_per_segment": ratio(c["tcp.payload_bytes"],
                                               c["tcp.segments_out"]),
        "tcp.retransmits": c["tcp.retransmits"],
        "crypto.aead.seal_calls": c["crypto.aead.seal_calls"],
        "crypto.aead.open_calls": c["crypto.aead.open_calls"],
        "crypto.aead.bytes": c["crypto.aead.bytes"],
        "crypto.aead.self_s": s("crypto.aead"),
        "crypto.aead.ns_per_byte": ratio(tracer.total_ns["crypto.aead"],
                                         c["crypto.aead.bytes"]),
        "crypto.chacha.scalar_blocks": c["crypto.chacha.scalar_blocks"],
        "crypto.chacha.batched_blocks": c["crypto.chacha.batched_blocks"],
        "crypto.chacha.batched_share": ratio(c["crypto.chacha.batched_blocks"],
                                             chacha_blocks),
        "crypto.chacha.self_s": s("crypto.chacha"),
        "crypto.poly1305.calls": c["crypto.poly1305.calls"],
        "crypto.poly1305.self_s": s("crypto.poly1305"),
        "crypto.x25519.calls": c["crypto.x25519.calls"],
        "crypto.x25519.self_s": s("crypto.x25519"),
        "crypto.ed25519.sign_calls": c["crypto.ed25519.sign_calls"],
        "crypto.ed25519.verify_calls": c["crypto.ed25519.verify_calls"],
        "crypto.ed25519.self_s": s("crypto.ed25519"),
        "crypto.hkdf.calls": c["crypto.hkdf.calls"],
        "crypto.hkdf.self_s": s("crypto.hkdf"),
        "tls.handshake.count": c["tls.handshake.count"],
        "tls.handshake.self_s": s("tls.handshake"),
        "tls.record.seal_calls": c["tls.record.seal_calls"],
        "tls.record.open_calls": c["tls.record.open_calls"],
        "tls.record.mean_plaintext_bytes": ratio(
            c["tls.record.plaintext_bytes"], record_calls),
        "tls.record.self_s": s("tls.record"),
        "core.session.send_calls": c["core.session.send_calls"],
        "core.session.self_s": s("core.session"),
        "core.contexts.open_attempts": c["core.contexts.open_attempts"],
        "core.contexts.records_opened": c["core.contexts.records_opened"],
        "core.contexts.hit_ratio": ratio(c["core.contexts.records_opened"],
                                         c["core.contexts.open_attempts"]),
        "core.contexts.self_s": s("core.contexts"),
        "scale.pool.acquires": c["scale.pool.acquires"],
        "scale.pool.dials": facts.get("scale.pool.dials", 0),
        "scale.pool.reuse_ratio": ratio(facts.get("scale.pool.reused", 0),
                                        c["scale.pool.acquires"]),
        "scale.pool.dial_failures": facts.get("scale.pool.dial_failures", 0),
        "scale.pool.self_s": s("scale.pool"),
        "scale.farm.self_s": s("scale.farm"),
        "harness.self_s": s(HARNESS),
        "trace.unattributed_s": unattributed,
        "trace.outside_spans_s": wall - tracer.root_ns / 1e9,
        "trace.overhead_ratio": ratio(wall, plain_wall),
        "trace.wall_s": wall,
        "fail_ratio": ratio(sum(r.failed for r in plain),
                            sum(r.attempted for r in plain)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_seconds(layer)

    # The split must account for the traced wall time exactly once: the
    # self times, measured on the span clock, must add up to the phase
    # clock's wall time, short of only the few calls that open and close
    # each round's root span ...
    for name in tracer.self_ns:
        if name not in SPANS:
            errors.append(f"trace: span {name!r} belongs to no layer")
    accounted = (sum(m[f"{layer}.self_s"] for layer in LAYERS)
                 + m["harness.self_s"] + unattributed)
    if abs(accounted - wall) > ROOT_GAP_S * len(traced):
        errors.append(f"trace: layers sum to {accounted:.6f}s, wall {wall:.6f}s")
    # ... and no time may be counted twice: every recorded span lies
    # inside its parent and after its previous sibling.
    errors.extend(_nesting_errors(tracer.spans)[:5])
    return m


def _nesting_errors(spans):
    errors = []
    last_child_end = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            errors.append(f"trace: span {index} ({name}) ends before it starts")
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            errors.append(f"trace: span {index} ({name}) outside its parent")
        if start < last_child_end.get(parent, p_start):
            errors.append(f"trace: span {index} ({name}) overlaps a sibling")
        last_child_end[parent] = end
    return errors


def metadata(seed: int) -> dict:
    from repro import fastpath
    import numpy

    return {
        "seed": seed,
        "fastpath": fastpath.all_enabled(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "churn", "rpc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    runner = Runner(args.workload, args.seed)
    print("# meta " + json.dumps(metadata(args.seed), sort_keys=True))
    runner.run_round(0)  # warm-up; its digest is the reference for input 0

    if args.trace:
        from spans import Tracer

        plain = runner.run_inputs(runner.traced_inputs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_inputs(runner.traced_inputs, tracer)
        finally:
            tracer.uninstall()
        for index, (a, b) in enumerate(zip(plain, traced)):
            if (a.digest, a.app_bytes) != (b.digest, b.app_bytes):
                runner.errors.append(
                    f"trace: input {index} digest/bytes changed under tracing"
                )
        values = layer_metrics(tracer, plain, traced, runner.errors)
        if set(values) != set(PER_LAYER):
            runner.errors.append(
                "per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ set(PER_LAYER))}"
            )
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]}
                   for k in PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(spans_path))
        print(f"# spans {spans_path.relative_to(ROOT)} "
              f"recorded={len(tracer.spans)} seen={tracer.spans_seen}")
        rounds = plain + traced
    else:
        runner.sample_speed = True
        rounds = runner.run_for(args.seconds)
        metrics, counts, raw = e2e_metrics(rounds, runner.cycle, runner.errors)
        print("# raw " + json.dumps(raw, sort_keys=True))
        print("# sim_ttfb " + json.dumps(counts, sort_keys=True))

    print(f"# digest {args.workload} seed={args.seed} {runner.run_digest()} "
          f"inputs={runner.traced_inputs} rounds={len(rounds)}")
    for error in runner.errors[:20]:
        print(f"# error {error}")
    correct = not runner.errors
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
