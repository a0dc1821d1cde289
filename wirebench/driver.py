"""The closed-loop driver: one process, bursts of frames, checked output.

A burst runs from wire bytes in to wire bytes out through the
``Runtime`` protocol only: ``Packet.from_bytes`` on each frame, one
``inject`` per packet, one ``main_loop_burst``, one ``collect``, and
``wire_bytes()`` on each output. That window is the timed part. Frame
generation, the reference checks and the echo server run between
bursts, outside it, so they cannot move the figures.

Untraced runs give the end-to-end metrics. A traced run alternates
untraced and traced blocks of bursts: the traced blocks give the
per-layer split, and the pps of the two kinds gives the tracing
overhead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import signal
import statistics
from collections import Counter
from multiprocessing import resource_tracker
from time import perf_counter, perf_counter_ns, process_time_ns
from typing import Dict, List, Optional, Tuple

from repro.packets.headers import Packet

import deploy
from natcheck import NatChecker
from spans import Tracer
from traffic import Traffic

#: Launches per run; set-up time is their median.
SETUPS = 9
#: Launch/stop cycles per run of a workload's hygiene deployment.
HYGIENE_CYCLES = 3
#: Bursts per block; a multiple of every churn round.
BLOCK = 100
#: Measured bursts after which peak memory is read. A fixed count, not
#: the end of the run: a run is time-bounded, and memory that grows
#: with traffic (a leak) would otherwise read as a faster run.
RSS_BURSTS = 2_000
#: First simulated timestamp.
START_US = 1_000_000
#: Self times must add up to the traced burst total within this share.
SELF_SUM_TOLERANCE = 0.02
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- the machine and the processes ---------------------------------------------

def fingerprint() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def host_cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    fields = [int(x) for x in (_read("/proc/stat") or "cpu 0").splitlines()[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:  # the process ended under us
        return None


def child_pids() -> List[int]:
    """Live children of this process, except multiprocessing's tracker."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        if stat is None:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) != me or fields[0] == "Z":
            continue
        if "resource_tracker" in (_read(f"/proc/{entry}/cmdline") or ""):
            continue
        found.append(int(entry))
    return found


def children_cpu_ns(pids: List[int]) -> int:
    total = 0
    for pid in pids:
        stat = _read(f"/proc/{pid}/stat")
        if stat is not None:
            fields = stat.rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total * 1_000_000_000 // _CLK_TCK


def children_peak_kb(pids: List[int]) -> int:
    total = 0
    for pid in pids:
        for line in (_read(f"/proc/{pid}/status") or "").splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def ring_segments() -> List[str]:
    """This process's shared-memory ring segments still in /dev/shm."""
    prefix = f"repro-ring-{os.getpid()}-"
    try:
        return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]
    except FileNotFoundError:
        return []


def pin() -> int:
    """Pin the driver, and so every worker it forks, to its first usable core.

    The host steals CPU from this machine's cores (2% to 28% of it while
    the reference runs were taken). With the driver and the workers on
    different cores, every burst waits on a wake-up on each core, and
    procs-imix read 6.7k to 17k pps across ten runs (IQR 53% of the
    median); on one core it reads as steadily as the inline workloads.
    The process path's per-packet costs (steer, encode, ring copy,
    re-parse) are the same either way; parallel speed-up is not what the
    benchmark measures.
    """
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def teardown(runtime) -> List[str]:
    """Stop a runtime; return what it left behind (each a failed op)."""
    runtime.stop()
    leaks = []
    if child_pids():
        leaks.append("worker_left_alive")
    if ring_segments():
        leaks.append("shm_segment_left")
    return leaks


def reap() -> None:
    """Stop every process a run started and wait for each to end.

    Workers that ``stop()`` left alive are already counted as failed
    operations; here they are killed. Creating a shm ring starts
    multiprocessing's resource tracker, a process meant to outlive its
    parent: closing its pipe makes it exit, and we wait for that.
    """
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    resource_tracker._resource_tracker._stop()


# -- one burst -----------------------------------------------------------------

def burst(runtime, ops, now: int) -> Tuple[List[Tuple[int, bytes]], int, int]:
    """Frames in, frames out; returns outputs, wall ns and CPU ns."""
    from_bytes = Packet.from_bytes
    inject = runtime.inject
    t0 = perf_counter_ns()
    c0 = process_time_ns()
    packets = [from_bytes(op.frame, op.port) for op in ops]
    for op, packet in zip(ops, packets):
        inject(op.port, packet, now)
    runtime.main_loop_burst(now, deploy.BURST)
    outputs = [(port, packet.wire_bytes()) for port, _ts, packet in runtime.collect()]
    return outputs, perf_counter_ns() - t0, process_time_ns() - c0


def burst_traced(runtime, ops, now: int, tracer: Tracer) -> Tuple[List[Tuple[int, bytes]], int, int]:
    """:func:`burst` with a span around each layer call.

    The burst's wall time is its root span; the self times the printed
    metrics carry must add up to it (:func:`_self_sum_error`).
    """
    from_bytes = Packet.from_bytes
    inject = runtime.inject
    begin, end = tracer.begin, tracer.end
    c0 = process_time_ns()
    root = begin("burst")
    span = begin("packets.parse")
    packets = [from_bytes(op.frame, op.port) for op in ops]
    end(span)
    span = begin("runtime.inject")
    for op, packet in zip(ops, packets):
        inject(op.port, packet, now)
    end(span)
    span = begin("runtime.turn")
    runtime.main_loop_burst(now, deploy.BURST)
    end(span)
    span = begin("runtime.collect")
    collected = runtime.collect()
    end(span)
    span = begin("packets.serialize")
    outputs = [(port, packet.wire_bytes()) for port, _ts, packet in collected]
    end(span)
    end(root)
    cpu = process_time_ns() - c0
    tracer.burst += 1
    _name, start, stop, _parent, _burst = tracer.spans[root]
    return outputs, stop - start, cpu


def instrument(runtime, tracer: Tracer) -> None:
    """Wrap the public layer entry points a deployment exposes."""
    engines = getattr(runtime, "engines", None)
    if engines is not None:  # a chain: every stage's turn, then its NF
        for engine in engines:
            tracer.wrap(engine, "main_loop_burst", "chain.stage")
            _instrument_nf(engine.nf, tracer)
    elif hasattr(runtime, "nf"):  # inline; a process runtime stays opaque
        _instrument_nf(runtime.nf, tracer)


def _instrument_nf(nf, tracer: Tracer) -> None:
    inner = getattr(nf, "inner", None)
    if inner is None:
        tracer.wrap(nf, "process_burst", "nf.bare")
        return
    tracer.wrap(nf, "process_burst", "nf.fastpath")
    tracer.wrap(inner, "process", "nat.slowpath")


# -- counters read through the protocol ----------------------------------------

def _nat(runtime):
    """The runtime whose NF is the NAT: a chain's NAT stage, or itself."""
    engines = getattr(runtime, "engines", None)
    if engines is not None:
        return engines[runtime.stage_names().index("nat")]
    return runtime


def _counters(runtime) -> Dict[str, object]:
    snap: Dict[str, object] = {
        "nat": _nat(runtime).op_counters(),
        "drops": runtime.drop_causes(),
        "chain": runtime.op_counters() if hasattr(runtime, "engines") else {},
        "transport": {},
        "steered": [0],
    }
    if hasattr(runtime, "transport_counters"):
        snap["transport"] = runtime.transport_counters()["total"]
    if hasattr(runtime, "steered"):
        snap["steered"] = list(runtime.steered)
    return snap


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- the run ---------------------------------------------------------------------

class Side:
    """What one kind of block (traced or not) measured.

    Besides totals, each block leaves one sample of its rates: the
    end-to-end figures are medians over blocks, so that a stall of the
    host during a few blocks does not move them.
    """

    def __init__(self) -> None:
        self.bursts = 0
        self.injected = 0
        self.delivered = 0
        self.payload_bytes = 0
        self.wall_ns = 0
        self.cpu_ns = 0
        self.burst_ns: List[int] = []
        #: Per block: (delivered, injected, wall ns, CPU ns including the workers').
        self.blocks: List[Tuple[int, int, int, int]] = []
        self._mark = (0, 0, 0, 0)

    def open_block(self) -> None:
        self._mark = (self.delivered, self.injected, self.wall_ns, self.cpu_ns)

    def close_block(self, worker_cpu_ns: int) -> None:
        delivered, injected, wall, cpu = self._mark
        self.blocks.append(
            (
                self.delivered - delivered,
                self.injected - injected,
                self.wall_ns - wall,
                self.cpu_ns - cpu + worker_cpu_ns,
            )
        )

    def ns_per_pkt(self) -> float:
        return self.wall_ns / self.injected

    def median_of(self, rate) -> float:
        return statistics.median(rate(*block) for block in self.blocks)


class GcWatch:
    """Collector pauses and gen-0 collections that start inside a burst."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pause_ns = 0
        self.gen0 = 0
        self._t0 = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter_ns() if self.tracer.inside else None
            if self._t0 is not None and info.get("generation") == 0:
                self.gen0 += 1
        elif self._t0 is not None:
            self.pause_ns += perf_counter_ns() - self._t0
            self._t0 = None


def _percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setups: int = SETUPS,
    block: int = BLOCK,
    warm_cycles: int = 3,
    rss_bursts: int = RSS_BURSTS,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """One run of one workload; returns the result and its ledger."""
    workload = deploy.WORKLOADS[name]
    machine = fingerprint()
    cores = os.sched_getaffinity(0)
    core = pin()
    leaks: Counter = Counter()
    setup_s = []
    runtime = None
    for i in range(setups):
        if runtime is not None:
            leaks.update(teardown(runtime))
        gc.collect()
        t0 = perf_counter()
        runtime = workload.launch()
        runtime.flow_count()  # answers once every worker is built
        setup_s.append(perf_counter() - t0)
    try:
        traffic = Traffic(seed, workload.flows, deploy.FORWARDS, workload.churn, workload.sizes)
        checker = NatChecker(deploy.CONFIG.external_ip)
        now = START_US

        def step(tracer=None, side=None):
            nonlocal now
            ops = traffic.next_burst()
            if tracer is None:
                outputs, wall, cpu = burst(runtime, ops, now)
            else:
                outputs, wall, cpu = burst_traced(runtime, ops, now, tracer)
            ok, payload = checker.ok, checker.payload_bytes
            traffic.echo(checker.check_burst(ops, outputs))
            now += deploy.TICK_US
            if side is not None:
                side.bursts += 1
                side.injected += len(ops)
                side.delivered += checker.ok - ok
                side.payload_bytes += checker.payload_bytes - payload
                side.wall_ns += wall
                side.cpu_ns += cpu
                side.burst_ns.append(wall)

        cycle = -(-workload.flows // deploy.FORWARDS)
        warm = -(-max(warm_cycles * cycle, 2 * block) // block) * block
        for _ in range(warm):
            step()

        sides = {False: Side(), True: Side()}
        tracer = Tracer() if trace else None
        watch = GcWatch(tracer) if trace else None
        flow_peak = _nat(runtime).flow_count()
        before = _counters(runtime)
        pids = child_pids()
        steal_before = host_cpu_ticks()
        if watch is not None:
            gc.callbacks.append(watch)
        started = perf_counter()
        traced = False
        blocks = 0
        peak_kb = None
        try:
            while True:
                if tracer is not None:
                    traced = blocks % 2 == 1
                    if traced:
                        instrument(runtime, tracer)
                side = sides[traced]
                side.open_block()
                workers_cpu = children_cpu_ns(pids)
                for _ in range(block):
                    step(tracer if traced else None, side)
                    if peak_kb is None and sides[False].bursts + sides[True].bursts == rss_bursts:
                        peak_kb = (
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            + children_peak_kb(pids)
                        )
                side.close_block(children_cpu_ns(pids) - workers_cpu)
                if traced:
                    tracer.unwrap_all()
                    flow_peak = max(flow_peak, _nat(runtime).flow_count())
                blocks += 1
                if (
                    perf_counter() - started >= seconds
                    and peak_kb is not None
                    and (tracer is None or blocks % 2 == 0)
                ):
                    break
        finally:
            if watch is not None:
                gc.callbacks.remove(watch)
        elapsed = perf_counter() - started
        after = _counters(runtime)
        steal, ticks = (a - b for a, b in zip(host_cpu_ticks(), steal_before))
    finally:
        leaks.update(teardown(runtime))
        os.sched_setaffinity(0, cores)
    hygiene = 0
    if workload.hygiene is not None:
        for _ in range(HYGIENE_CYCLES):
            spare = workload.hygiene()
            spare.flow_count()
            if not ring_segments():  # else the leak check could not fire
                spare.stop()
                raise RuntimeError(f"{name}: the hygiene deployment made no ring segments")
            leaks.update(teardown(spare))
            hygiene += 1

    plain = sides[False]
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "machine": machine,
        "core": core,
        "attempted": checker.attempted + setups + hygiene,
        "failed": checker.failed + sum(leaks.values()),
        "faults": dict(checker.faults),
        "leaks": dict(leaks),
        "hygiene": hygiene,
        "spurious": checker.spurious,
        "ports_reused": checker.ports_reused,
        "drop_causes": _delta(after["drops"], before["drops"]),
        "bursts": plain.bursts + sides[True].bursts,
        "elapsed_s": elapsed,
        # CPU time the hypervisor gave to others while we measured: the
        # share to read the figures' noise against.
        "host_steal": steal / ticks if ticks else 0.0,
    }
    correct = checker.spurious == 0
    if tracer is None:
        pps = plain.median_of(lambda delivered, _injected, wall, _cpu: delivered / wall * 1e9)
        payload_per_pkt = plain.payload_bytes / plain.delivered if plain.delivered else 0.0
        result["metrics"] = {
            "pps": (pps, "pkt/s"),
            "burst_latency_p50_us": (statistics.median(plain.burst_ns) / 1e3, "us"),
            "burst_latency_p90_us": (_percentile(sorted(plain.burst_ns), 90) / 1e3, "us"),
            # Payload per packet is fixed by the seed's mix, so goodput
            # is pps at the run's mean delivered payload.
            "goodput_mbps": (pps * payload_per_pkt * 8 / 1e6, "Mbit/s"),
            "cpu_us_per_pkt": (
                plain.median_of(lambda _delivered, injected, _wall, cpu: cpu / 1e3 / injected),
                "us",
            ),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    else:
        side = sides[True]
        own, inclusive, calls = tracer.totals()
        metrics = _layer_metrics(
            own, inclusive, calls, side, sides[False], before, after, flow_peak, watch
        )
        result["metrics"] = metrics
        result["self_sum_error"] = _self_sum_error(metrics, calls, side.injected)
        correct = correct and result["self_sum_error"] <= SELF_SUM_TOLERANCE
        if spans_path is not None:
            tracer.write(spans_path)
    result["correct"] = correct
    return result


#: The printed metrics that are self times per packet; with the slow
#: path's (printed per call) and, where the worker's turn is opaque, the
#: turn's, they must add up to the traced total.
SELF_METRICS = (
    "driver.self_ns_per_pkt",
    "packets.parse_ns_per_pkt",
    "packets.serialize_ns_per_pkt",
    "runtime.inject_ns_per_pkt",
    "runtime.collect_ns_per_pkt",
    "chain.self_ns_per_pkt",
    "dpdk.self_ns_per_pkt",
    "fastpath.self_ns_per_pkt",
    "nf.bare_self_ns_per_pkt",
)


def _self_sum_error(metrics, calls, pkts) -> float:
    """How far the printed self times fall from the traced total, as a share.

    A layer whose time no printed metric carries shows up here.
    """
    value = {name: metrics[name][0] for name in metrics}
    total = sum(value[name] for name in SELF_METRICS)
    total += value["nat.slowpath_ns_per_call"] * calls.get("nat.slowpath", 0) / pkts
    if not any(name.startswith("nf.") for name in calls):  # a process runtime's turn
        total += value["runtime.turn_ns_per_pkt"]
    traced = value["trace.total_ns_per_pkt"]
    return abs(total - traced) / traced


def _layer_metrics(own, inclusive, calls, side, plain, before, after, flow_peak, watch):
    pkts = side.injected
    nat = _delta(after["nat"], before["nat"])
    transport = _delta(after["transport"], before["transport"])
    chain = _delta(after["chain"], before["chain"])
    steered = [a - b for a, b in zip(after["steered"], before["steered"])]
    # Counters cover both kinds of block; per-packet figures use both.
    all_pkts = side.injected + plain.injected
    kpkts = all_pkts / 1000
    lookups = nat.get("fastpath_hits", 0) + nat.get("fastpath_misses", 0)
    slow_calls = nat.get("fastpath_misses", 0)
    is_chain = "chain.stage" in own
    # A process runtime's turn has no child spans: the workers are opaque.
    opaque = not any(name.startswith("nf.") for name in own)

    def per_pkt(ns):
        return ns / pkts

    def ratio(num, den):
        return num / den if den else 0.0

    mean_steer = sum(steered) / len(steered)
    return {
        "packets.parse_ns_per_pkt": (per_pkt(own.get("packets.parse", 0)), "ns"),
        "packets.serialize_ns_per_pkt": (per_pkt(own.get("packets.serialize", 0)), "ns"),
        "runtime.inject_ns_per_pkt": (per_pkt(inclusive.get("runtime.inject", 0)), "ns"),
        "runtime.turn_ns_per_pkt": (per_pkt(inclusive.get("runtime.turn", 0)), "ns"),
        "runtime.collect_ns_per_pkt": (per_pkt(inclusive.get("runtime.collect", 0)), "ns"),
        "dpdk.self_ns_per_pkt": (
            per_pkt(own.get("chain.stage" if is_chain else "runtime.turn", 0))
            if not opaque
            else 0.0,
            "ns",
        ),
        "dpdk.pool_high_water": (after["drops"].get("pool_high_water", 0), "count"),
        "fastpath.self_ns_per_pkt": (per_pkt(own.get("nf.fastpath", 0)), "ns"),
        "nf.bare_self_ns_per_pkt": (per_pkt(own.get("nf.bare", 0)), "ns"),
        "fastpath.hit_ratio": (ratio(nat.get("fastpath_hits", 0), lookups), "ratio"),
        "fastpath.compiled_hit_ratio": (ratio(nat.get("fastpath_compiled_hits", 0), lookups), "ratio"),
        "fastpath.learns_per_kpkt": (nat.get("fastpath_learns", 0) / kpkts, "1/kpkt"),
        "fastpath.invalidations_per_kpkt": (nat.get("fastpath_invalidations", 0) / kpkts, "1/kpkt"),
        "nat.slowpath_ns_per_call": (
            ratio(inclusive.get("nat.slowpath", 0), calls.get("nat.slowpath", 0)),
            "ns",
        ),
        "nat.slowpath_calls_per_kpkt": (slow_calls / kpkts, "1/kpkt"),
        "nat.expired_per_kpkt": (nat.get("expired", 0) / kpkts, "1/kpkt"),
        "nat.flow_count_peak": (flow_peak, "count"),
        "libvig.map_probes_per_call": (ratio(nat.get("map_probes", 0), slow_calls), "count"),
        "procrun.encode_ns_per_pkt": (transport.get("encode_ns", 0) / all_pkts, "ns"),
        "procrun.copy_ns_per_pkt": (transport.get("copy_ns", 0) / all_pkts, "ns"),
        "rss.steer_imbalance": (ratio(max(steered), mean_steer) if any(steered) else 1.0, "ratio"),
        "chain.self_ns_per_pkt": (per_pkt(own.get("runtime.turn", 0)) if is_chain else 0.0, "ns"),
        "chain.stage_nf_ns_per_pkt": (per_pkt(inclusive.get("chain.stage", 0)), "ns"),
        "chain.handoffs_per_pkt": (ratio(chain.get("handoffs", 0), all_pkts), "count"),
        "py.gc_pause_ns_per_pkt": (per_pkt(watch.pause_ns), "ns"),
        "py.gc_gen0_per_kpkt": (watch.gen0 / (pkts / 1000), "1/kpkt"),
        "driver.self_ns_per_pkt": (per_pkt(own.get("burst", 0)), "ns"),
        "trace.total_ns_per_pkt": (side.ns_per_pkt(), "ns"),
        "trace.overhead_pct": ((side.ns_per_pkt() / plain.ns_per_pkt() - 1) * 100, "%"),
    }
