"""An independent NAT property checker over wire bytes.

Written apart from ``repro.nat``: it knows only the NAT's external IP,
which wire port faces the inside and which the outside, and the frames
the driver injected. For every burst it checks that each injected frame
came out exactly once, and that the frame that came out is right:

- both checksums verify (RFC 1071, recomputed by :mod:`refpkt`);
- a forward frame leaves on the outside port with only its source
  rewritten, to the external IP and some external port, and its
  payload and every other header byte unchanged;
- an internal flow keeps one external port while it lives (stable), and
  no external port serves two live flows (injective);
- a reply leaves on the inside port with only its destination rewritten,
  back to the internal host and port of the flow that owns the port;
- within each flow and direction, frames come out in the order they
  went in.

Frames are matched to the operations that sent them by payload, which
carries a unique (flow, sequence, direction) token. Each operation gets
one verdict; a failed one counts once, under the first fault found.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import refpkt

FWD = 0
RET = 1
NOT_DELIVERED = "not_delivered"
#: The wire ports of every deployment: 0 faces the inside, 1 the outside.
INSIDE = 0
OUTSIDE = 1


class Flow:
    """One internal endpoint talking to one server endpoint."""

    __slots__ = ("fid", "proto", "int_ip", "int_port", "srv_ip", "srv_port", "short", "seq")

    def __init__(self, fid, proto, int_ip, int_port, srv_ip, srv_port, short=False):
        self.fid = fid
        self.proto = proto
        self.int_ip = int_ip
        self.int_port = int_port
        self.srv_ip = srv_ip
        self.srv_port = srv_port
        #: A short flow sends one request and gets one reply, then stops.
        self.short = short
        self.seq = 0


class Op:
    """One frame injected on one wire port: the unit of ``attempted``."""

    __slots__ = ("kind", "flow", "seq", "port", "frame", "payload")

    def __init__(self, kind: int, flow: Flow, seq: int, port: int, frame: bytes):
        self.kind = kind
        self.flow = flow
        self.seq = seq
        self.port = port
        self.frame = frame
        self.payload = frame[refpkt.header_len(flow.proto) :]


class NatChecker:
    """Verdicts for every operation, and the mapping state they imply."""

    def __init__(self, ext_ip: int) -> None:
        self.ext_ip = ext_ip
        self.attempted = 0
        self.ok = 0
        #: Failed operations by first fault found.
        self.faults: Counter = Counter()
        #: Outputs that match no injected frame, beyond those pairable
        #: with a missing one; any makes the run incorrect.
        self.spurious = 0
        self.payload_bytes = 0
        self.ports_reused = 0
        self._port_of: Dict[int, int] = {}  # fid -> external port, live flows
        self._owner: Dict[int, int] = {}  # external port -> fid, live flows
        self._used_ports: set = set()
        self._last_seq: Dict[Tuple[int, int], int] = {}

    @property
    def failed(self) -> int:
        return sum(self.faults.values())

    def retire(self, flow: Flow) -> None:
        """The driver stopped using ``flow``: its port may be reused."""
        port = self._port_of.pop(flow.fid, None)
        if port is not None and self._owner.get(port) == flow.fid:
            del self._owner[port]
        self._last_seq.pop((flow.fid, FWD), None)
        self._last_seq.pop((flow.fid, RET), None)

    def check_burst(
        self, ops: Sequence[Op], outputs: Sequence[Tuple[int, bytes]]
    ) -> List[Tuple[Op, bytes]]:
        """Judge one burst; returns the forward frames delivered correctly."""
        self.attempted += len(ops)
        pending = {op.payload: op for op in ops}
        seen: Dict[bytes, Op] = {}
        verdict: Dict[int, Optional[str]] = {}
        unmatched: List[str] = []
        out_of: Dict[int, bytes] = {}
        for port, data in outputs:
            frame = refpkt.parse_frame(data)
            if frame is None:
                unmatched.append("malformed")
                continue
            op = pending.pop(frame.payload, None)
            if op is None:
                twin = seen.get(frame.payload)
                if twin is not None:
                    verdict[id(twin)] = verdict.get(id(twin)) or "duplicate"
                else:
                    unmatched.append("payload")
                continue
            seen[frame.payload] = op
            verdict[id(op)] = self._verify(op, port, data, frame)
            out_of[id(op)] = data
        # An output whose payload matches nothing is the mistranslation
        # of some missing frame; pair them up before calling the rest
        # not delivered.
        missing = list(pending.values())
        for op, cause in zip(missing, unmatched):
            verdict[id(op)] = cause
        for op in missing[len(unmatched) :]:
            verdict[id(op)] = NOT_DELIVERED
        self.spurious += max(0, len(unmatched) - len(missing))
        delivered: List[Tuple[Op, bytes]] = []
        for op in ops:
            fault = verdict[id(op)]
            if fault is None:
                self.ok += 1
                self.payload_bytes += len(op.payload)
                if op.kind == FWD:
                    delivered.append((op, out_of[id(op)]))
            else:
                self.faults[fault] += 1
            if op.kind == RET and op.flow.short:
                self.retire(op.flow)
        return delivered

    def _verify(self, op: Op, port: int, data: bytes, frame) -> Optional[str]:
        if not refpkt.ip_checksum_ok(data):
            return "ip_checksum"
        if not refpkt.l4_checksum_ok(data):
            return "l4_checksum"
        flow = op.flow
        if op.kind == FWD:
            if port != OUTSIDE:
                return "wrong_port"
            expected = refpkt.rewrite(op.frame, src=(self.ext_ip, frame.src_port))
            if frame.src_ip != self.ext_ip or refpkt.masked(data) != refpkt.masked(expected):
                return "forward_rewrite"
            fault = self._map(flow, frame.src_port)
        else:
            if port != INSIDE:
                return "wrong_port"
            if (frame.dst_ip, frame.dst_port) != (flow.int_ip, flow.int_port):
                return "wrong_host"
            expected = refpkt.rewrite(op.frame, dst=(flow.int_ip, flow.int_port))
            fault = "return_rewrite" if refpkt.masked(data) != refpkt.masked(expected) else None
        if fault is not None:
            return fault
        key = (flow.fid, op.kind)
        if op.seq <= self._last_seq.get(key, -1):
            return "order"
        self._last_seq[key] = op.seq
        return None

    def _map(self, flow: Flow, ext_port: int) -> Optional[str]:
        known = self._port_of.get(flow.fid)
        if known is not None:
            return None if known == ext_port else "mapping_unstable"
        owner = self._owner.get(ext_port)
        if owner is not None:
            return "port_reused_live"
        self._port_of[flow.fid] = ext_port
        self._owner[ext_port] = flow.fid
        if ext_port in self._used_ports:
            self.ports_reused += 1
        self._used_ports.add(ext_port)
        return None
