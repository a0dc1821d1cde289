"""Seeded traffic for the closed-loop driver, and its echo server.

Every burst carries the echo replies to the previous burst's delivered
forward frames, plus fresh forward frames: one per slot, from the
established flows in a seeded round-robin order, except for the slots
the churn pattern hands to brand-new short flows. A short flow sends one
request and receives one echo, then is never used again, so the NAT
holds it until the simulated clock expires it.

The same seed gives the same flows, frame sizes and payloads; nothing
here reads a clock.
"""

from __future__ import annotations

import random
import struct
from typing import List, Sequence, Tuple

import refpkt
from natcheck import FWD, INSIDE, OUTSIDE, RET, Flow, Op

_TOKEN = struct.Struct(">IIB")  # flow id, sequence, direction
_PROTOS = (refpkt.PROTO_TCP, refpkt.PROTO_UDP)


class Traffic:
    """Frames for one run of one workload.

    ``forwards`` is the number of forward frames per burst; ``churn``
    gives, burst by burst and repeating, how many of them open new
    short flows; ``sizes`` gives frame sizes in bytes, cycled in a seeded
    order over all forward frames.
    """

    def __init__(
        self,
        seed: int,
        flows: int,
        forwards: int,
        churn: Sequence[int] = (0,),
        sizes: Sequence[int] = (64,),
    ) -> None:
        rng = random.Random(seed)
        self.forwards = forwards
        self.churn = tuple(churn)
        self.sizes = list(sizes)
        rng.shuffle(self.sizes)
        self.filler = rng.randbytes(2048)
        self.flows: List[Flow] = []
        seen = set()
        while len(self.flows) < flows:
            # Exactly half TCP: payload bytes per frame do not vary by seed.
            proto = _PROTOS[len(self.flows) % 2]
            int_ip = refpkt.ip("10.0.0.0") + rng.randrange(1, 1 << 16)
            int_port = rng.randrange(1024, 65536)
            srv_ip = refpkt.ip("203.0.113.0") + rng.randrange(1, 255)
            srv_port = rng.choice((53, 80, 123, 443, 8080))
            key = (proto, int_ip, int_port, srv_ip, srv_port)
            if key not in seen:
                seen.add(key)
                self.flows.append(Flow(len(self.flows), *key))
        self.order = list(self.flows)
        rng.shuffle(self.order)
        self._next = 0
        self._sent = 0
        self._bursts = 0
        self._short = 0
        self._replies: List[Op] = []

    def _frame(self, flow: Flow, kind: int, seq: int, size: int, src, dst) -> bytes:
        body = _TOKEN.pack(flow.fid, seq, kind)
        room = size - refpkt.header_len(flow.proto) - len(body)
        return refpkt.build_frame(
            flow.proto, src[0], src[1], dst[0], dst[1], body + self.filler[:room]
        )

    def _forward(self, flow: Flow) -> Op:
        size = self.sizes[self._sent % len(self.sizes)]
        self._sent += 1
        seq = flow.seq
        flow.seq += 1
        frame = self._frame(
            flow, FWD, seq, size, (flow.int_ip, flow.int_port), (flow.srv_ip, flow.srv_port)
        )
        return Op(FWD, flow, seq, INSIDE, frame)

    def _new_short_flow(self) -> Flow:
        k = self._short
        self._short += 1
        return Flow(
            len(self.flows) + k,
            _PROTOS[k % 2],
            refpkt.ip("10.200.0.0") + 1 + k // 50_000,
            10_000 + k % 50_000,
            refpkt.ip("198.51.100.0") + 1 + k % 250,
            443,
            short=True,
        )

    def next_burst(self) -> List[Op]:
        """The replies owed from the last burst, then new forward frames."""
        ops = self._replies
        self._replies = []
        fresh = self.churn[self._bursts % len(self.churn)]
        self._bursts += 1
        for _ in range(fresh):
            ops.append(self._forward(self._new_short_flow()))
        for _ in range(self.forwards - fresh):
            flow = self.order[self._next]
            self._next = (self._next + 1) % len(self.order)
            ops.append(self._forward(flow))
        return ops

    def echo(self, delivered: Sequence[Tuple[Op, bytes]]) -> None:
        """The echo server: answer each delivered forward frame.

        The reply goes back from the server to the translated source the
        frame arrived with, same size, carrying the request's token with
        the direction flipped.
        """
        for op, data in delivered:
            frame = refpkt.parse_frame(data)
            flow = op.flow
            reply = self._frame(
                flow,
                RET,
                op.seq,
                len(data),
                (frame.dst_ip, frame.dst_port),
                (frame.src_ip, frame.src_port),
            )
            self._replies.append(Op(RET, flow, op.seq, OUTSIDE, reply))
