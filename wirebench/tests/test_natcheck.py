"""The reference checks reject each planted fault, and accept the truth.

Run from the root of a checkout: ``python3 -m pytest -q wirebench/tests``.
"""

import struct

import pytest

import refpkt
from natcheck import FWD, INSIDE, NOT_DELIVERED, OUTSIDE, RET, Flow, NatChecker, Op

EXT_IP = refpkt.ip("192.0.2.1")
SRV = (refpkt.ip("203.0.113.7"), 443)


def flow(fid, proto=refpkt.PROTO_UDP, short=False):
    return Flow(fid, proto, refpkt.ip("10.0.0.1") + fid, 5000 + fid, *SRV, short=short)


def payload(f, seq, kind, size=64):
    body = struct.pack(">IIB", f.fid, seq, kind)
    return body + b"x" * (size - refpkt.header_len(f.proto) - len(body))


def forward(f, seq=0):
    frame = refpkt.build_frame(f.proto, f.int_ip, f.int_port, *SRV, payload(f, seq, FWD))
    return Op(FWD, f, seq, INSIDE, frame)


def translated(f, ext_port, seq=0):
    """What a correct NAT emits for ``forward(f, seq)``."""
    return refpkt.build_frame(f.proto, EXT_IP, ext_port, *SRV, payload(f, seq, FWD))


def reply(f, ext_port, seq=0):
    frame = refpkt.build_frame(f.proto, *SRV, EXT_IP, ext_port, payload(f, seq, RET))
    return Op(RET, f, seq, OUTSIDE, frame)


def returned(f, seq=0, host=None):
    host = host if host is not None else (f.int_ip, f.int_port)
    return refpkt.build_frame(f.proto, *SRV, *host, payload(f, seq, RET))


def flip(data, offset):
    out = bytearray(data)
    out[offset] ^= 0x01
    return bytes(out)


def test_rfc1071_matches_the_rfc_example():
    # RFC 1071 section 3: the words 0001 f203 f4f5 f6f7 sum to ddf2.
    assert refpkt.rfc1071(bytes.fromhex("0001f203f4f5f6f7")) == 0xDDF2
    assert refpkt.checksum(bytes.fromhex("0001f203f4f5f6f7")) == 0x220D


@pytest.mark.parametrize("proto", [refpkt.PROTO_TCP, refpkt.PROTO_UDP])
def test_a_correct_round_trip_passes(proto):
    f = flow(1, proto)
    checker = NatChecker(EXT_IP)
    delivered = checker.check_burst([forward(f)], [(OUTSIDE, translated(f, 1001))])
    assert [op.seq for op, _ in delivered] == [0]
    checker.check_burst([reply(f, 1001)], [(INSIDE, returned(f))])
    assert (checker.ok, checker.failed, checker.spurious) == (2, 0, 0)


def test_bad_ip_checksum_is_rejected():
    f = flow(1)
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(f)], [(OUTSIDE, flip(translated(f, 1001), refpkt.IP_CSUM))])
    assert checker.faults == {"ip_checksum": 1}


@pytest.mark.parametrize("proto", [refpkt.PROTO_TCP, refpkt.PROTO_UDP])
def test_bad_l4_checksum_is_rejected(proto):
    f = flow(1, proto)
    at = refpkt.TCP_CSUM if proto == refpkt.PROTO_TCP else refpkt.UDP_CSUM
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(f)], [(OUTSIDE, flip(translated(f, 1001), at + 1))])
    assert checker.faults == {"l4_checksum": 1}


def test_changed_payload_is_rejected():
    f = flow(1)
    op = forward(f)
    bad = bytearray(payload(f, 0, FWD))
    bad[-1] ^= 0xFF
    # Checksums recomputed, so only the payload itself is wrong.
    frame = refpkt.build_frame(f.proto, EXT_IP, 1001, *SRV, bytes(bad))
    checker = NatChecker(EXT_IP)
    checker.check_burst([op], [(OUTSIDE, frame)])
    assert checker.ok == 0 and checker.failed == 1
    assert NOT_DELIVERED not in checker.faults


def test_port_reused_while_its_flow_lives_is_rejected():
    a, b = flow(1), flow(2)
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(a), forward(b)], [(OUTSIDE, translated(a, 1001)), (OUTSIDE, translated(b, 1001))])
    assert checker.faults == {"port_reused_live": 1}


def test_port_reuse_after_retirement_is_allowed():
    a, b = flow(1, short=True), flow(2)
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(a)], [(OUTSIDE, translated(a, 1001))])
    checker.check_burst([reply(a, 1001)], [(INSIDE, returned(a))])  # retires a
    checker.check_burst([forward(b)], [(OUTSIDE, translated(b, 1001))])
    assert checker.failed == 0 and checker.ports_reused == 1


def test_unstable_mapping_is_rejected():
    f = flow(1)
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(f, 0)], [(OUTSIDE, translated(f, 1001, 0))])
    checker.check_burst([forward(f, 1)], [(OUTSIDE, translated(f, 1002, 1))])
    assert checker.faults == {"mapping_unstable": 1}


def test_reply_to_the_wrong_internal_host_is_rejected():
    f = flow(1)
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(f)], [(OUTSIDE, translated(f, 1001))])
    wrong = (f.int_ip + 1, f.int_port)
    checker.check_burst([reply(f, 1001)], [(INSIDE, returned(f, host=wrong))])
    assert checker.faults == {"wrong_host": 1}


def test_lost_duplicated_and_reordered_frames_are_rejected():
    f = flow(1)
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(f, 0)], [])
    assert checker.faults == {NOT_DELIVERED: 1}
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(f, 0)], [(OUTSIDE, translated(f, 1001, 0))] * 2)
    assert checker.faults == {"duplicate": 1}
    checker = NatChecker(EXT_IP)
    checker.check_burst(
        [forward(f, 0), forward(f, 1)],
        [(OUTSIDE, translated(f, 1001, 1)), (OUTSIDE, translated(f, 1001, 0))],
    )
    assert checker.faults == {"order": 1}


def test_output_on_the_wrong_wire_port_is_rejected():
    f = flow(1)
    checker = NatChecker(EXT_IP)
    checker.check_burst([forward(f)], [(INSIDE, translated(f, 1001))])
    assert checker.faults == {"wrong_port": 1}


def test_untranslated_source_is_rejected():
    f = flow(1)
    op = forward(f)
    checker = NatChecker(EXT_IP)
    checker.check_burst([op], [(OUTSIDE, op.frame)])
    assert checker.faults == {"forward_rewrite": 1}
