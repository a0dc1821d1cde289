"""Reference frame builder and parser, written apart from ``repro.packets``.

The benchmark checks the program's output against this module, so it
shares no code with the packet layer it checks: frames are packed with
``struct`` here, and checksums are the plain RFC 1071 one's-complement
sum, computed from scratch.

Only what the benchmark sends is supported: Ethernet II, IPv4 without
options, and TCP (20-byte header) or UDP.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional

ETH_LEN = 14
IP_LEN = 20
TCP_LEN = 20
UDP_LEN = 8
PROTO_TCP = 6
PROTO_UDP = 17

# Frame offsets of the fields a NAT may rewrite, and of the checksums.
IP_CSUM = ETH_LEN + 10
IP_SRC = ETH_LEN + 12
IP_DST = ETH_LEN + 16
L4 = ETH_LEN + IP_LEN
L4_SPORT = L4
L4_DPORT = L4 + 2
TCP_CSUM = L4 + 16
UDP_CSUM = L4 + 6

_ETH = struct.Struct(">6s6sH")
_IP = struct.Struct(">BBHHHBBHII")
_TCP = struct.Struct(">HHIIBBHHH")
_UDP = struct.Struct(">HHHH")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

SRC_MAC = bytes.fromhex("020000000001")
DST_MAC = bytes.fromhex("020000000002")


def header_len(proto: int) -> int:
    """Bytes before the payload in a frame of this protocol."""
    return ETH_LEN + IP_LEN + (TCP_LEN if proto == PROTO_TCP else UDP_LEN)


def rfc1071(data: bytes) -> int:
    """The 16-bit one's-complement sum of ``data`` (RFC 1071), uncomplemented."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def checksum(data: bytes) -> int:
    """The Internet checksum of ``data``: the complemented RFC 1071 sum."""
    return ~rfc1071(data) & 0xFFFF


def _pseudo(src_ip: int, dst_ip: int, proto: int, length: int) -> bytes:
    return struct.pack(">IIBBH", src_ip, dst_ip, 0, proto, length)


def build_frame(
    proto: int,
    src_ip: int,
    src_port: int,
    dst_ip: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    """An Ethernet/IPv4/TCP-or-UDP frame with both checksums filled in.

    IP id 0, DF set, TTL 64; a TCP segment is ACK|PSH at sequence 0.
    """
    if proto == PROTO_TCP:
        l4_len = TCP_LEN + len(payload)
        # ACK|PSH, a fixed window: an established-flow data segment.
        header = _TCP.pack(src_port, dst_port, 0, 0, 5 << 4, 0x18, 0xFFFF, 0, 0)
    elif proto == PROTO_UDP:
        l4_len = UDP_LEN + len(payload)
        header = _UDP.pack(src_port, dst_port, l4_len, 0)
    else:
        raise ValueError(f"unsupported protocol {proto}")
    segment = header + payload
    csum = checksum(_pseudo(src_ip, dst_ip, proto, l4_len) + segment)
    if proto == PROTO_UDP and csum == 0:
        csum = 0xFFFF  # RFC 768: a computed zero is sent as all ones
    csum_at = 16 if proto == PROTO_TCP else 6
    segment = segment[:csum_at] + _U16.pack(csum) + segment[csum_at + 2 :]
    ip = _IP.pack(0x45, 0, IP_LEN + l4_len, 0, 0x4000, 64, proto, 0, src_ip, dst_ip)
    ip = ip[:10] + _U16.pack(checksum(ip)) + ip[12:]
    return _ETH.pack(DST_MAC, SRC_MAC, 0x0800) + ip + segment


class Frame(NamedTuple):
    """The fields of a parsed frame the checker looks at."""

    proto: int
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    payload: bytes


def parse_frame(data: bytes) -> Optional[Frame]:
    """Parse a frame this module could have built; None if it is not one."""
    if len(data) < ETH_LEN + IP_LEN or _U16.unpack_from(data, 12)[0] != 0x0800:
        return None
    vihl, _tos, total, _id, _frag, _ttl, proto, _csum, src, dst = _IP.unpack_from(data, ETH_LEN)
    if vihl != 0x45 or ETH_LEN + total != len(data):
        return None
    if proto == PROTO_TCP:
        if total < IP_LEN + TCP_LEN:
            return None
    elif proto == PROTO_UDP:
        if total < IP_LEN + UDP_LEN or _U16.unpack_from(data, L4 + 4)[0] != total - IP_LEN:
            return None
    else:
        return None
    sport, dport = struct.unpack_from(">HH", data, L4)
    return Frame(proto, src, sport, dst, dport, data[header_len(proto) :])


def ip_checksum_ok(data: bytes) -> bool:
    """True when the IPv4 header checksum verifies."""
    return rfc1071(data[ETH_LEN : ETH_LEN + IP_LEN]) == 0xFFFF


def l4_checksum_ok(data: bytes) -> bool:
    """True when the TCP or UDP checksum verifies over the pseudo-header."""
    proto = data[ETH_LEN + 9]
    if proto == PROTO_UDP and _U16.unpack_from(data, UDP_CSUM)[0] == 0:
        return True  # RFC 768: zero means the sender sent no checksum
    src, dst = struct.unpack_from(">II", data, IP_SRC)
    segment = data[L4:]
    return rfc1071(_pseudo(src, dst, proto, len(segment)) + segment) == 0xFFFF


def rewrite(data: bytes, *, src=None, dst=None) -> bytes:
    """``data`` with its source and/or destination (ip, port) replaced.

    Checksums are left as they were; the checker compares frames with
    the checksum fields masked out (see :func:`masked`).
    """
    out = bytearray(data)
    if src is not None:
        out[IP_SRC : IP_SRC + 4] = _U32.pack(src[0])
        out[L4_SPORT : L4_SPORT + 2] = _U16.pack(src[1])
    if dst is not None:
        out[IP_DST : IP_DST + 4] = _U32.pack(dst[0])
        out[L4_DPORT : L4_DPORT + 2] = _U16.pack(dst[1])
    return bytes(out)


def masked(data: bytes) -> bytes:
    """``data`` with the IPv4 and L4 checksum fields zeroed."""
    out = bytearray(data)
    out[IP_CSUM : IP_CSUM + 2] = b"\x00\x00"
    at = TCP_CSUM if data[ETH_LEN + 9] == PROTO_TCP else UDP_CSUM
    out[at : at + 2] = b"\x00\x00"
    return bytes(out)


def ip(text: str) -> int:
    """Dotted quad to integer."""
    a, b, c, d = (int(part) for part in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d
