"""The gateway wire protocol: length-prefixed, CRC-framed JSON.

The split deployment the paper describes — bytecode produced once,
shipped over the wire, finished by the client's JIT — needs an actual
wire.  This module defines the framing both ends of that wire share
(:mod:`repro.service.gateway` speaks it over asyncio, the blocking
:mod:`repro.service.client` over plain sockets), designed for exactly
one property: **a torn or hostile byte stream is always detected and
classified, never silently accepted**.

Frame layout (all integers big-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       4     magic  b"VGW1"
    4       1     version (currently 1)
    5       4     deadline_ms — the sender's *remaining* budget in
                  milliseconds; NO_DEADLINE (0xFFFFFFFF) = none.  On a
                  request this lands in ServiceRequest.deadline_s, so a
                  slow compile can never outlive its caller; responses
                  always carry NO_DEADLINE.
    9       4     payload length N (bounded by MAX_PAYLOAD)
    13      N     payload — canonical JSON (sorted keys, no spaces)
    13+N    4     CRC-32 over bytes [4, 13+N) — header fields + payload

The CRC covers the header fields as well as the payload, so a flipped
deadline or length byte is as detectable as a flipped payload byte.
The length field is validated *before* allocation (an adversarial
length cannot balloon memory), and every decode failure raises a
classified :class:`NetworkError` naming what was wrong and where.

**Canonical payload JSON** (:func:`encode_payload`) is the byte-level
contract the gateway tests pin: a warm response served over the wire is
byte-identical to the same :class:`~repro.service.ServiceResponse`
serialized in-process, so the gateway can never reorder, re-float, or
otherwise "improve" an answer in transit.
"""

from __future__ import annotations

import json
import struct
import zlib

from ..errors import ReproError

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_LEN",
    "MAX_PAYLOAD",
    "NO_DEADLINE",
    "NetworkError",
    "encode_payload",
    "decode_payload",
    "encode_frame",
    "decode_frame",
    "response_payload",
]

MAGIC = b"VGW1"
VERSION = 1
#: magic(4) + version(1) + deadline_ms(4) + length(4)
HEADER_LEN = 13
_HEADER = struct.Struct("!4sBII")
_CRC = struct.Struct("!I")
#: largest accepted payload — far above any real request/response, far
#: below anything that could be used to balloon gateway memory.
MAX_PAYLOAD = 1 << 20
#: deadline_ms sentinel for "no deadline".
NO_DEADLINE = 0xFFFFFFFF


class NetworkError(ReproError):
    """A wire-level failure: framing, checksum, connection, or timeout.

    ``kind`` is a machine-readable tag — ``bad-magic``, ``bad-version``,
    ``oversized``, ``bad-crc``, ``truncated``, ``bad-json``,
    ``connect``, ``reset``, ``timeout`` — so chaos campaigns and client
    retry policy can switch on *what* broke without parsing messages.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


def encode_payload(obj: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, UTF-8.

    One encoding for the wire, the byte-identity tests, and any future
    on-disk response log — canonical so equality is byte equality.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def decode_payload(data: bytes) -> dict:
    """Parse payload bytes; classified :class:`NetworkError` on failure."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetworkError("bad-json", f"unparseable payload: {exc}") from None
    if not isinstance(obj, dict):
        raise NetworkError(
            "bad-json", f"payload must be a JSON object, got "
            f"{type(obj).__name__}"
        )
    return obj


def deadline_to_wire(deadline_s: float | None) -> int:
    """Remaining seconds -> header milliseconds (clamped, floored at 0)."""
    if deadline_s is None:
        return NO_DEADLINE
    ms = int(max(0.0, float(deadline_s)) * 1000.0)
    return min(ms, NO_DEADLINE - 1)


def deadline_from_wire(deadline_ms: int) -> float | None:
    """Header milliseconds -> seconds budget (None = no deadline)."""
    if deadline_ms == NO_DEADLINE:
        return None
    return deadline_ms / 1000.0


def encode_frame(payload: dict, deadline_s: float | None = None) -> bytes:
    """One complete frame for ``payload``.

    ``deadline_s`` is the sender's remaining budget (requests only;
    responses leave it None).
    """
    body = encode_payload(payload)
    if len(body) > MAX_PAYLOAD:
        raise NetworkError(
            "oversized", f"payload of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    header = _HEADER.pack(
        MAGIC, VERSION, deadline_to_wire(deadline_s), len(body)
    )
    crc = zlib.crc32(header[4:] + body) & 0xFFFFFFFF
    return header + body + _CRC.pack(crc)


def check_header(header: bytes) -> tuple[int, int]:
    """Validate a 13-byte header; returns (deadline_ms, payload_len).

    Raises a classified :class:`NetworkError` on bad magic, unsupported
    version, or an adversarial length — *before* any payload allocation.
    """
    if len(header) != HEADER_LEN:
        raise NetworkError(
            "truncated", f"header is {len(header)} bytes, need {HEADER_LEN}"
        )
    magic, version, deadline_ms, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise NetworkError("bad-magic", f"bad frame magic {magic!r}")
    if version != VERSION:
        raise NetworkError(
            "bad-version", f"unsupported protocol version {version}"
        )
    if length > MAX_PAYLOAD:
        raise NetworkError(
            "oversized", f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    return deadline_ms, length


def check_frame(header: bytes, body: bytes, crc_bytes: bytes) -> None:
    """Verify the trailing CRC over header fields + payload."""
    if len(crc_bytes) != _CRC.size:
        raise NetworkError(
            "truncated", f"CRC trailer is {len(crc_bytes)} bytes, need 4"
        )
    (crc,) = _CRC.unpack(crc_bytes)
    actual = zlib.crc32(header[4:] + body) & 0xFFFFFFFF
    if crc != actual:
        raise NetworkError(
            "bad-crc", f"frame CRC 0x{crc:08x} != computed 0x{actual:08x} "
            f"(torn or corrupted frame)"
        )


def decode_frame(data: bytes) -> tuple[dict, float | None]:
    """Decode one complete frame from ``data`` (exact size required).

    Returns ``(payload, deadline_s)``.  Raises :class:`NetworkError`
    (classified) on any framing, checksum, or JSON failure.
    """
    if len(data) < HEADER_LEN + _CRC.size:
        raise NetworkError(
            "truncated", f"frame of {len(data)} bytes is shorter than the "
            f"minimum {HEADER_LEN + _CRC.size}"
        )
    header = data[:HEADER_LEN]
    deadline_ms, length = check_header(header)
    end = HEADER_LEN + length
    if len(data) != end + _CRC.size:
        raise NetworkError(
            "truncated", f"frame declares {length} payload bytes but "
            f"{len(data) - HEADER_LEN - _CRC.size} are present"
        )
    body = data[HEADER_LEN:end]
    check_frame(header, body, data[end:end + _CRC.size])
    return decode_payload(body), deadline_from_wire(deadline_ms)


# -- response serialization ----------------------------------------------------


def _json_number(value):
    """Coerce a result value to a plain JSON number (or string fallback).

    Keeps None and bools out of the number path (bool is an int
    subclass) and normalizes numpy scalars so the wire encoding is
    process-independent.
    """
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def response_payload(resp) -> dict:
    """The canonical wire dict for a :class:`ServiceResponse`.

    Everything a remote caller can act on — status, classified error
    tag, the degradation-event chain, cache/coalescing provenance, and
    the result — and nothing process-local (``span_id`` is deliberately
    excluded: it only joins responses to *this* process's trace export).
    The gateway byte-identity test pins that serving over the wire
    cannot change a single byte of this.
    """
    req = resp.request
    out = {
        "v": 1,
        "status": resp.status,
        "kernel": req.kernel,
        "flow": req.flow,
        "target": req.target,
        "size": req.size,
        "error": resp.error,
        "events": [
            {"cause": e.cause, "detail": e.detail} for e in resp.events
        ],
        "from_cache": bool(resp.from_cache),
        "coalesced": bool(resp.coalesced),
        "attempts": int(resp.attempts),
        "result": None,
    }
    if resp.result is not None:
        r = resp.result
        out["result"] = {
            "cycles": _json_number(r.cycles),
            "value": _json_number(r.value),
            "checked": bool(r.checked),
            "bytecode_bytes": int(r.bytecode_bytes),
            "compile_seconds": _json_number(r.compile_seconds),
        }
    return out
