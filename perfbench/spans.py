"""Span recording and per-layer attribution for the service benchmark.

The server side records one span per timed call into a layer's public
function (:class:`SpanRecorder`); the benchmark then turns the spans of
the measured phase into per-layer self times (:func:`layer_table`).

A span is the tuple ``(id, parent, name, start, end, extra)``; ``parent``
is the id of the enclosing timed call on the same thread (0 at the top),
times are ``time.perf_counter()`` seconds, which on Linux is the
system-wide monotonic clock, so client and server timestamps compare.

A span's **self time** is its duration minus the part of its interval
that its child spans cover.  Each span's self time is charged to the
*entry* into its layer: the outermost span of an unbroken chain of
same-layer spans.  So ``KernelCache.get`` plus the ``unpack_kernel`` it
calls is one cache call, while a ``FlowRunner.scalar_ir`` nested under
``FlowRunner.vectorized_ir`` is a separate frontend call inside a
vectorizer call.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import threading
import time

#: span name -> layer.  Span names are the dotted public call each
#: wrapper times; the launcher installs a wrapper for every one.
LAYER_OF = {
    "wire.response_payload": "gateway",
    "KernelService.handle": "service",
    "AdmissionQueue.admit": "admission",
    "KernelCache.get": "cache",
    "cache.unpack_kernel": "cache",
    "KernelCache.put": "cache",
    "KernelCache.put_bytes": "cache",
    "KernelCache.claim_leader": "cache",
    "KernelCache.release_leader": "cache",
    "Flight.wait": "singleflight",
    "Kernel.instantiate": "kernels",
    "FlowRunner.scalar_ir": "frontend",
    "FlowRunner.vectorized_ir": "vectorizer",
    "FlowRunner.native_ir": "vectorizer",
    "FlowRunner.split_ir": "bytecode",
    "FlowRunner.bytecode_sizes": "bytecode",
    "MonoJIT.compile": "jit",
    "OptimizingJIT.compile": "jit",
    "CompiledKernel.translated": "machine.translate",
    "execute_phase": "machine.run",
    "FlowRunner.verify": "verify",
    "FlowRunner.make_buffers": "verify",
}

#: every layer reported, in request order; ``gateway`` is the client
#: round trip minus ``KernelService.handle`` (the wire carries no trace
#: id yet, so the gateway's own time is the remainder).
LAYERS = ("gateway", "service", "admission", "singleflight", "cache",
          "kernels", "frontend", "vectorizer", "bytecode", "jit",
          "machine.translate", "machine.run", "verify")

HANDLE = "KernelService.handle"


class SpanRecorder:
    """Keeps spans in memory; :meth:`dump` writes them out once."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, extra=None):
        """``fn`` timed as span ``name``; ``extra(args, result)`` may
        attach one JSON-able value to the span."""
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              extra(args, out) if extra else None))

        return timed

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))


def load(path: str) -> list:
    with open(path) as f:
        return [tuple(s) for s in json.load(f)]


# -- statistics ---------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0 for no values)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def supported(n: int, p: float) -> bool:
    """Does a sample of ``n`` leave at least ten values beyond the
    ``p``-th percentile?  (p99 needs n >= 1000, p90 needs n >= 100.)"""
    return n * (100.0 - p) >= 1000.0 - 1e-9


def geomean(values) -> float:
    xs = [float(v) for v in values]
    if not xs or min(xs) <= 0:
        return 0.0
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# -- attribution --------------------------------------------------------------


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part its children cover."""
    children: dict = {}
    for sid, parent, _n, start, end, _x in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _p, _n, start, end, _x in spans:
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - _covered(kids)
    return out


def in_window(spans, t0: float, t1: float) -> list:
    """The spans whose call started inside ``[t0, t1]``."""
    return [s for s in spans if t0 <= s[3] <= t1]


def layer_calls(spans, layer_of=LAYER_OF) -> dict:
    """layer -> list of per-call self times (seconds), one per entry
    into the layer (see the module docstring)."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    entry_of: dict = {}
    totals: dict = {}
    # parents first: by start, the longer span first on a tie
    for span in sorted(spans, key=lambda s: (s[3], -s[4])):
        sid, parent, name = span[0], span[1], span[2]
        layer = layer_of.get(name)
        up = by_id.get(parent)
        if up is not None and layer_of.get(up[2]) == layer:
            entry = entry_of.get(parent, parent)
        else:
            entry = sid
        entry_of[sid] = entry
        totals.setdefault(layer, {}).setdefault(entry, 0.0)
        totals[layer][entry] += own[sid]
    return {layer: list(per.values()) for layer, per in totals.items()}


def match_requests(requests, handles) -> list:
    """Pair each client request with the ``KernelService.handle`` span
    that served it.

    ``requests`` are ``(shape, t_send, t_recv)`` and ``handles`` are
    handle spans whose ``extra`` is the request shape.  A span can serve
    a request when the shapes agree and the span lies inside the round
    trip.  Requests are matched in the order their answers arrived, each
    to its earliest unmatched candidate, so a short request nested in a
    long one of the same shape is matched first and cannot lose its
    span.  Returns, per request, the matched span's duration or None.
    """
    by_shape: dict = {}
    for span in handles:
        by_shape.setdefault(tuple(span[5]), []).append(span)
    starts = {}
    for shape, spans in by_shape.items():
        spans.sort(key=lambda s: s[3])
        starts[shape] = [s[3] for s in spans]
    used: set = set()
    out: list = [None] * len(requests)
    for i in sorted(range(len(requests)), key=lambda i: requests[i][2]):
        shape, t_send, t_recv = requests[i]
        shape = tuple(shape)
        spans = by_shape.get(shape, [])
        j = bisect.bisect_left(starts.get(shape, []), t_send)
        for span in spans[j:]:
            if span[3] > t_recv:
                break
            if span[0] not in used and span[4] <= t_recv:
                used.add(span[0])
                out[i] = span[4] - span[3]
                break
    return out


def layer_table(spans, requests) -> dict:
    """Per-layer ``calls`` / ``busy_s`` / ``p50_ms`` / ``p99_ms`` /
    ``share`` for one measured phase, plus ``unattributed.share``.

    ``spans`` are the server spans of the phase; ``requests`` are the
    client's ``(shape, t_send, t_recv)`` of the phase.  Shares are of the
    summed round-trip time.  ``gateway`` is each matched round trip minus
    its handle span; a round trip with no matching span (clock skew or a
    lost span) cannot be split and is the unattributed part.
    """
    total_rt = sum(r[2] - r[1] for r in requests)
    handles = [s for s in spans if s[2] == HANDLE]
    matched = match_requests(requests, handles)
    gateway, unattributed = [], 0.0
    for (_shape, t_send, t_recv), handle in zip(requests, matched):
        if handle is None:
            unattributed += t_recv - t_send
        else:
            gateway.append((t_recv - t_send) - handle)
    per = layer_calls(spans)
    per["gateway"] = gateway
    out = {}
    for layer in LAYERS:
        xs = per.get(layer, [])
        busy = sum(xs)
        out[layer] = {
            "calls": len(xs),
            "busy_s": busy,
            "p50_ms": percentile(xs, 50) * 1e3,
            "p99_ms": percentile(xs, 99) * 1e3,
            "share": busy / total_rt if total_rt else 0.0,
        }
    out["unattributed"] = {
        "share": unattributed / total_rt if total_rt else 0.0,
        "unmatched": sum(m is None for m in matched),
    }
    return out
