"""Pre-admission batching at the gateway (docs/service.md section 10).

Same-shape compile requests arriving within one batch window join one
*flight group*: one admission slot, one service call, one response
payload fanned out byte-identically to every waiter.  These tests pin
the merge invariants (the stampede proof), the deadline edges (a waiter
whose budget dies mid-batch gets a classified rejection, never a late
orphan write), the zero-leak lifecycle of the batch table when the
group's leader connection dies mid-window, and the accounting trail
(``gateway.batch.*``: riders are counted once, at the gateway).
"""

from __future__ import annotations

import asyncio
import gc
import socket
import threading
import time

import pytest

from repro import faults, obs
from repro.service import (
    GatewayClient,
    KernelService,
    ThreadedGateway,
)
from repro.service import wire
from repro.service.admission import Deadline
from repro.service.client import request_shape, shard_index
from repro.service.gateway import BATCH_MAX

SIZE = 16
FLOW = "split_vec_gcc4cli"
WINDOW = 0.08


def _payload(kernel="saxpy_fp", target="sse", size=SIZE):
    return {"op": "compile", "kernel": kernel, "flow": FLOW,
            "target": target, "size": size}


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            break
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket):
    """One reply frame off a raw socket -> (payload, raw payload bytes)."""
    header = _recv_exact(sock, wire.HEADER_LEN)
    assert len(header) == wire.HEADER_LEN, "connection closed mid-header"
    _, length = wire.check_header(header)
    rest = _recv_exact(sock, length + 4)
    assert len(rest) == length + 4, "connection closed mid-body"
    body, crc = rest[:length], rest[length:]
    wire.check_frame(header, body, crc)
    return wire.decode_payload(body), body


def _on_loop(gw: ThreadedGateway, fn):
    """Run ``fn()`` on the gateway's event loop and return its result."""
    async def call():
        return fn()
    return asyncio.run_coroutine_threadsafe(call(), gw._loop).result(10)


def _connect(addr) -> socket.socket:
    s = socket.create_connection(addr, timeout=30.0)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    s.settimeout(30.0)
    return s


@pytest.fixture()
def stack(tmp_path):
    """A fresh batching gateway per test: merge tests count admissions
    and compiles, so no state may leak between tests."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4, queue_limit=32)
    gw = ThreadedGateway(svc, idle_timeout_s=5.0,
                         drain_grace_s=0.0, batch_window_s=WINDOW)
    yield svc, gw
    gw.close()
    svc.close()


# -- the stampede proof -------------------------------------------------------


def test_stampede_one_admission_one_compile_identical_bytes(stack):
    """N concurrent identical-shape requests -> exactly one admission
    slot, one ``jit.compiles`` increment, and N byte-identical response
    payloads carrying ``batched == N``."""
    svc, gw = stack
    n = 6
    frame = wire.encode_frame(_payload("sad_s8"))
    with obs.recording(trace=False, metrics=True) as ob:
        socks = [_connect(gw.address) for _ in range(n)]
        try:
            for s in socks:
                s.sendall(frame)
            replies = [_recv_frame(s) for s in socks]
        finally:
            for s in socks:
                s.close()
    payloads = [p for p, _ in replies]
    raws = {raw for _, raw in replies}
    assert [p["status"] for p in payloads] == ["ok"] * n
    assert all(p["batched"] == n for p in payloads)
    assert len(raws) == 1, "waiters saw different bytes"

    adm = svc.admission.stats()
    assert adm["admitted"] == 1
    compiles = ob.metrics_snapshot().get("jit.compiles", {})
    assert compiles.get("value") == 1
    st = gw.stats()
    assert st["batch.flushed"] == 1
    assert st["batch.merged"] == n - 1
    assert st["batch_pending"] == 0
    assert st["served"] == n


def test_batch_key_is_the_shard_shape(stack):
    """Placement and batching agree: the batch key is exactly the
    canonical shape string :func:`shard_index` hashes."""
    a, b = _payload("sad_s8"), dict(_payload("sad_s8"), op="compile")
    assert request_shape(a) == request_shape(b)
    assert shard_index(a, 7) == shard_index(b, 7)
    # a different size is a different shape (and a different CacheKey)
    assert request_shape(a) != request_shape(_payload("sad_s8", size=32))


def test_distinct_shapes_do_not_merge(stack):
    svc, gw = stack
    frames = [wire.encode_frame(_payload("sad_s8", size=s))
              for s in (16, 24)]
    socks = [_connect(gw.address) for _ in frames]
    try:
        for s, f in zip(socks, frames):
            s.sendall(f)
        payloads = [_recv_frame(s)[0] for s in socks]
    finally:
        for s in socks:
            s.close()
    assert [p["status"] for p in payloads] == ["ok", "ok"]
    assert all(p["batched"] == 1 for p in payloads)
    assert svc.admission.stats()["admitted"] == 2
    assert gw.stats()["batch.flushed"] == 2
    assert gw.stats()["batch.merged"] == 0


def test_batch_max_flushes_early(tmp_path):
    """A full group must not sit out the rest of a long window."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4, queue_limit=32)
    gw = ThreadedGateway(svc, drain_grace_s=0.0, batch_window_s=5.0)
    try:
        frame = wire.encode_frame(_payload("sad_s8"))
        socks = [_connect(gw.address) for _ in range(BATCH_MAX)]
        try:
            start = time.perf_counter()
            for s in socks:
                s.sendall(frame)
            payloads = [_recv_frame(s)[0] for s in socks]
            elapsed = time.perf_counter() - start
        finally:
            for s in socks:
                s.close()
        assert [p["status"] for p in payloads] == ["ok"] * BATCH_MAX
        assert all(p["batched"] == BATCH_MAX for p in payloads)
        assert elapsed < 4.0, "group waited out the window despite BATCH_MAX"
    finally:
        gw.close()
        svc.close()


def test_full_group_window_task_ends_with_its_group(tmp_path):
    """The window task of a group closed at BATCH_MAX ends once the group
    settles instead of sleeping out the rest of a long window."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4, queue_limit=32)
    gw = ThreadedGateway(svc, drain_grace_s=0.0, batch_window_s=30.0)

    def window_tasks():
        return sum(t.get_coro().__qualname__.endswith("_close_after_window")
                   for t in asyncio.all_tasks())

    try:
        frame = wire.encode_frame(_payload("sad_s8"))
        socks = [_connect(gw.address) for _ in range(BATCH_MAX)]
        try:
            for s in socks:
                s.sendall(frame)
            payloads = [_recv_frame(s)[0] for s in socks]
        finally:
            for s in socks:
                s.close()
        assert all(p["batched"] == BATCH_MAX for p in payloads)
        deadline = time.perf_counter() + 5.0
        while _on_loop(gw, window_tasks) and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert _on_loop(gw, window_tasks) == 0
    finally:
        gw.close()
        svc.close()


# -- deadline edges -----------------------------------------------------------


def test_waiter_with_zero_budget_rejected_immediately(stack):
    """A waiter joining with 0 remaining budget can never receive the
    fan-out in time: classified DeadlineError, no group membership."""
    _, gw = stack
    s = _connect(gw.address)
    try:
        s.sendall(wire.encode_frame(_payload("sad_s8"), deadline_s=0.0))
        payload, _ = _recv_frame(s)
    finally:
        s.close()
    assert payload["status"] == "rejected"
    assert payload["error"] == "DeadlineError"
    assert payload["events"][0]["cause"] == "batch-deadline"
    assert gw.stats()["batch.expired"] == 1
    assert gw.stats()["batch_pending"] == 0


def test_waiter_deadline_expiry_mid_batch(stack):
    """A short-budget waiter whose deadline dies inside the window gets
    its own classified rejection while the patient waiter is served —
    never a late orphan write."""
    svc, gw = stack
    frame_short = wire.encode_frame(_payload("sad_s8"), deadline_s=0.02)
    frame_long = wire.encode_frame(_payload("sad_s8"), deadline_s=30.0)
    short, long_ = _connect(gw.address), _connect(gw.address)
    try:
        short.sendall(frame_short)
        long_.sendall(frame_long)
        p_short, _ = _recv_frame(short)
        p_long, _ = _recv_frame(long_)
    finally:
        short.close()
        long_.close()
    assert p_long["status"] == "ok"
    assert p_short["status"] == "rejected"
    assert p_short["error"] == "DeadlineError"
    assert p_short["events"][0]["cause"] == "batch-deadline"
    # both rode one group: one admission, the rider ledgered
    assert svc.admission.stats()["admitted"] == 1
    assert gw.stats()["batch.merged"] == 1


def test_group_with_leader_shortest_deadline_still_serves_followers(stack):
    """The group runs on the *longest* surviving budget: a leader whose
    deadline is the shortest in the group expires individually; the
    followers still get their answer."""
    _, gw = stack
    leader = _connect(gw.address)
    follower = _connect(gw.address)
    try:
        # The leader (first arrival, opens the group) has the short
        # budget; the follower joins with a long one.
        leader.sendall(wire.encode_frame(_payload("sad_s8"),
                                         deadline_s=0.02))
        time.sleep(0.01)
        follower.sendall(wire.encode_frame(_payload("sad_s8"),
                                           deadline_s=30.0))
        p_leader, _ = _recv_frame(leader)
        p_follower, _ = _recv_frame(follower)
    finally:
        leader.close()
        follower.close()
    assert p_follower["status"] == "ok"
    assert p_follower["batched"] == 2
    assert p_leader["status"] == "rejected"
    assert p_leader["error"] == "DeadlineError"


def test_all_waiters_expired_group_never_runs(stack):
    """When every waiter's budget dies inside the window the group is
    not worth serving: no admission, every waiter classified."""
    svc, gw = stack
    frame = wire.encode_frame(_payload("sad_s8"), deadline_s=0.01)
    socks = [_connect(gw.address) for _ in range(3)]
    try:
        for s in socks:
            s.sendall(frame)
        payloads = [_recv_frame(s)[0] for s in socks]
    finally:
        for s in socks:
            s.close()
    assert all(p["status"] == "rejected" for p in payloads)
    assert all(p["error"] == "DeadlineError" for p in payloads)
    assert svc.admission.stats()["admitted"] == 0


def test_deadline_exact_expiry_boundary():
    """The exactly-at-expiry edge: ``expired()`` is >= (the boundary
    instant IS expired) while ``remaining()`` clamps to 0.0 — so code
    gating on ``remaining() == 0`` and code gating on ``expired()``
    agree at the boundary."""
    now = [100.0]
    d = Deadline(1.5, clock=lambda: now[0])
    assert not d.expired()
    assert d.remaining() == pytest.approx(1.5)
    now[0] = 101.5  # exactly at expiry
    assert d.expired()
    assert d.remaining() == 0.0
    now[0] = 102.0  # past expiry: still clamped, still expired
    assert d.expired()
    assert d.remaining() == 0.0
    none = Deadline(None, clock=lambda: now[0])
    assert not none.expired() and none.remaining() is None


# -- group lifecycle under connection death -----------------------------------


def test_leader_death_mid_window_leaves_no_leak_no_double_answer(stack):
    """The flush timer is owned by the event loop, not the leader's
    connection: killing the leader mid-window must not strand the
    followers, leak the group entry, or double-answer anyone."""
    svc, gw = stack
    frame = wire.encode_frame(_payload("sad_s8"))
    leader = _connect(gw.address)
    followers = [_connect(gw.address) for _ in range(2)]
    try:
        leader.sendall(frame)
        time.sleep(0.01)  # the leader's join opens the group
        for s in followers:
            s.sendall(frame)
        leader.close()  # dies inside the window, before the flush
        replies = [_recv_frame(s) for s in followers]
        # exactly one frame per follower: nothing else may arrive
        for s in followers:
            s.settimeout(0.15)
            try:
                extra = s.recv(1)
            except (socket.timeout, OSError):
                extra = b""
            assert extra == b"", "a waiter was answered twice"
    finally:
        for s in followers:
            s.close()
    payloads = [p for p, _ in replies]
    raws = {raw for _, raw in replies}
    assert [p["status"] for p in payloads] == ["ok", "ok"]
    # the dead leader still counted toward the group it opened
    assert all(p["batched"] == 3 for p in payloads)
    assert len(raws) == 1
    assert gw.stats()["batch_pending"] == 0, "leaked flight group"
    assert svc.admission.stats()["admitted"] == 1


def test_injected_conn_drop_tears_exactly_one_fanout(stack):
    """An injected mid-response ConnDrop during fan-out tears only that
    waiter's connection; the other waiters still read complete,
    identical frames and the batch table stays clean."""
    _, gw = stack
    frame = wire.encode_frame(_payload("sad_s8"))
    socks = [_connect(gw.address) for _ in range(3)]
    torn = 0
    whole = []
    try:
        with faults.injected(faults.FaultPlan(
                [faults.ConnDrop(after_bytes=5, count=1)])):
            for s in socks:
                s.sendall(frame)
            for s in socks:
                try:
                    whole.append(_recv_frame(s))
                except AssertionError:
                    torn += 1
    finally:
        for s in socks:
            s.close()
    assert torn == 1
    assert len(whole) == 2
    assert {raw for _, raw in whole} and len({raw for _, raw in whole}) == 1
    assert all(p["status"] == "ok" for p, _ in whole)
    assert gw.stats()["batch_pending"] == 0
    assert gw.stats()["injected_drops"] == 1


def test_drain_serves_pending_batch(tmp_path):
    """Requests batched before drain began still get complete responses:
    drain flushes open groups instead of abandoning their waiters."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4, queue_limit=32)
    gw = ThreadedGateway(svc, drain_grace_s=0.0,
                         drain_budget_s=15.0, batch_window_s=10.0)
    try:
        s = _connect(gw.address)
        try:
            s.sendall(wire.encode_frame(_payload("sad_s8")))
            # wait until the request has actually joined the group
            deadline = time.perf_counter() + 5.0
            while (gw.stats()["batch_pending"] == 0
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            assert gw.stats()["batch_pending"] == 1
            start = time.perf_counter()
            gw.drain()
            payload, _ = _recv_frame(s)
            elapsed = time.perf_counter() - start
        finally:
            s.close()
        assert payload["status"] == "ok"
        assert payload["batched"] == 1
        assert elapsed < 9.0, "drain waited out the 10s window"
        assert gw.stats()["batch_pending"] == 0
    finally:
        gw.close()
        svc.close()


def test_drain_of_an_expired_group_leaves_no_unread_exception(tmp_path):
    """A group rejected while drain waits on it (every waiter expired
    inside the window) answers its waiter and leaves no asyncio future
    holding an exception nobody read."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4, queue_limit=32)
    gw = ThreadedGateway(svc, drain_grace_s=0.0,
                         drain_budget_s=15.0, batch_window_s=10.0)
    unread = []
    _on_loop(gw, lambda: asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: unread.append(context)))
    try:
        s = _connect(gw.address)
        try:
            s.sendall(wire.encode_frame(_payload("sad_s8"), deadline_s=0.2))
            deadline = time.perf_counter() + 5.0
            while (gw.stats()["batch_pending"] == 0
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            assert gw.stats()["batch_pending"] == 1
            time.sleep(0.3)  # the waiter's budget runs out in the window
            gw.drain()
            payload, _ = _recv_frame(s)
        finally:
            s.close()
        assert payload["status"] == "rejected"
        assert payload["error"] == "DeadlineError"
        assert svc.admission.stats()["admitted"] == 0
        gc.collect()
        assert _on_loop(gw, lambda: list(unread)) == []
    finally:
        gw.close()
        svc.close()


# -- defaults and client accounting -------------------------------------------


def test_batching_off_by_default(tmp_path):
    """``batch_window_s=0`` (the default) keeps the direct dispatch
    path: no ``batched`` key on responses, no group accounting."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=2, queue_limit=16)
    gw = ThreadedGateway(svc, drain_grace_s=0.0)
    c = GatewayClient([gw.address], retries=0)
    try:
        resp = c.compile_run("sad_s8", size=SIZE)
        assert resp["status"] == "ok"
        assert "batched" not in resp
        st = gw.stats()
        assert st["batch.flushed"] == 0 and st["batch_pending"] == 0
        assert c.batched_responses == 0
    finally:
        c.close()
        gw.close()
        svc.close()


def test_client_counts_batched_responses(stack):
    """The client-side evidence of a merge: a response carrying
    ``batched >= 2`` bumps ``batched_responses``."""
    _, gw = stack
    clients = [GatewayClient([gw.address], retries=0, seed=i)
               for i in range(3)]
    barrier = threading.Barrier(3)
    errors = []

    def fire(i):
        try:
            barrier.wait()
            clients[i].compile_run("sad_s8", size=SIZE)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=fire, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    try:
        assert not errors, errors
        assert sum(c.batched_responses for c in clients) == 3
    finally:
        for c in clients:
            c.close()
