"""Gateway load benchmark: a heavy-tail mix through the network front door.

PR 7 put a real wire in front of :class:`repro.service.KernelService`
(:mod:`repro.service.gateway`), and this bench measures what that wire
costs under the load shape the paper's deployment story implies: a
**heavy-tail mix** where most requests are warm cache hits on a few hot
kernels and a steady trickle are cold compiles on distinct shapes.  The
cold tail is what makes tail latency interesting — a p99 read off a
warm-only run would be flattery, not measurement.

The driver:

* pre-warms a small hot set, then drives ``--requests`` total requests
  from ``--clients`` threads, each holding its own
  :class:`~repro.service.client.GatewayClient` over a persistent
  connection.  ~80% of requests hit the hot set (warm, served from
  cache), ~20% are cold distinct shapes (unique ``(kernel, target,
  size)`` never seen before), interleaved by a seeded shuffle so every
  run replays the same schedule.
* reads **p50/p99 from the observability spine, not a client-side
  stopwatch**: the gateway records every served request into the
  ``gateway.request_seconds`` histogram (the fine ``LATENCY_BUCKETS``
  exported by :mod:`repro.service.gateway`), and the percentiles here
  are linear interpolation within the straddling bucket — exactly what
  a dashboard would compute from the same counts.
* is honest about its own invariants: every response must be ``ok``,
  hot requests must actually be warm (``from_cache``), the gateway must
  report zero frame errors, the served count must equal the offered
  count, and the service's admission queue must have shed nothing (its
  ``queue_limit`` is the wire's only load bound).

Standalone::

    PYTHONPATH=src python benchmarks/bench_gateway.py --out BENCH_gateway.json

or through pytest-benchmark (``pytest benchmarks/bench_gateway.py``).
``--quick`` shrinks the schedule for CI smoke.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import threading
import time

#: the hot set: 80% of traffic lands on these warm shapes.
HOT_SHAPES = (
    ("saxpy_fp", "sse", 64),
    ("dscal_fp", "sse", 64),
    ("saxpy_fp", "neon", 64),
)
#: cold requests cycle kernels/targets with a distinct size per request,
#: so every cold request is a genuinely new cache key.
COLD_KERNELS = ("interp_fp", "sfir_fp", "dissolve_fp")
COLD_TARGETS = ("sse", "neon")
FLOW = "split_vec_gcc4cli"
HOT_FRACTION = 0.8

REQUESTS = 400
CLIENTS = 8
QUICK_REQUESTS = 60
QUICK_CLIENTS = 4

#: identical-mix stampede row: N clients fire the *same* cold shape
#: concurrently, per round over fresh shapes.  With the pre-admission
#: batcher on, each round must cost one admission slot and one compile.
STAMPEDE_CLIENTS = 8
STAMPEDE_ROUNDS = 4  # at most len(COLD_KERNELS) * len(COLD_TARGETS)
QUICK_STAMPEDE_ROUNDS = 2
STAMPEDE_WINDOW_S = 0.025


def _schedule(n_requests: int, seed: int):
    """The deterministic request schedule: ~80% hot, ~20% cold distinct.

    Cold shapes get sizes no warm shape uses (odd sizes starting at 17),
    each one unique, so a cold request can never be accidentally warm.
    """
    n_cold = max(1, round(n_requests * (1.0 - HOT_FRACTION)))
    n_hot = n_requests - n_cold
    rng = random.Random(seed)
    reqs = []
    for i in range(n_hot):
        k, t, s = HOT_SHAPES[i % len(HOT_SHAPES)]
        reqs.append({"kind": "hot", "kernel": k, "target": t, "size": s})
    for i in range(n_cold):
        reqs.append({
            "kind": "cold",
            "kernel": COLD_KERNELS[i % len(COLD_KERNELS)],
            "target": COLD_TARGETS[i % len(COLD_TARGETS)],
            "size": 17 + 2 * i,
        })
    rng.shuffle(reqs)
    return reqs


def percentile_from_histogram(hist: dict, q: float):
    """``q``-th percentile (0..1) from a bucketed histogram snapshot.

    ``counts[i]`` counts observations ``<= bounds[i]`` (final slot is
    the +Inf overflow).  Linear interpolation inside the straddling
    bucket; the overflow bucket interpolates toward the recorded max.
    This is the same estimate a metrics backend computes from the same
    counts — the point of reading latency off the spine instead of a
    private stopwatch.
    """
    total = hist["count"]
    if not total:
        return None
    bounds, counts = hist["bounds"], hist["counts"]
    observed_max = hist["max"]
    target = q * total
    cum = 0.0
    lo = 0.0
    for i, c in enumerate(counts):
        if c and cum + c >= target:
            if i < len(bounds):
                hi = bounds[i]
            else:  # overflow bucket: cap at the observed max
                hi = observed_max if observed_max is not None else lo
            est = lo + (target - cum) / c * (max(hi, lo) - lo)
            # Interpolation can overshoot the true tail inside a sparse
            # bucket; the recorded max is a hard ceiling.
            return min(est, observed_max) if observed_max is not None else est
        cum += c
        if i < len(bounds):
            lo = bounds[i]
    return observed_max


def _drive(address, schedule, n_clients: int, seed: int):
    """Fan the schedule across ``n_clients`` persistent-connection
    clients; returns (elapsed_s, per-kind response tallies, errors)."""
    from repro.service.client import GatewayClient

    chunks = [schedule[i::n_clients] for i in range(n_clients)]
    tallies = []
    errors = []
    lock = threading.Lock()

    def worker(idx: int, chunk) -> None:
        tally = {"hot": 0, "cold": 0, "hot_warm": 0, "not_ok": []}
        client = GatewayClient(
            [address], retries=2, backoff_base=0.005, backoff_cap=0.1,
            seed=seed + idx,
        )
        try:
            for req in chunk:
                resp = client.compile_run(
                    req["kernel"], flow=FLOW, target=req["target"],
                    size=req["size"],
                )
                tally[req["kind"]] += 1
                if resp.get("status") != "ok":
                    tally["not_ok"].append(
                        (resp.get("status"), resp.get("error"))
                    )
                elif req["kind"] == "hot" and resp.get("from_cache"):
                    tally["hot_warm"] += 1
        except Exception as exc:  # surfaced, never swallowed
            with lock:
                errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
        finally:
            client.close()
        with lock:
            tallies.append(tally)

    threads = [
        threading.Thread(target=worker, args=(i, chunk), daemon=True)
        for i, chunk in enumerate(chunks) if chunk
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    merged = {"hot": 0, "cold": 0, "hot_warm": 0, "not_ok": []}
    for t in tallies:
        merged["hot"] += t["hot"]
        merged["cold"] += t["cold"]
        merged["hot_warm"] += t["hot_warm"]
        merged["not_ok"].extend(t["not_ok"])
    return elapsed, merged, errors


def measure(n_requests=REQUESTS, n_clients=CLIENTS, seed=0,
            trace_out=None):
    """One full load run; returns the BENCH_gateway.json payload."""
    from repro import obs
    from repro.service import KernelService, ThreadedGateway
    from repro.service.client import GatewayClient

    schedule = _schedule(n_requests, seed)
    n_hot = sum(1 for r in schedule if r["kind"] == "hot")
    n_cold = len(schedule) - n_hot

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-gw-")
    try:
        with obs.recording(trace=trace_out is not None, metrics=True) as ob:
            svc = KernelService(
                cache_dir=cache_dir, workers=max(8, n_clients),
                farm_workers=0, queue_limit=max(64, n_requests),
            )
            gw = ThreadedGateway(svc)
            try:
                address = "%s:%d" % gw.address
                # Pre-warm the hot set through the wire (not counted).
                warmup = GatewayClient([address], seed=seed)
                for k, t, s in HOT_SHAPES:
                    resp = warmup.compile_run(k, flow=FLOW, target=t, size=s)
                    assert resp["status"] == "ok", resp
                warmup.close()
                warm_hist = ob.metrics_snapshot().get(
                    "gateway.request_seconds", {"count": 0}
                )
                warm_served = warm_hist["count"]

                elapsed, tally, errors = _drive(
                    address, schedule, n_clients, seed
                )
                gw_stats = gw.stats()
                adm = svc.admission.stats()
            finally:
                gw.close()
                svc.close()
            hist = ob.metrics_snapshot()["gateway.request_seconds"]
            if trace_out is not None:
                ob.write_trace(trace_out)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Subtract the warmup requests so percentiles cover the load run
    # only where possible; counts are cumulative, so report both.
    load_count = hist["count"] - warm_served
    assert not errors, errors
    assert not tally["not_ok"], tally["not_ok"]
    assert load_count == n_requests, (load_count, n_requests)
    assert gw_stats["frame_errors"] == 0, gw_stats
    assert adm["shed"] == 0, adm

    return {
        "benchmark": "gateway",
        "flow": FLOW,
        "requests": n_requests,
        "clients": n_clients,
        "seed": seed,
        "hot": {
            "offered": n_hot,
            "served": tally["hot"],
            "warm_hits": tally["hot_warm"],
            "shapes": [list(s) for s in HOT_SHAPES],
        },
        "cold": {"offered": n_cold, "served": tally["cold"]},
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(n_requests / elapsed, 1),
        "latency": {
            "source": "gateway.request_seconds histogram "
                      "(bucket interpolation; includes warmup in counts)",
            "count": hist["count"],
            "p50_ms": round(
                percentile_from_histogram(hist, 0.50) * 1e3, 3),
            "p90_ms": round(
                percentile_from_histogram(hist, 0.90) * 1e3, 3),
            "p99_ms": round(
                percentile_from_histogram(hist, 0.99) * 1e3, 3),
            "mean_ms": round(hist["sum"] / hist["count"] * 1e3, 3),
            "max_ms": round(hist["max"] * 1e3, 3),
        },
        "gateway": {
            "served": gw_stats["served"],
            "rejected_drain": gw_stats["rejected_drain"],
            "frame_errors": gw_stats["frame_errors"],
            "conn_resets": gw_stats["conn_resets"],
            "connections": gw_stats["connections"],
        },
        "admission": {
            "peak_depth": adm["peak_depth"],
            "limit": adm["limit"],
            "shed": adm["shed"],
        },
    }


def _stampede_once(n_clients: int, rounds: int, seed: int,
                   batch_window_s: float) -> dict:
    """One stampede run: per round, ``n_clients`` concurrent identical
    cold requests; returns tallies read off the observability spine."""
    from repro import obs
    from repro.service import KernelService, ThreadedGateway
    from repro.service.client import GatewayClient
    from repro.service.wire import encode_payload

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-stampede-")
    try:
        with obs.recording(trace=False, metrics=True) as ob:
            svc = KernelService(
                cache_dir=cache_dir, workers=max(8, n_clients),
                farm_workers=0, queue_limit=max(64, 4 * n_clients),
            )
            gw = ThreadedGateway(svc, batch_window_s=batch_window_s)
            try:
                address = "%s:%d" % gw.address
                clients = [
                    GatewayClient([address], retries=2, seed=seed + i)
                    for i in range(n_clients)
                ]
                # Establish every connection up front so the TCP
                # handshake never eats into the batch window.
                for c in clients:
                    assert c.ready()
                identical = 0
                start = time.perf_counter()
                for r in range(rounds):
                    # Size is a run-time argument, not part of the
                    # bytecode, so a new size alone is no new cache key:
                    # each round takes a (kernel, target) pair of its own.
                    kernel = COLD_KERNELS[r % len(COLD_KERNELS)]
                    target = COLD_TARGETS[
                        r // len(COLD_KERNELS) % len(COLD_TARGETS)
                    ]
                    size = 101 + 2 * r  # odd, never warmed elsewhere
                    results = [None] * n_clients
                    errors = []
                    barrier = threading.Barrier(n_clients)

                    def fire(i, kernel=kernel, target=target, size=size,
                             results=results, errors=errors,
                             barrier=barrier):
                        try:
                            barrier.wait()
                            results[i] = clients[i].compile_run(
                                kernel, flow=FLOW, target=target, size=size,
                            )
                        except Exception as exc:  # surfaced below
                            errors.append(
                                f"client {i}: {type(exc).__name__}: {exc}"
                            )

                    threads = [
                        threading.Thread(target=fire, args=(i,), daemon=True)
                        for i in range(n_clients)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join()
                    assert not errors, errors
                    statuses = [r.get("status") for r in results]
                    assert statuses == ["ok"] * n_clients, statuses
                    # The stampede-proof byte-identity check: every
                    # waiter of the round saw the same canonical payload.
                    if len({encode_payload(r) for r in results}) == 1:
                        identical += 1
                elapsed = time.perf_counter() - start
                for c in clients:
                    c.close()
                gw_stats = gw.stats()
                adm = svc.admission.stats()
            finally:
                gw.close()
                svc.close()
            snap = ob.metrics_snapshot()
            hist = snap.get("gateway.request_seconds", {"count": 0})
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    total = rounds * n_clients
    assert gw_stats["frame_errors"] == 0, gw_stats
    assert hist["count"] == total, (hist["count"], total)
    p99 = percentile_from_histogram(hist, 0.99)
    return {
        "batch_window_ms": round(batch_window_s * 1e3, 3),
        "rounds": rounds,
        "clients": n_clients,
        "requests": total,
        "identical_payload_rounds": identical,
        "compiles": snap.get("jit.compiles", {}).get("value", 0),
        "admitted": adm["admitted"],
        "batch_merged": gw_stats["batch.merged"],
        "batch_flushed": gw_stats["batch.flushed"],
        "elapsed_s": round(elapsed, 4),
        "p50_ms": round(percentile_from_histogram(hist, 0.50) * 1e3, 3),
        "p99_ms": round(p99 * 1e3, 3) if p99 is not None else None,
    }


def measure_stampede(n_clients=STAMPEDE_CLIENTS, rounds=STAMPEDE_ROUNDS,
                     seed=0) -> dict:
    """The identical-mix stampede row: the same storm twice — batched
    (one admission slot + one compile per round) vs. unbatched (one
    admission slot per *client*; single-flight still dedups compiles).

    The batched run must prove the merge: exactly ``rounds`` admissions
    and ``rounds`` compiles for ``rounds * n_clients`` requests, with
    byte-identical payloads inside every round.
    """
    batched = _stampede_once(n_clients, rounds, seed,
                             batch_window_s=STAMPEDE_WINDOW_S)
    unbatched = _stampede_once(n_clients, rounds, seed,
                               batch_window_s=0.0)

    # The stampede proof (acceptance criteria): per round of N identical
    # requests, the batched gateway spends one admission slot and one
    # compile, and every waiter reads the same bytes.
    assert batched["compiles"] == rounds, batched
    assert batched["admitted"] == rounds, batched
    assert batched["batch_merged"] == rounds * (n_clients - 1), batched
    assert batched["identical_payload_rounds"] == rounds, batched
    # Unbatched: every client burns its own admission slot (single-
    # flight still coalesces the compiles downstream).
    assert unbatched["admitted"] == rounds * n_clients, unbatched
    assert unbatched["compiles"] == rounds, unbatched

    return {
        "clients_per_round": n_clients,
        "rounds": rounds,
        "admissions_per_round": {
            "batched": batched["admitted"] / rounds,
            "unbatched": unbatched["admitted"] / rounds,
        },
        "stampede_ratio": n_clients / (batched["admitted"] / rounds),
        "batched": batched,
        "unbatched": unbatched,
    }


def _print(payload) -> None:
    lat = payload["latency"]
    hot, cold = payload["hot"], payload["cold"]
    print(f"gateway load: {payload['requests']} requests "
          f"({hot['offered']} hot / {cold['offered']} cold) from "
          f"{payload['clients']} clients -> "
          f"{payload['throughput_rps']:.1f} req/s")
    print(f"  hot warm hits: {hot['warm_hits']}/{hot['served']}")
    print(f"  latency (from gateway.request_seconds): "
          f"p50={lat['p50_ms']:.2f}ms p90={lat['p90_ms']:.2f}ms "
          f"p99={lat['p99_ms']:.2f}ms max={lat['max_ms']:.2f}ms")
    gw, adm = payload["gateway"], payload["admission"]
    print(f"  admission: peak_depth={adm['peak_depth']}/{adm['limit']}, "
          f"sheds={adm['shed']}; gateway frame_errors="
          f"{gw['frame_errors']}")
    st = payload.get("stampede")
    if st:
        b, u = st["batched"], st["unbatched"]
        print(f"  stampede ({st['clients_per_round']} clients x "
              f"{st['rounds']} identical rounds): "
              f"batched {b['admitted']} admissions / {b['compiles']} "
              f"compiles (p99={b['p99_ms']:.2f}ms) vs unbatched "
              f"{u['admitted']} admissions / {u['compiles']} compiles "
              f"(p99={u['p99_ms']:.2f}ms); "
              f"ratio {st['stampede_ratio']:.1f}x")


def test_gateway_stampede(benchmark):
    """pytest-benchmark entry: the identical-mix stampede proof."""
    from conftest import once

    st = once(
        benchmark,
        lambda: measure_stampede(STAMPEDE_CLIENTS, QUICK_STAMPEDE_ROUNDS,
                                 seed=0),
    )
    benchmark.extra_info["stampede_ratio"] = st["stampede_ratio"]
    assert st["stampede_ratio"] >= 4.0, st


def test_gateway_latency(benchmark):
    """pytest-benchmark entry: quick heavy-tail run, spine percentiles."""
    from conftest import once

    payload = once(
        benchmark,
        lambda: measure(QUICK_REQUESTS, QUICK_CLIENTS, seed=0),
    )
    print()
    _print(payload)
    benchmark.extra_info["p99_ms"] = payload["latency"]["p99_ms"]
    # Every hot request after pre-warm must actually be warm, the tail
    # must be ordered (p50 <= p99), and the wire must stay clean.
    assert payload["hot"]["warm_hits"] == payload["hot"]["served"]
    assert payload["latency"]["p50_ms"] <= payload["latency"]["p99_ms"]
    assert payload["gateway"]["frame_errors"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_gateway.json")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also write the gateway trace (JSONL spans)")
    parser.add_argument("--quick", action="store_true",
                        help="small schedule (CI smoke)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="exit non-zero if p99 exceeds this")
    parser.add_argument("--min-stampede-ratio", type=float, default=None,
                        help="exit non-zero if the identical-mix batched "
                        "run admits more than clients/RATIO requests per "
                        "round")
    args = parser.parse_args(argv)

    n_requests = args.requests or (QUICK_REQUESTS if args.quick else REQUESTS)
    n_clients = args.clients or (QUICK_CLIENTS if args.quick else CLIENTS)
    payload = measure(n_requests, n_clients, seed=args.seed,
                      trace_out=args.trace_out)
    rounds = QUICK_STAMPEDE_ROUNDS if args.quick else STAMPEDE_ROUNDS
    payload["stampede"] = measure_stampede(
        STAMPEDE_CLIENTS, rounds, seed=args.seed
    )
    _print(payload)

    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    if args.trace_out:
        print(f"wrote {args.trace_out}")

    p99 = payload["latency"]["p99_ms"]
    if args.max_p99_ms is not None and p99 > args.max_p99_ms:
        print(f"FAIL: p99 {p99:.2f}ms > {args.max_p99_ms:.2f}ms",
              file=sys.stderr)
        return 1
    ratio = payload["stampede"]["stampede_ratio"]
    if args.min_stampede_ratio is not None and (
            ratio < args.min_stampede_ratio):
        print(f"FAIL: stampede ratio {ratio:.1f}x < "
              f"{args.min_stampede_ratio:.1f}x "
              f"(batched identical mix admitted too much)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
