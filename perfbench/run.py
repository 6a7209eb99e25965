"""The service benchmark: one command, end to end, with per-layer attribution.

    python3 perfbench/run.py --workload {warm_small,warm_heavy,cold_mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The benchmark starts the
service as users deploy it -- ``repro serve --listen`` with CLI defaults
(``threaded`` engine, no compile farm, batching off), as its own process,
through :mod:`launcher` -- and drives it over the wire from one process
with two client threads, each holding one persistent ``GatewayClient``
connection.  The loop is closed: a client sends its next request when the
previous one is answered.  Requests come from :mod:`schedule`; every
answer is checked (see :class:`Checker`).

``--trace 0`` measures the end-to-end metrics with tracing off: a server
is set up eight times (``setup_s`` is the median), and the last of them
serve the schedule's measured phases, one each.  ``--trace 1`` serves a
schedule of half the length once untraced and once on servers whose
layers are timed by :func:`launcher.install`, and reports per-layer self
times (:func:`spans.layer_table`) plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same numbers for people, with sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import schedule as sched
import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")

SETUPS = 8
#: a run must end within 180 s; clients stop sending at this mark.
GUARD_S = 150.0
SERVER_START_S = 60.0

#: shares of a warm request (percent) that an earlier probe measured
#: with one client and an in-process gateway; the traced run prints its
#: own shares next to them.
PROBE = {
    "warm_small": {"machine.run": 23, "machine.translate": 19, "cache": 15,
                   "verify": 5, "gateway": 30},
    "warm_heavy": {"machine.run": 93},
}


class Server:
    """One ``repro serve --listen`` process started through the launcher."""

    def __init__(self, workdir: str, tag: str, trace: bool = False) -> None:
        self.cache_dir = os.path.join(workdir, f"cache-{tag}")
        self.trace_path = os.path.join(workdir, f"spans-{tag}.json")
        self.log_path = os.path.join(workdir, f"server-{tag}.log")
        cmd = [sys.executable, LAUNCHER]
        if trace:
            cmd += ["--trace-out", self.trace_path]
        cmd += ["--", "serve", "--listen", "127.0.0.1:0",
                "--cache-dir", self.cache_dir]
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=workdir)
        self.started = time.perf_counter()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self.output: list = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.address = self._wait_listening()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip("\n"))
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + SERVER_START_S
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    f"server did not announce LISTENING; see {self.log_path}")
            if line.startswith("LISTENING "):
                return line.split()[1]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()
        return rc


class Checker:
    """Every answer of a run, checked.

    A response is wrong when it is not ``ok``/``degraded``, was not
    checked against numpy by the server, or its cycles or value differ
    from the shape's first answer in the run (``bytecode_bytes``: the
    first answer of the same server process, since raw bytecode embeds
    per-process gensym counters).  After the run, :meth:`reference`
    re-runs every warm shape in this process on the independent
    ``reference`` interpreter and requires the same cycles.
    """

    def __init__(self) -> None:
        self.first: dict = {}
        self.first_bytes: dict = {}
        self.failures: list = []
        self.ref_mismatch: set = set()
        #: shape -> answers that passed :meth:`check`
        self.passed: dict = {}

    def check(self, server_tag, shape, resp, err) -> bool:
        if err is not None:
            return self._fail(shape, f"transport: {err}")
        res = resp.get("result")
        if resp.get("status") not in ("ok", "degraded") or res is None:
            return self._fail(shape, f"status {resp.get('status')} "
                              f"error={resp.get('error')}")
        if not res.get("checked"):
            return self._fail(shape, "server did not check the result")
        answer = (res["cycles"], res["value"])
        first = self.first.setdefault(shape, answer)
        if answer != first:
            return self._fail(shape, f"answer {answer} != first {first}")
        nbytes = self.first_bytes.setdefault((server_tag, shape),
                                             res["bytecode_bytes"])
        if res["bytecode_bytes"] != nbytes:
            return self._fail(shape, f"bytecode_bytes "
                              f"{res['bytecode_bytes']} != first {nbytes}")
        self.passed[shape] = self.passed.get(shape, 0) + 1
        return True

    def _fail(self, shape, why: str) -> bool:
        self.failures.append(f"{'/'.join(map(str, shape))}: {why}")
        return False

    def reference(self, shapes) -> None:
        from repro.harness.flows import FlowRunner
        from repro.kernels import get_kernel

        runner = FlowRunner(engine="reference")
        for shape in shapes:
            inst = get_kernel(shape.kernel).instantiate(shape.size)
            ref = runner.run(inst, shape.flow, shape.target).cycles
            got = self.first.get(shape, (None,))[0]
            if got != ref:
                self.ref_mismatch.add(shape)
                self._fail(shape, f"cycles {got} != reference VM {ref}")


def _request(client, shape):
    t_send = time.perf_counter()
    try:
        resp, err = client.request(shape.payload()), None
    except Exception as exc:  # classified wire/deadline failure: recorded
        resp, err = None, f"{type(exc).__name__}: {exc}"
    return resp, err, t_send, time.perf_counter()


def set_up(workdir, tag, warm_set, checker, trace=False):
    """Start a server and compile the warm set through the wire.

    Returns ``(server, setup_seconds, cold_round_trips, ok_count)``; the
    round trips leave out the process's first request, which pays its
    one-off imports (``setup_seconds`` includes it), so they compare with
    the cold requests ``cold_mix`` sends to a process already serving."""
    from repro.service import GatewayClient

    server = Server(workdir, tag, trace)
    rts, ok = [], 0
    with GatewayClient([server.address]) as client:
        for shape in warm_set:
            resp, err, t_send, t_recv = _request(client, shape)
            rts.append(t_recv - t_send)
            ok += checker.check(tag, shape, resp, err)
    return server, time.perf_counter() - server.started, rts[1:], ok


def measure(server, tag, clients, checker, guard_at):
    """Run one phase (a step list per client) on two closed-loop clients.

    Returns ``(records, t0, t1, attempts)``; a record is ``(step,
    t_send, t_recv, correct, server_attempts)``, per client in order."""
    from repro.service import GatewayClient

    barrier = threading.Barrier(len(clients))
    records = [[] for _ in clients]
    attempts = [0] * len(clients)
    errors: list = []

    def client_loop(c: int) -> None:
        try:
            with GatewayClient([server.address], seed=c) as client:
                for step in clients[c]:
                    if time.perf_counter() > guard_at:
                        break
                    if step.kind == "cold_dup":
                        try:
                            barrier.wait(timeout=60)
                        except threading.BrokenBarrierError:
                            pass
                    resp, err, t_send, t_recv = _request(client, step.shape)
                    records[c].append((step, t_send, t_recv, resp, err))
                attempts[c] = client.attempts
        except BaseException as exc:
            errors.append(exc)
            raise
        finally:
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(c,))
               for c in range(len(clients))]
    # A collector pause in the load generator would land in the round
    # trips it is timing; its garbage is acyclic, so collect it later.
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        t1 = time.perf_counter()
        gc.enable()
    if errors:
        raise RuntimeError(f"client thread failed: {errors[0]!r}")
    out = []
    for recs in records:
        for step, t_send, t_recv, resp, err in recs:
            ok = checker.check(tag, step.shape, resp, err)
            tries = resp.get("attempts", 1) if resp else 1
            out.append((step, t_send, t_recv, ok, tries))
    return out, t0, t1, sum(attempts)


def server_stats(server) -> dict:
    from repro.service import GatewayClient

    with GatewayClient([server.address]) as client:
        return client.stats()


def counts(stats: dict) -> dict:
    """The exact counters of one server, from the ``stats`` verb.

    ``jit.compiles`` is the cache's entries plus evictions: the leader
    of every compile puts exactly one entry (the cache dir starts empty,
    no fault plan is installed, and failed puts are checked to be 0)."""
    svc = stats["service"]
    cache = svc["cache"]
    return {
        "jit.compiles": cache["entries"] + cache["evictions"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "singleflight.leaders": svc["singleflight"]["leaders"],
        "singleflight.followers": svc["singleflight"]["followers"],
        "admission.admitted": svc["admission"]["admitted"],
        "admission.peak_depth": svc["admission"]["peak_depth"],
        "admission.shed": svc["admission"]["shed"],
        "gateway.served": stats["gateway"]["served"],
        "service.degraded": svc["degraded"],
        "service.retries": svc["retries"],
    }


def reconcile(stats: dict, sent: int) -> list:
    """Ways the server's own ledger disagrees with what was sent."""
    gw, svc = stats["gateway"], stats["service"]
    cache = svc["cache"]
    problems = []
    if gw["served"] != sent:
        problems.append(f"gateway served {gw['served']} != sent {sent}")
    for key in ("frame_errors", "rejected_overload", "rejected_drain"):
        if gw[key]:
            problems.append(f"gateway {key} = {gw[key]}")
    if svc["admission"]["shed"]:
        problems.append(f"admission shed = {svc['admission']['shed']}")
    for key in ("put_failures", "quarantined", "oversize_rejects",
                "budget_rejects"):
        if cache[key]:
            problems.append(f"cache {key} = {cache[key]}")
    return problems


def round_trips(records) -> list:
    """Round-trip seconds of ``records``, in the order they were sent."""
    return [r[2] - r[1] for r in sorted(records, key=lambda r: r[1])]


def tail(rts, p: float):
    """``(value_ms, blocks)``: the ``p``-th percentile of round trips
    ``rts`` (in send order), computed per block of consecutive requests
    big enough to leave ten samples beyond it, at most ten blocks, and
    the median over the blocks -- so a few seconds of host stall move
    one block, not the run's figure."""
    n = len(rts)
    k = max(1, min(10, math.floor(n * (100 - p) / 1000 + 1e-9)))
    blocks = [rts[i * n // k:(i + 1) * n // k] for i in range(k)]
    return statistics.median(sp.percentile(b, p) for b in blocks) * 1e3, k


def latency_line(name, rts, tails):
    """``(p50_ms, {p: p_ms}, line)`` for round trips ``rts``."""
    n = len(rts)
    p50 = sp.percentile(rts, 50) * 1e3
    values, notes = {}, []
    for p in tails:
        values[p], blocks = tail(rts, p)
        how = (f"median of {blocks} blocks" if blocks > 1 else
               "one block" if sp.supported(n, p) else
               "fewer than 10 samples beyond")
        notes.append(f"p{p:g} {values[p]:.3f} ms ({how})")
    return p50, values, f"{name}: n={n}, p50 {p50:.3f} ms, " + ", ".join(
        notes)


class Served:
    """What serving a schedule's phases produced (summed over phases)."""

    def __init__(self) -> None:
        self.records: list = []
        self.elapsed = 0.0
        self.attempts = 0
        self.exact: dict = {}
        self.rss = 0.0
        self.spans: list = []
        self.setups: list = []
        #: per set-up, the cold round trips of its warm-set compiles
        self.setup_cold: list = []

    @property
    def req_per_s(self) -> float:
        return sum(r[3] for r in self.records) / self.elapsed


class Run:
    """One benchmark invocation: servers, phases, checks, numbers."""

    def __init__(self) -> None:
        self.guard_at = time.perf_counter() + GUARD_S
        self.workdir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
        self.checker = Checker()
        self.servers: list = []
        self.attempted = 0
        self.correct = 0
        self.problems: list = []

    def start(self, tag, warm_set, trace=False):
        server, secs, rts, ok = set_up(
            self.workdir, tag, warm_set, self.checker, trace)
        self.servers.append(server)
        self.attempted += len(warm_set)
        self.correct += ok
        return server, secs, rts

    def finish(self, server, sent: int):
        stats = server_stats(server)
        self.problems += reconcile(stats, sent)
        rss = server.peak_rss_mb()
        rc = server.stop()
        if rc != 0 or not any(line.startswith("gateway drained")
                              for line in server.output):
            self.problems.append(f"server exited {rc} without draining")
        return stats, rss

    def serve(self, schedule, tag, trace=False, extra_setups=0) -> Served:
        """Set up ``extra_setups`` servers that only time their set-up,
        then one server per phase: set up, run the phase, stop."""
        out = Served()
        warm = schedule.warm_set
        for i in range(extra_setups):
            server, secs, rts = self.start(f"{tag}-setup{i}", warm)
            out.setups.append(secs)
            out.setup_cold.append(rts)
            self.finish(server, len(warm))
        for i, clients in enumerate(schedule.phases):
            ptag = f"{tag}-phase{i}"
            server, secs, rts = self.start(ptag, warm, trace)
            out.setups.append(secs)
            out.setup_cold.append(rts)
            before = counts(server_stats(server))
            recs, t0, t1, attempts = measure(
                server, ptag, clients, self.checker, self.guard_at)
            stats, rss = self.finish(server, len(warm) + len(recs))
            self.attempted += len(recs)
            self.correct += sum(r[3] for r in recs)
            out.records += recs
            out.elapsed += t1 - t0
            out.attempts += attempts
            out.rss = max(out.rss, rss)
            for key, value in counts(stats).items():
                if key == "admission.peak_depth":  # a high-water mark
                    out.exact[key] = max(out.exact.get(key, 0), value)
                else:
                    out.exact[key] = out.exact.get(key, 0) + value - before[key]
            if trace:
                out.spans += sp.in_window(sp.load(server.trace_path), t0, t1)
        sent = sum(len(steps) for phase in schedule.phases for steps in phase)
        if len(out.records) < sent:
            print(f"note: the guard stopped the schedule after "
                  f"{len(out.records)} of {sent} requests")
        return out

    def reference(self, schedule) -> None:
        self.checker.reference(schedule.warm_set)
        # Every answer for a shape the reference VM disagrees with is wrong.
        self.correct -= sum(self.checker.passed.get(s, 0)
                            for s in self.checker.ref_mismatch)

    # -- --trace 0 ------------------------------------------------------------

    def end_to_end(self, schedule) -> dict:
        got = self.serve(schedule, "e2e",
                         extra_setups=SETUPS - len(schedule.phases))
        self.reference(schedule)
        recs = got.records
        warm = round_trips(r for r in recs if r[0].kind == "warm")
        if schedule.cold_shapes:
            cold = round_trips(r for r in recs if r[0].kind != "warm")
            cold_src = "measured phases"
        else:
            # Each set-up compiles every warm-set shape but the first
            # cold once; a shape's median over the set-ups damps host
            # noise, and the percentiles are taken over shapes.
            cold = [statistics.median(x) for x in zip(*got.setup_cold)]
            cold_src = (f"per-shape median over {len(got.setup_cold)} "
                        f"set-ups")
        w50, wt, wline = latency_line("warm round trip", warm, (95, 99))
        c50, ct, cline = latency_line(f"cold round trip ({cold_src})",
                                      cold, (90,))
        cycles = [self.checker.first[s][0] for s in schedule.distinct_shapes()
                  if s in self.checker.first]
        metrics = {
            "setup_s": (statistics.median(got.setups), "s"),
            "req_per_s": (got.req_per_s, "req/s"),
            "warm_p50_ms": (w50, "ms"),
            "warm_p95_ms": (wt[95], "ms"),
            "cold_p50_ms": (c50, "ms"),
            "cold_p90_ms": (ct[90], "ms"),
            "peak_rss_mb": (got.rss, "MB"),
            "sim_cycles_geomean": (sp.geomean(cycles), "cycles"),
        }
        exact = got.exact
        print("set-ups: " + ", ".join(f"{s:.3f}" for s in got.setups) + " s")
        print(f"measured: {len(recs)} requests in {len(schedule.phases)} "
              f"phase(s), {got.elapsed:.3f} s, {got.attempts} client "
              f"attempts")
        print(wline)
        print(cline)
        print(f"sim cycles geomean over {len(cycles)} distinct shapes")
        print("exact counts (measured phases, stats verb): " + ", ".join(
            f"{k}={v}" for k, v in exact.items()))
        if schedule.cold_shapes:
            shapes = len(schedule.cold_shapes) * len(schedule.phases)
            print(f"cold shapes {shapes}: compiles per cold shape "
                  f"{exact['jit.compiles'] / shapes:.3f}; "
                  f"{schedule.count('cold_dup') // 2} sent by both clients, "
                  f"{exact['singleflight.followers']} answered as followers "
                  f"(the rest by cache hits; timing-dependent)")
        return metrics

    # -- --trace 1 ------------------------------------------------------------

    def per_layer(self, schedule) -> dict:
        plain = self.serve(schedule, "plain")
        got = self.serve(schedule, "traced", trace=True)
        self.reference(schedule)
        recs, exact = got.records, got.exact
        requests = [(tuple(r[0].shape), r[1], r[2]) for r in recs]
        table = sp.layer_table(got.spans, requests)
        metrics = {}
        for layer in sp.LAYERS:
            row = table[layer]
            metrics[f"{layer}.calls"] = (row["calls"], "count")
            metrics[f"{layer}.busy_s"] = (row["busy_s"], "s")
            metrics[f"{layer}.p50_ms"] = (row["p50_ms"], "ms")
            metrics[f"{layer}.p99_ms"] = (row["p99_ms"], "ms")
            metrics[f"{layer}.share"] = (row["share"], "ratio")
        spans = got.spans
        payload = sum(s[4] - s[3] for s in spans
                      if s[2] == "wire.response_payload")
        run_busy = table["machine.run"]["busy_s"]
        instructions = sum(s[5] or 0 for s in spans if s[2] == "execute_phase")
        hits, misses = exact["cache.hits"], exact["cache.misses"]
        cold_shapes = len(schedule.cold_shapes) * len(schedule.phases)
        metrics.update({
            "gateway.payload_busy_s": (payload, "s"),
            "client.attempts_per_req": (got.attempts / max(1, len(recs)),
                                        "ratio"),
            "service.attempts_per_req": (
                sum(r[4] for r in recs) / max(1, len(recs)), "ratio"),
            "admission.peak_depth": (exact["admission.peak_depth"], "count"),
            "admission.shed": (exact["admission.shed"], "count"),
            "cache.hit_ratio": (hits / max(1, hits + misses), "ratio"),
            "singleflight.compiles_per_cold_shape": (
                exact["jit.compiles"] / cold_shapes if cold_shapes else 0.0,
                "ratio"),
            "singleflight.followers": (exact["singleflight.followers"],
                                       "count"),
            "jit.compiles": (exact["jit.compiles"], "count"),
            "machine.instructions": (instructions, "count"),
            "machine.ips": (instructions / run_busy if run_busy else 0.0,
                            "1/s"),
            "unattributed.share": (table["unattributed"]["share"], "ratio"),
            "trace.overhead_pct": (
                (plain.req_per_s / got.req_per_s - 1) * 100, "%"),
        })
        print(f"untraced {plain.req_per_s:.1f} req/s, traced "
              f"{got.req_per_s:.1f} req/s, {len(recs)} requests each")
        print(f"{'layer':18s} {'calls':>7s} {'busy_s':>9s} {'p50_ms':>8s} "
              f"{'p99_ms':>8s} {'share':>7s}")
        for layer in sp.LAYERS:
            row = table[layer]
            print(f"{layer:18s} {row['calls']:7d} {row['busy_s']:9.4f} "
                  f"{row['p50_ms']:8.3f} {row['p99_ms']:8.3f} "
                  f"{row['share'] * 100:6.2f}%")
        print(f"unattributed: {table['unattributed']['share'] * 100:.2f}% "
              f"({table['unattributed']['unmatched']} round trips without "
              f"a matching server span)")
        print("exact counts (traced phases, stats verb): " + ", ".join(
            f"{k}={v}" for k, v in exact.items()))
        if table["jit"]["calls"] != exact["jit.compiles"]:
            print(f"note: jit spans {table['jit']['calls']} != compiles "
                  f"from the stats verb {exact['jit.compiles']}")
        probe = PROBE.get(schedule.workload)
        if probe:
            print("vs the earlier probe (one client, in-process gateway): "
                  + ", ".join(
                      f"{k} {table[k]['share'] * 100:.0f}% (probe {v}%)"
                      for k, v in probe.items()))
        return metrics

    def close(self) -> None:
        for server in self.servers:
            if server.proc.poll() is None:
                server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:  # another run is using it
            pass


def catalogue():
    from repro.kernels import all_kernels

    return [(k.name, k.category, k.default_size)
            for k in all_kernels("kernel") + all_kernels("polybench")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sched.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no repro source tree under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)
    # The traced run serves its schedule twice (untraced, then traced),
    # so each pass gets half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    schedule = sched.build(args.workload, args.seed, seconds, catalogue())
    print(f"workload {args.workload} seed {args.seed}: "
          f"{schedule.requests} requests "
          f"({schedule.count('warm')} warm, {schedule.count('cold')} cold, "
          f"{schedule.count('cold_dup')} cold sent by both clients), "
          f"schedule digest {schedule.digest()}")
    run = Run()
    os.makedirs(run.workdir, exist_ok=True)
    try:
        if args.trace:
            metrics = run.per_layer(schedule)
        else:
            metrics = run.end_to_end(schedule)
    finally:
        run.close()
    failed = run.attempted - run.correct
    for line in run.checker.failures[:20] + run.problems:
        print(f"FAIL {line}")
    failed += len(run.problems)
    if not args.trace:
        metrics["correct_frac"] = (
            (run.attempted - failed) / max(1, run.attempted), "ratio")
        print(f"failed_frac: {failed / max(1, run.attempted):.6f} "
              f"({failed} of {run.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
