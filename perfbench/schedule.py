"""Seeded request schedules for the service benchmark.

A schedule is what the two closed-loop clients send, in order, in one
or more phases (each served by a fresh server).  It is a pure function
of ``(workload, seed, seconds)`` and the kernel catalogue: every random
choice comes from :class:`random.Random` seeded through
CRC-32 (``hash()`` is salted per process and would change the requests
from one run to the next), and :meth:`Schedule.digest` fingerprints the
whole request list so two runs can be shown to replay the same
requests.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``warm_small``
    the 12 shapes {saxpy,dscal,dissolve,sfir}_fp x {sse,neon,altivec}
    at size 64, all compiled during set-up; each client sends rounds of
    a seeded permutation of them.
``warm_heavy``
    saxpy/dissolve/sfir/interp/MMM_fp on sse plus the first four on
    neon, at suite default sizes; seeded rounds as above.
``cold_mix``
    about one request in four is a shape never seen in the run: a
    kernel-stratified draw (every kernel equally often) of
    kernel x {sse,neon,altivec,avx} x {split_vec_gcc4cli,
    split_vec_mono, native_vec}, each with its own small size.  Half of
    these shapes are sent by both clients at the same schedule position
    (the clients meet at a barrier there, so the two requests race into
    the service's single-flight table); the rest go to one client.  The
    other requests are ``warm_small``'s shapes.  The shapes and the
    halves are one fixed draw; the seed orders and places them.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

DEFAULT_FLOW = "split_vec_gcc4cli"
CLIENTS = 2


class Shape(NamedTuple):
    """The request fields that decide what the service compiles."""

    kernel: str
    flow: str
    target: str
    size: int | None

    def payload(self) -> dict:
        return {"op": "compile", "kernel": self.kernel, "flow": self.flow,
                "target": self.target, "size": self.size}


class Step(NamedTuple):
    """One request of one client: ``kind`` is ``warm``, ``cold`` (a new
    shape only this client sends) or ``cold_dup`` (a new shape both
    clients send at this position, after meeting at a barrier)."""

    shape: Shape
    kind: str


WARM_SMALL = [
    Shape(k, DEFAULT_FLOW, t, 64)
    for k in ("saxpy_fp", "dscal_fp", "dissolve_fp", "sfir_fp")
    for t in ("sse", "neon", "altivec")
]

#: MMM_fp stays off neon: one request there takes ~135 ms and would
#: drown every other shape of the workload.
WARM_HEAVY = [
    Shape(k, DEFAULT_FLOW, "sse", None)
    for k in ("saxpy_fp", "dissolve_fp", "sfir_fp", "interp_fp", "MMM_fp")
] + [
    Shape(k, DEFAULT_FLOW, "neon", None)
    for k in ("saxpy_fp", "dissolve_fp", "sfir_fp", "interp_fp")
]

COLD_TARGETS = ("sse", "neon", "altivec", "avx")
COLD_FLOWS = ("split_vec_gcc4cli", "split_vec_mono", "native_vec")

WORKLOADS = ("warm_small", "warm_heavy", "cold_mix")

#: Requests per client per second of ``--seconds`` for the warm
#: workloads: sized so one run lasts about ``--seconds`` on a 2-vCPU
#: VM at the commit that introduced the benchmark.  The schedule is
#: fixed-length (not "send until the clock runs out") so every count —
#: requests, compiles, cache hits — repeats exactly for one seed.
WARM_RATE = {"warm_small": 270, "warm_heavy": 55}
#: never-seen shapes per kernel in ``cold_mix``: every fresh (flow,
#: target) pair a warm-set kernel has left (12 - 3).
COLD_PER_KERNEL = 9
#: seconds one ``cold_mix`` phase takes on the VM it was sized on; a run
#: has ``round(seconds / COLD_PHASE_S)`` phases (at least one), each on
#: a fresh server, since one server can see each shape new only once.
COLD_PHASE_S = 13
#: the printed p99 needs ten samples beyond it: >= 1000 warm requests.
MIN_WARM_REQUESTS = 1000


def cold_sizes(name: str, category: str, default_size: int) -> list[int]:
    """Small problem sizes for a kernel's never-seen shapes.

    Small so the VM run stays a minor share of a cold request; at least
    nine of them so each cold shape of a kernel can get its own size
    (a new size re-runs the offline stage even where the bytecode does
    not depend on it).  Size 64, the warm set's size, is never used.
    """
    if name == "doitgen_fp":  # O(n^4): keep it tiny
        return list(range(3, 12))
    if category == "polybench" or name == "MMM_fp":
        return list(range(4, 13))
    if name == "convolve_s32":  # size does not change its work
        return list(range(8, 41, 4))
    if default_size >= 128:
        return list(range(16, 64, 4))
    return list(range(8, 35, 3))


def _rng(*parts) -> random.Random:
    key = ":".join(str(p) for p in parts).encode()
    return random.Random(zlib.crc32(key))


@dataclass
class Schedule:
    workload: str
    seed: int
    #: shapes compiled during set-up (and the warm requests' pool).
    warm_set: list
    #: one entry per measured phase, each served by a fresh server: a
    #: list of :class:`Step` lists, one per client.
    phases: list
    #: the never-seen shapes (``cold_mix`` only).
    cold_shapes: list = field(default_factory=list)

    def digest(self) -> str:
        """CRC-32 of the canonical request list (every phase and client,
        in order)."""
        doc = [[[[list(s.shape), s.kind] for s in steps] for steps in phase]
               for phase in self.phases]
        data = json.dumps([self.workload, doc], separators=(",", ":"))
        return f"{zlib.crc32(data.encode()) & 0xFFFFFFFF:08x}"

    def steps(self):
        return [s for phase in self.phases for steps in phase for s in steps]

    def count(self, kind: str) -> int:
        return sum(s.kind == kind for s in self.steps())

    @property
    def requests(self) -> int:
        return len(self.steps())

    def distinct_shapes(self) -> list:
        return list(self.warm_set) + list(self.cold_shapes)


def _warm_rounds(warm_set, n_per_client, workload, seed):
    clients = []
    rounds = math.ceil(n_per_client / len(warm_set))
    for c in range(CLIENTS):
        rng = _rng(workload, seed, "client", c)
        steps = []
        for _ in range(rounds):
            order = list(warm_set)
            rng.shuffle(order)
            steps.extend(Step(s, "warm") for s in order)
        clients.append(steps)
    return clients


def draw_cold_shapes(catalogue, per_kernel: int, exclude=()) -> list:
    """``per_kernel`` never-seen shapes for every kernel of ``catalogue``
    (``(name, category, default_size)`` triples), interleaved so every
    prefix of the list spreads over the kernels.  Each shape has a new
    (kernel, flow, target) combination and a size no other shape of
    that kernel uses.

    The draw does not depend on the run's seed: every run compiles the
    same code, so ``sim_cycles_geomean`` is exact across seeds and the
    cold latencies differ only by order and timing."""
    rng = _rng("cold_mix", "shapes")
    taken = {(s.kernel, s.flow, s.target) for s in exclude}
    per = {}
    for name, category, default_size in catalogue:
        combos = [(t, f) for t in COLD_TARGETS for f in COLD_FLOWS
                  if (name, f, t) not in taken]
        sizes = cold_sizes(name, category, default_size)
        if per_kernel > min(len(combos), len(sizes)):
            raise ValueError(
                f"{name}: cannot draw {per_kernel} distinct cold shapes"
            )
        combos = rng.sample(combos, per_kernel)
        sizes = rng.sample(sizes, per_kernel)
        per[name] = [Shape(name, f, t, n) for (t, f), n in zip(combos, sizes)]
    names = [name for name, _c, _d in catalogue]
    shapes = []
    for i in range(per_kernel):
        rng.shuffle(names)
        shapes.extend(per[name][i] for name in names)
    return shapes


def _cold_mix(cold, seed):
    """One phase of ``cold_mix``: a step list per client.

    The first half of ``cold`` is sent by both clients, the rest by one;
    ``seed`` orders each half and places every request."""
    rng = _rng("cold_mix", seed, "positions")
    half = len(cold) // 2
    dups, singles = cold[:half], cold[half:]
    rng.shuffle(dups)
    rng.shuffle(singles)
    # Each client sends every dup plus half the singles; one request in
    # four is cold, so a client's list is four times its cold count.
    own = [singles[c::CLIENTS] for c in range(CLIENTS)]
    length = 4 * max(len(dups) + len(o) for o in own)
    dup_pos = sorted(rng.sample(range(length), len(dups)))
    free = sorted(set(range(length)) - set(dup_pos))
    clients = []
    for c in range(CLIENTS):
        crng = _rng("cold_mix", seed, "client", c)
        steps = [None] * length
        for pos, shape in zip(dup_pos, dups):
            steps[pos] = Step(shape, "cold_dup")
        for pos, shape in zip(sorted(crng.sample(free, len(own[c]))), own[c]):
            steps[pos] = Step(shape, "cold")
        for i, step in enumerate(steps):
            if step is None:
                steps[i] = Step(crng.choice(WARM_SMALL), "warm")
        clients.append(steps)
    return clients


def build(workload: str, seed: int, seconds: float, catalogue=()) -> Schedule:
    """The schedule of one run (``catalogue`` is needed by ``cold_mix``)."""
    if workload in WARM_RATE:
        warm_set = WARM_SMALL if workload == "warm_small" else WARM_HEAVY
        n = max(WARM_RATE[workload] * seconds,
                MIN_WARM_REQUESTS / CLIENTS)
        return Schedule(workload, seed, list(warm_set),
                        [_warm_rounds(warm_set, n, workload, seed)])
    if workload == "cold_mix":
        if not catalogue:
            raise ValueError("cold_mix needs the kernel catalogue")
        cold = draw_cold_shapes(catalogue, COLD_PER_KERNEL,
                                exclude=WARM_SMALL)
        phases = [_cold_mix(cold, f"{seed}.{phase}")
                  for phase in range(max(1, round(seconds / COLD_PHASE_S)))]
        return Schedule(workload, seed, list(WARM_SMALL), phases, cold)
    raise ValueError(f"unknown workload {workload!r}")
