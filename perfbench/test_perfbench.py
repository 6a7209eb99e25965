"""Tests of the benchmark's own logic (no server is started).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import schedule as sched
import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: a stand-in kernel catalogue: (name, category, default_size)
CATALOGUE = [(f"k{i}", "kernel", 512) for i in range(6)] + [
    ("saxpy_fp", "kernel", 512), ("dscal_fp", "kernel", 512),
    ("p0", "polybench", 16), ("doitgen_fp", "polybench", 8),
]


# -- schedules ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sched.WORKLOADS)
def test_same_seed_same_digest(workload):
    a = sched.build(workload, 7, 2, CATALOGUE)
    b = sched.build(workload, 7, 2, CATALOGUE)
    c = sched.build(workload, 8, 2, CATALOGUE)
    assert a.digest() == b.digest()
    assert a.phases == b.phases
    assert a.digest() != c.digest()


def test_digest_does_not_depend_on_hash_seed():
    code = ("import schedule as s; "
            "print(s.build('cold_mix', 3, 2, %r).digest())" % (CATALOGUE,))
    digests = set()
    for hash_seed in ("0", "1", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=HERE)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_warm_workloads_meet_the_p99_floor():
    for workload in ("warm_small", "warm_heavy"):
        s = sched.build(workload, 1, 1, CATALOGUE)
        assert s.count("warm") == s.requests >= sched.MIN_WARM_REQUESTS
        assert sp.supported(s.count("warm"), 99)
        # rounds are permutations: every shape equally often
        [phase] = s.phases
        for steps in phase:
            counts = {sh: 0 for sh in s.warm_set}
            for step in steps:
                counts[step.shape] += 1
            assert len(set(counts.values())) == 1


def test_cold_mix_structure():
    sys.path.insert(0, SRC)
    import run

    s = sched.build("cold_mix", 5, 2, run.catalogue())
    [(a, b)] = s.phases
    assert len(a) == len(b)
    cold = s.count("cold") + s.count("cold_dup")
    assert sp.supported(cold, 90)
    assert s.count("warm") >= sched.MIN_WARM_REQUESTS
    assert abs(cold / s.requests - 0.25) < 0.01
    # duplicated shapes sit at the same position in both clients
    for x, y in zip(a, b):
        assert (x.kind == "cold_dup") == (y.kind == "cold_dup")
        if x.kind == "cold_dup":
            assert x.shape == y.shape
    # every cold shape is sent exactly once per client that owns it
    sent = [st.shape for st in s.steps() if st.kind != "warm"]
    assert sorted(set(sent)) == sorted(s.cold_shapes)
    assert len(sent) == 1.5 * len(s.cold_shapes)
    # never seen: a fresh (kernel, flow, target) and a fresh size each
    combos = {(sh.kernel, sh.flow, sh.target) for sh in s.cold_shapes}
    sizes = {(sh.kernel, sh.size) for sh in s.cold_shapes}
    assert len(combos) == len(sizes) == len(s.cold_shapes)
    warm = {(sh.kernel, sh.flow, sh.target) for sh in sched.WARM_SMALL}
    assert not combos & warm
    # the first half of the fixed draw is the duplicated half
    dup = {st.shape for st in a if st.kind == "cold_dup"}
    assert dup == set(s.cold_shapes[:len(s.cold_shapes) // 2])
    # stratified: every kernel equally often
    per = {}
    for sh in s.cold_shapes:
        per[sh.kernel] = per.get(sh.kernel, 0) + 1
    assert len(per) == len(run.catalogue()) and set(per.values()) == {9}


def test_cold_mix_phases_reorder_one_shape_set():
    sys.path.insert(0, SRC)
    import run

    one = sched.build("cold_mix", 5, sched.COLD_PHASE_S, run.catalogue())
    two = sched.build("cold_mix", 5, 2 * sched.COLD_PHASE_S, run.catalogue())
    other = sched.build("cold_mix", 6, sched.COLD_PHASE_S, run.catalogue())
    assert len(one.phases) == 1 and len(two.phases) == 2
    assert two.phases[0] == one.phases[0] != two.phases[1]
    # the seed reorders the one fixed draw of never-seen shapes
    assert other.cold_shapes == one.cold_shapes
    assert other.phases != one.phases


# -- statistics -----------------------------------------------------------------


def test_ten_samples_beyond_rule():
    assert sp.supported(1000, 99) and not sp.supported(999, 99)
    assert sp.supported(100, 90) and not sp.supported(99, 90)
    assert sp.supported(20, 50) and not sp.supported(19, 50)


def test_tail_is_a_median_over_blocks():
    sys.path.insert(0, SRC)
    import run

    # 10 blocks of 1000 round trips in send order; one block stalls
    rts = [0.050 if 3000 <= i < 4000 else 0.001 + (i % 100) * 1e-5
           for i in range(10_000)]
    value, blocks = run.tail(rts, 99)
    assert blocks == 10
    assert value == pytest.approx(sp.percentile(rts[:1000], 99) * 1e3)
    assert sp.percentile(rts, 99) * 1e3 > 10 * value  # pooled: the stall
    # too few samples for ten beyond p99: one block, plain percentile
    assert run.tail(rts[:999], 99) == (
        pytest.approx(sp.percentile(rts[:999], 99) * 1e3), 1)
    records = [(None, 2.0, 2.5), (None, 1.0, 1.25)]
    assert run.round_trips(records) == [0.25, 0.5]


def test_percentile_interpolates():
    xs = list(range(1, 101))
    assert sp.percentile(xs, 50) == pytest.approx(50.5)
    assert sp.percentile(xs, 99) == pytest.approx(99.01)
    assert sp.percentile([], 50) == 0.0
    assert sp.geomean([1, 100]) == pytest.approx(10)


# -- self time and attribution --------------------------------------------------


def _span(sid, parent, name, start, end, extra=None):
    return (sid, parent, name, start, end, extra)


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, 0, "KernelService.handle", 0.0, 10.0),
        _span(2, 1, "KernelCache.get", 1.0, 3.0),
        _span(3, 1, "execute_phase", 4.0, 8.0),
        _span(4, 3, "CompiledKernel.translated", 4.0, 5.0),
        # overlapping children are covered once, not twice
        _span(5, 0, "FlowRunner.split_ir", 20.0, 30.0),
        _span(6, 5, "FlowRunner.vectorized_ir", 21.0, 24.0),
        _span(7, 5, "FlowRunner.bytecode_sizes", 22.0, 25.0),
    ]
    own = sp.self_times(spans)
    assert own[1] == pytest.approx(10 - 2 - 4)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(1)
    assert own[5] == pytest.approx(10 - 4)


def test_same_layer_chain_is_one_call():
    spans = [
        _span(1, 0, "KernelService.handle", 0.0, 10.0),
        _span(2, 1, "KernelCache.get", 1.0, 4.0),
        _span(3, 2, "cache.unpack_kernel", 2.0, 3.5),
        _span(4, 1, "FlowRunner.vectorized_ir", 5.0, 9.0),
        _span(5, 4, "FlowRunner.scalar_ir", 5.0, 6.0),
    ]
    calls = sp.layer_calls(spans)
    assert calls["cache"] == [pytest.approx(3.0)]
    assert calls["vectorizer"] == [pytest.approx(3.0)]
    assert calls["frontend"] == [pytest.approx(1.0)]
    assert calls["service"] == [pytest.approx(10 - 3 - 4)]
    # every second of the handle span is charged exactly once
    assert sum(sum(v) for v in calls.values()) == pytest.approx(10.0)


def test_gateway_is_round_trip_minus_handle():
    a, b = ("k", "f", "sse", 64), ("k", "f", "neon", 64)
    spans = [
        _span(1, 0, "KernelService.handle", 1.0, 3.0, list(a)),
        _span(2, 1, "execute_phase", 1.5, 2.5, 100),
        # a short same-shape request nested inside a long one
        _span(3, 0, "KernelService.handle", 11.0, 19.0, list(b)),
        _span(4, 0, "KernelService.handle", 12.0, 13.0, list(b)),
    ]
    requests = [(a, 0.5, 4.0), (b, 10.0, 20.0), (b, 11.5, 13.5),
                (a, 30.0, 31.0)]  # the last one has no server span
    assert sp.match_requests(requests, [s for s in spans if s[5]
                                        and s[2] == sp.HANDLE]) == [
        pytest.approx(2.0), pytest.approx(8.0), pytest.approx(1.0), None]
    table = sp.layer_table(spans, requests)
    total = 3.5 + 10 + 2 + 1
    assert table["gateway"]["calls"] == 3
    assert table["gateway"]["busy_s"] == pytest.approx(1.5 + 2 + 1)
    assert table["machine.run"]["busy_s"] == pytest.approx(1.0)
    assert table["unattributed"]["share"] == pytest.approx(1 / total)
    shares = sum(table[layer]["share"] for layer in sp.LAYERS)
    assert shares + table["unattributed"]["share"] == pytest.approx(1.0)


def test_launcher_wraps_every_layer(tmp_path):
    """One in-process request through a traced service records a span
    for each layer its cold path crosses, nested under the handle."""
    code = f"""
import sys
sys.path[:0] = [{HERE!r}, {SRC!r}]
import launcher, spans
from repro.service import KernelService, ServiceRequest
rec = spans.SpanRecorder()
launcher.install(rec)
svc = KernelService(cache_dir={str(tmp_path)!r})
for _ in range(2):
    assert svc.handle(ServiceRequest("saxpy_fp", size=16)).ok
rec.dump({str(tmp_path / 'spans.json')!r})
"""
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    spans = sp.load(str(tmp_path / "spans.json"))
    names = {s[2] for s in spans}
    # no gateway, no follower, a split flow compiled by gcc4cli
    assert set(sp.LAYER_OF) - names == {
        "wire.response_payload", "Flight.wait", "FlowRunner.native_ir",
        "MonoJIT.compile"}
    handles = [s for s in spans if s[2] == sp.HANDLE]
    assert len(handles) == 2
    assert handles[0][5] == ["saxpy_fp", "split_vec_gcc4cli", "sse", 16]
    calls = sp.layer_calls(spans)
    busy = sum(sum(v) for v in calls.values())
    assert busy == pytest.approx(sum(h[4] - h[3] for h in handles))
