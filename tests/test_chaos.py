"""Chaos campaign: >= 200 seeded fault injections, zero silent wrong
answers, zero unclassified tracebacks.

This is the closing argument of the fail-soft pipeline: whatever a seeded
adversary corrupts — bytecode bytes, idiom lowering, materialization, VM
memory accesses, array alignment — the toolchain either produces a
numpy-checked correct answer (possibly via the scalar degradation path)
or raises a classified :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import pytest

from repro.harness.chaos import FAILING, LAYERS, ChaosTrial, run_campaign


@pytest.fixture(scope="module")
def campaign():
    """One 200-fault campaign shared by the assertions below."""
    return run_campaign(n_faults=200, seed=2026)


def test_campaign_injects_at_least_200_faults(campaign):
    assert len(campaign.trials) >= 200


def test_no_silent_wrong_answers(campaign):
    assert not [t for t in campaign.trials if t.outcome == "silent-wrong"], \
        campaign.summary()
    assert not [t for t in campaign.trials if t.outcome == "wrong-answer"], \
        campaign.summary()


def test_no_unclassified_tracebacks(campaign):
    assert not [
        t for t in campaign.trials if t.outcome == "unclassified-trap"
    ], campaign.summary()


def test_engine_parity_under_chaos(campaign):
    assert not [
        t for t in campaign.trials if t.outcome == "parity-mismatch"
    ], campaign.summary()


def test_invariant_holds(campaign):
    assert campaign.ok, campaign.summary()


def test_campaign_covers_every_layer(campaign):
    hit = {t.layer for t in campaign.trials}
    assert hit == set(LAYERS)


def test_campaign_observes_all_three_good_outcomes(campaign):
    outcomes = {t.outcome for t in campaign.trials}
    # the adversary actually bit: traps fired and degradations happened
    assert "trapped" in outcomes
    assert "degraded-correct" in outcomes
    assert "correct" in outcomes


def test_campaign_deterministic_in_seed():
    a = run_campaign(n_faults=25, seed=7)
    b = run_campaign(n_faults=25, seed=7)
    assert a.trials == b.trials
    c = run_campaign(n_faults=25, seed=8)
    assert c.trials != a.trials


def test_trial_ok_semantics():
    good = ChaosTrial("bytecode", "saxpy_fp", "BitFlip()", "trapped")
    assert good.ok
    for outcome in FAILING:
        assert not ChaosTrial("vm-mem", "saxpy_fp", "f", outcome).ok


def test_report_summary_mentions_invariant():
    rep = run_campaign(n_faults=5, seed=1)
    assert "invariant HELD" in rep.summary()
    assert "5 faults injected" in rep.summary()


# -- service profile ----------------------------------------------------------


@pytest.fixture(scope="module")
def service_campaign():
    """One service-profile soak shared by the assertions below (the CI
    job runs the full 200-fault version; this keeps tier-1 quick)."""
    return run_campaign("service", n_faults=60, seed=2026)


def test_service_campaign_invariant_holds(service_campaign):
    assert service_campaign.ok, service_campaign.summary()


def test_service_campaign_covers_every_service_layer(service_campaign):
    from repro.harness.chaos import SERVICE_LAYERS

    hit = {t.layer for t in service_campaign.trials}
    assert set(SERVICE_LAYERS) <= hit


def test_service_campaign_exercises_the_cascade(service_campaign):
    outcomes = {t.outcome for t in service_campaign.trials}
    # every resilience mechanism observably fired at least once
    assert "healed" in outcomes        # corrupt entry quarantined+recompiled
    assert "crash-safe" in outcomes    # torn write left destination clean
    assert "served-stale" in outcomes  # stale step of the cascade
    assert "breaker-cycled" in outcomes  # closed -> open -> half-open -> closed
    assert "degraded-correct" in outcomes


def test_service_campaign_reports_service_stats(service_campaign):
    stats = service_campaign.service_stats
    assert stats is not None
    assert stats["requests"] > 0
    assert stats["cache"]["quarantined"] > 0
    assert stats["cache"]["put_failures"] > 0


def test_service_campaign_deterministic_in_seed():
    a = run_campaign("service", n_faults=15, seed=11)
    b = run_campaign("service", n_faults=15, seed=11)
    assert [
        (t.layer, t.kernel, t.fault, t.outcome) for t in a.trials
    ] == [
        (t.layer, t.kernel, t.fault, t.outcome) for t in b.trials
    ]


def test_service_campaign_with_farm_faults():
    """``--farm-workers`` mixes the farm layers into the seeded draw:
    worker crash mid-compile (rerouted, no torn entry), worker stall
    (reclaimed by the compile budget), and stale leader markers (taken
    over) — the invariant must hold through all of them."""
    from repro.harness.chaos import FARM_LAYERS

    rep = run_campaign("service", n_faults=40, seed=5, farm_workers=2)
    assert rep.ok, rep.summary()
    hit = {t.layer for t in rep.trials}
    assert set(FARM_LAYERS) <= hit
    outcomes = {t.outcome for t in rep.trials if t.layer in FARM_LAYERS}
    assert "rerouted" in outcomes
    assert "marker-takeover" in outcomes
    assert rep.service_stats["farm"]["rebuilds"] > 0


def test_service_campaign_farm_stream_extends_default_stream():
    """The farm layers join the draw without disturbing the pinned-seed
    default stream: a farm-less campaign at the same seed is unchanged
    (bit-for-bit) by the farm feature existing."""
    a = run_campaign("service", n_faults=15, seed=11)
    b = run_campaign("service", n_faults=15, seed=11, farm_workers=0)
    assert [
        (t.layer, t.kernel, t.fault, t.outcome) for t in a.trials
    ] == [
        (t.layer, t.kernel, t.fault, t.outcome) for t in b.trials
    ]


def test_gateway_campaign_honours_explicit_zero_farm_workers():
    """``farm_workers=0`` is a choice, not "use the default": it must
    reach the gateway soak, whose service then runs without a farm."""
    rep = run_campaign("gateway", n_faults=3, seed=2026, farm_workers=0)
    assert rep.ok, rep.summary()
    assert rep.service_stats["service"]["farm"] is None
    reaped = [t for t in rep.trials if t.outcome == "farm-reaped"]
    assert len(reaped) == 1
    assert "all 0 farm workers" in reaped[0].detail


def _crash_first_call(real):
    calls = []

    def trial(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("trial body crashed")
        return real(*args, **kwargs)

    return trial


@pytest.mark.parametrize("profile", ["layers", "service"])
def test_crashing_trial_is_censused_not_lost(monkeypatch, profile):
    """Census integrity: a trial that raises becomes one failing
    ``unclassified-trap`` trial and the campaign still reports."""
    from repro.harness import chaos

    # seed 1 draws bytecode first in ``layers`` and svc-plain first in
    # ``service``
    monkeypatch.setattr(chaos, "_trial_bytecode",
                        _crash_first_call(chaos._trial_bytecode))
    monkeypatch.setattr(chaos._ServiceSoak, "plain",
                        _crash_first_call(chaos._ServiceSoak.plain))
    rep = run_campaign(profile, n_faults=3, seed=1)
    crashed = [t for t in rep.trials if t.outcome == "unclassified-trap"]
    assert len(crashed) == 1, rep.summary()
    assert crashed[0].fault == "trial-crashed"
    assert "RuntimeError: trial body crashed" in crashed[0].detail
    assert not rep.ok


@pytest.mark.slow
def test_harness_layer_quarantines():
    """Worker crash + stall inside a real process pool: the sweep finishes
    and only the faulty kernel's cells are quarantined."""
    rep = run_campaign(n_faults=0, seed=3, include_harness=True,
                       harness_timeout=5.0)
    assert len(rep.trials) == 2
    assert all(t.layer == "harness" for t in rep.trials)
    assert rep.ok, rep.summary()
    assert {t.outcome for t in rep.trials} == {"quarantined"}
