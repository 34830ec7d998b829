"""The regression anchors: exact makespans every change must keep.

At scale 1/8000 the alpha workload finishes in milliseconds, so the
published anchor points run here on the default ``jit`` tier and on
``closure`` (the one-closure-per-instruction tier the compiled tiers
are checked against).  A simulator-speed change that shifts a single
cycle anywhere in the kernel, the CIS or the CPU tiers fails here.
"""

import pytest

from repro.sim.experiment import ExperimentSpec, run_experiment

SCALE = 1 / 8000

#: (instances, quantum_ms) -> makespan for the alpha workload.
ANCHORS = {
    (1, 1.0): 16560,
    (3, 1.0): 53561,
    # The round-robin 10 ms alpha sweep of Figure 2.
    (1, 10.0): 16340,
    (2, 10.0): 32951,
    (3, 10.0): 49427,
    (5, 10.0): 90566,
    (8, 10.0): 144926,
}


@pytest.mark.parametrize("tier", ["jit", "closure"])
@pytest.mark.parametrize("point", sorted(ANCHORS))
def test_alpha_makespan_anchor(point, tier, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TIER", tier)
    instances, quantum_ms = point
    spec = ExperimentSpec(
        workload="alpha", instances=instances, quantum_ms=quantum_ms,
        policy="round_robin", scale=SCALE,
    )
    assert spec.build_config().exec_tier == tier
    outcome = run_experiment(spec, verify=True)
    assert outcome.verified
    assert outcome.makespan == ANCHORS[point]
