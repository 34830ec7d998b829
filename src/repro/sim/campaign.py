"""Dependability campaigns: seeded fault sweeps over recovery policies.

A campaign runs the same workload mix under each recovery policy
(scrub-and-reload, software fallback, quarantine) for several seeded
trials and reports the classic fault-injection metrics: how many upsets
were injected, how many were detected vs. silent, how long recovery
took, and what fraction of machine time stayed available.  Campaigns
ride on :class:`~repro.sim.runner.SweepRunner`, so they parallelise and
cache exactly like the figure sweeps — and, like everything else in
this repo, a campaign is bit-identical for a given seed regardless of
``--jobs`` or checkpoint/resume.

Seeding: trial *t* of a campaign with seed *S* runs a
:class:`~repro.faults.FaultPlan` seeded ``S * 1000003 + t`` (a distinct
injector stream per trial) over a machine seeded ``t`` (distinct
program data per trial).  The same (S, t) pair always reproduces the
same upsets at the same quanta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ExperimentError
from ..faults import RECOVERY_POLICIES, FaultPlan
from .experiment import ExperimentSpec, RunOutcome
from .runner import SweepProgressFn, SweepRunner
from .scaling import DEFAULT_SCALE

#: Multiplier decorrelating per-trial fault-plan seeds from the campaign
#: seed (a prime, so consecutive campaign seeds never collide on trials).
_PLAN_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class CampaignConfig:
    """Everything identifying one dependability campaign."""

    workload: str = "alpha"
    instances: int = 4
    trials: int = 3
    policies: tuple[str, ...] = RECOVERY_POLICIES
    quantum_ms: float = 1.0
    scale: float = DEFAULT_SCALE
    seed: int = 7
    config_upset_rate: float = 0.02
    datapath_error_rate: float = 0.02
    transfer_error_rate: float = 0.05
    state_upset_rate: float = 0.05
    scrub_interval_quanta: int = 16
    quarantine_strikes: int = 2
    max_load_retries: int = 2
    pfu_count: int = 4
    policy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ExperimentError("trials must be >= 1")
        for recovery in self.policies:
            if recovery not in RECOVERY_POLICIES:
                raise ExperimentError(
                    f"unknown recovery policy {recovery!r}; "
                    f"choose from {RECOVERY_POLICIES}"
                )

    def plan(self, recovery: str, trial: int) -> FaultPlan:
        return FaultPlan(
            seed=self.seed * _PLAN_SEED_STRIDE + trial,
            config_upset_rate=self.config_upset_rate,
            datapath_error_rate=self.datapath_error_rate,
            transfer_error_rate=self.transfer_error_rate,
            state_upset_rate=self.state_upset_rate,
            scrub_interval_quanta=self.scrub_interval_quanta,
            recovery=recovery,
            quarantine_strikes=self.quarantine_strikes,
            max_load_retries=self.max_load_retries,
        )


def campaign_specs(config: CampaignConfig) -> list[ExperimentSpec]:
    """Expand a campaign into its sweep points, policy-major order."""
    specs = []
    for recovery in config.policies:
        for trial in range(config.trials):
            specs.append(
                ExperimentSpec(
                    workload=config.workload,
                    instances=config.instances,
                    quantum_ms=config.quantum_ms,
                    policy=config.policy,
                    scale=config.scale,
                    seed=trial,
                    pfu_count=config.pfu_count,
                    fault_plan=config.plan(recovery, trial),
                )
            )
    return specs


@dataclass
class CampaignRow:
    """Metrics for one (policy, trial) point."""

    policy: str
    trial: int
    plan_seed: int
    makespan: int
    injected: int
    detected: int
    recovered: int
    silent: int
    quarantined: int
    killed: int
    wrong_outputs: int
    recovery_cycles: int
    mean_recovery_latency: float
    availability: float


@dataclass
class CampaignReport:
    """A finished campaign: config plus one row per trial."""

    config: CampaignConfig
    rows: list[CampaignRow] = field(default_factory=list)

    def by_policy(self) -> dict[str, dict[str, float]]:
        """Aggregate rows into per-policy summaries, policy order kept."""
        summary: dict[str, dict[str, float]] = {}
        for policy in self.config.policies:
            rows = [row for row in self.rows if row.policy == policy]
            if not rows:
                continue
            trials = len(rows)
            summary[policy] = {
                "trials": trials,
                "injected": sum(row.injected for row in rows),
                "detected": sum(row.detected for row in rows),
                "recovered": sum(row.recovered for row in rows),
                "silent": sum(row.silent for row in rows),
                "quarantined": sum(row.quarantined for row in rows),
                "killed": sum(row.killed for row in rows),
                "wrong_outputs": sum(row.wrong_outputs for row in rows),
                "mean_recovery_latency": round(
                    sum(row.mean_recovery_latency for row in rows) / trials, 3
                ),
                "availability": round(
                    sum(row.availability for row in rows) / trials, 9
                ),
            }
        return summary

    def to_csv(self) -> str:
        """Deterministic CSV: same seed, same bytes, every time."""
        lines = [
            "policy,trial,plan_seed,makespan,injected,detected,recovered,"
            "silent,quarantined,killed,wrong_outputs,recovery_cycles,"
            "mean_recovery_latency,availability"
        ]
        for row in self.rows:
            lines.append(
                f"{row.policy},{row.trial},{row.plan_seed},{row.makespan},"
                f"{row.injected},{row.detected},{row.recovered},"
                f"{row.silent},{row.quarantined},{row.killed},"
                f"{row.wrong_outputs},{row.recovery_cycles},"
                f"{row.mean_recovery_latency:.3f},{row.availability:.9f}"
            )
        return "\n".join(lines)


def _row(spec: ExperimentSpec, outcome: RunOutcome, trial: int) -> CampaignRow:
    plan = spec.fault_plan
    assert plan is not None
    faults = outcome.faults
    return CampaignRow(
        policy=plan.recovery,
        trial=trial,
        plan_seed=plan.seed,
        makespan=outcome.makespan,
        injected=sum(faults.get("injected", {}).values()),
        detected=sum(faults.get("detected", {}).values()),
        recovered=sum(faults.get("recovered", {}).values()),
        silent=(
            faults.get("silent_corruptions", 0)
            + faults.get("state_corruptions", 0)
        ),
        quarantined=faults.get("quarantined", 0),
        killed=faults.get("killed", 0),
        wrong_outputs=faults.get("wrong_outputs", 0),
        recovery_cycles=faults.get("recovery_cycles", 0),
        mean_recovery_latency=faults.get("mean_recovery_latency", 0.0),
        availability=faults.get("availability", 1.0),
    )


def run_campaign(
    config: CampaignConfig,
    runner: SweepRunner | None = None,
    verify: bool = True,
    progress: SweepProgressFn | None = None,
) -> CampaignReport:
    """Run every (policy, trial) point and collect the metrics table.

    ``verify`` defaults to True here (unlike figure sweeps): silent data
    corruption is precisely what a dependability campaign must observe,
    and with a fault plan active verification *counts* wrong outputs
    instead of raising.
    """
    if runner is None:
        runner = SweepRunner()
    specs = campaign_specs(config)
    outcomes = runner.run(specs, verify=verify, progress=progress)
    report = CampaignReport(config=config)
    for spec, outcome in zip(specs, outcomes):
        assert spec.fault_plan is not None
        trial = spec.fault_plan.seed - config.seed * _PLAN_SEED_STRIDE
        report.rows.append(_row(spec, outcome, trial))
    return report


def render_campaign(report: CampaignReport) -> str:
    """Plain-text per-policy summary table."""
    config = report.config
    lines = [
        f"Dependability campaign: {config.workload} x{config.instances}, "
        f"{config.trials} trials/policy, seed {config.seed}",
        "",
        f"{'policy':<12} {'inject':>7} {'detect':>7} {'recover':>8} "
        f"{'silent':>7} {'quar':>5} {'killed':>7} {'wrong':>6} "
        f"{'latency':>9} {'avail':>10}",
    ]
    for policy, agg in report.by_policy().items():
        lines.append(
            f"{policy:<12} {agg['injected']:>7} {agg['detected']:>7} "
            f"{agg['recovered']:>8} {agg['silent']:>7} "
            f"{agg['quarantined']:>5} {agg['killed']:>7} "
            f"{agg['wrong_outputs']:>6} "
            f"{agg['mean_recovery_latency']:>9.3f} "
            f"{agg['availability']:>10.6f}"
        )
    return "\n".join(lines)
