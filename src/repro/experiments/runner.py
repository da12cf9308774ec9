"""Run every paper experiment end to end and collect the results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.evaluation import EvaluationMemo
from repro.experiments.fig1_tail_diversity import TailDiversityResult, run_fig1
from repro.experiments.fig2_feature_scatter import FeatureScatterResult, run_fig2
from repro.experiments.fig3_utility import (
    CoOptimizedUtilityResult,
    UtilityComparisonResult,
    default_attack_sizes,
    run_fig3,
    run_fig3_cooptimized,
)
from repro.experiments.fig4_attacker import AttackerResult, run_fig4
from repro.experiments.fig5_storm import StormReplayResult, run_fig5
from repro.experiments.fig6_staleness import StalenessStudyResult, run_fig6
from repro.experiments.table2_best_users import BestUsersResult, run_table2
from repro.experiments.table3_alarms import (
    AlarmVolumeResult,
    FusedAlarmVolumeResult,
    run_table3,
    run_table3_fused,
)
from repro.features.definitions import Feature
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation, generate_enterprise

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import PopulationEngine


@dataclass(frozen=True)
class ExperimentSuiteResult:
    """All paper-experiment results for one generated population."""

    population: EnterprisePopulation
    fig1: TailDiversityResult
    fig2: FeatureScatterResult
    table2: BestUsersResult
    fig3: UtilityComparisonResult
    table3: AlarmVolumeResult
    fig4: AttackerResult
    fig5: StormReplayResult
    table3_fused: FusedAlarmVolumeResult
    fig3_cooptimized: CoOptimizedUtilityResult
    fig6: StalenessStudyResult

    def render(self) -> str:
        """Render every experiment's text report, separated by blank lines."""
        sections = [
            self.fig1.render(),
            self.fig2.render(),
            self.table2.render(),
            self.fig3.render(),
            self.table3.render(),
            self.fig4.render(),
            self.fig5.render(),
            self.table3_fused.render(),
            self.fig3_cooptimized.render(),
            self.fig6.render(),
        ]
        return "\n\n".join(sections)


def run_all_experiments(
    population: Optional[EnterprisePopulation] = None,
    config: Optional[EnterpriseConfig] = None,
    engine: Optional["PopulationEngine"] = None,
) -> ExperimentSuiteResult:
    """Run the full experiment suite.

    Pass an existing ``population`` to reuse generated traces, or a ``config``
    to generate a new population (defaults to the paper-scale configuration —
    350 hosts, five weeks).  An ``engine`` (see
    :class:`repro.engine.PopulationEngine`) enables parallel generation and
    population caching for repeated runs.

    The figures that evaluate through
    :func:`~repro.core.evaluation.evaluate_policy` (fig3, table3, fig5 and
    the fused table3 and co-optimised fig3) share one
    :class:`~repro.core.evaluation.EvaluationMemo`: each (feature, training
    week) is trained once and each distinct assignment computed once, so
    table3's utility trio reuses fig3's.  fig4 trains and assigns by itself,
    outside any evaluation.  fig3, table3 and the co-optimised fig3 share
    one :func:`~repro.experiments.fig3_utility.default_attack_sizes` sweep
    over the TCP feature they all score.  Nothing outlives the call.
    """
    if population is None:
        population = generate_enterprise(config, engine=engine)
    memo = EvaluationMemo()
    sizes = default_attack_sizes(population, Feature.TCP_CONNECTIONS)
    return ExperimentSuiteResult(
        population=population,
        fig1=run_fig1(population),
        fig2=run_fig2(population),
        table2=run_table2(population),
        fig3=run_fig3(population, attack_sizes=sizes, memo=memo),
        table3=run_table3(population, attack_sizes=sizes, memo=memo),
        fig4=run_fig4(population),
        fig5=run_fig5(population, memo=memo),
        table3_fused=run_table3_fused(population, memo=memo),
        fig3_cooptimized=run_fig3_cooptimized(population, attack_sizes=sizes, memo=memo),
        fig6=run_fig6(population),
    )
