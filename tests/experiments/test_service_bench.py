"""Tests for the multi-topic service fault drill
(:mod:`repro.experiments.service_drill`).

These pin semantics — scenario parsing, at-risk accounting, the
per-topic verdicts — never wall-clock numbers. The service's wire cost
is measured by the ``svc_topics`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

import pytest

from repro.core.errors import FaultInjectionError
from repro.experiments.registry import get_experiment
from repro.experiments.service_drill import (
    DEFAULT_SCENARIO,
    load_scenario,
    run_service_drill,
)


class TestScenarioParsing:
    def test_default_scenario_parses(self) -> None:
        plans = load_scenario(DEFAULT_SCENARIO)
        assert {plan.topic for plan in plans} == {1, 2}
        heavy = next(plan for plan in plans if plan.topic == 1)
        assert heavy.publisher == 0

    def test_topics_mapping_required(self) -> None:
        with pytest.raises(FaultInjectionError):
            load_scenario({"actions": []})

    def test_topic_ids_must_be_integers(self) -> None:
        with pytest.raises(FaultInjectionError):
            load_scenario({"topics": {"kv": {"actions": []}}})

    def test_unsupported_kinds_rejected(self) -> None:
        with pytest.raises(FaultInjectionError):
            load_scenario(
                {
                    "topics": {
                        "1": {
                            "actions": [
                                {
                                    "kind": "latency_spike",
                                    "at_round": 1.0,
                                    "factor": 4.0,
                                    "duration": 2.0,
                                }
                            ]
                        }
                    }
                }
            )

    def test_crashes_need_explicit_victims(self) -> None:
        with pytest.raises(FaultInjectionError):
            load_scenario(
                {
                    "topics": {
                        "1": {
                            "actions": [
                                {"kind": "crash", "at_round": 1.0, "fraction": 0.5}
                            ]
                        }
                    }
                }
            )


class TestServiceDrill:
    def test_trimmed_drill_passes(self) -> None:
        # Partition one topic's pinned publisher; the other topic must
        # stay clean on the same sockets. Short windows keep it fast.
        scenario = {
            "topics": {
                "1": {
                    "publisher": 0,
                    "actions": [
                        {
                            "kind": "partition",
                            "at_round": 4.0,
                            "groups": {"0": "isolated"},
                            "heal_after": 6.0,
                        }
                    ],
                },
                "2": {"actions": []},
            }
        }
        result = run_service_drill(
            seed=9, n=6, scenario=scenario, round_interval=20
        )
        assert result.exit_ok, result.render()
        by_topic = {v.topic: v for v in result.verdicts}
        assert by_topic[1].at_risk > 0
        assert by_topic[1].isolated_hosts == (0,)
        assert by_topic[2].at_risk == 0
        assert by_topic[2].report.ok
        assert "verdict: OK" in result.render()

    def test_registered(self) -> None:
        assert get_experiment("service-drill").runner is run_service_drill
