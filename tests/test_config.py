"""AnalysisConfig: the one home of the analysis budgets."""

import pytest

from pdabisim import AnalysisConfig, InputError, certs, decide_regularity
from pdabisim.reachability import TRUNCATION_DEPTH_LIMIT


def test_defaults_and_the_derived_pump_budget():
    config = AnalysisConfig()
    assert (config.cutoff, config.omega_budget, config.region_cap) == (64, 512, 2048)
    assert config.pump_omega_budget == 256
    assert AnalysisConfig(omega_budget=100).pump_omega_budget == 64
    assert AnalysisConfig(omega_budget=1000).pump_omega_budget == 500


@pytest.mark.parametrize(
    "bad",
    [
        {"cutoff": 0},
        {"cutoff": True},
        {"cutoff": 8.0},
        {"cutoff": "8"},
        {"omega_budget": -1},
        {"path_budget": 0},
        {"candidate_budget": -3},
        {"region_cap": False},
        {"truncation_max": TRUNCATION_DEPTH_LIMIT + 1},
    ],
)
def test_bad_budgets_are_input_errors(bad):
    with pytest.raises(InputError):
        AnalysisConfig(**bad)


def test_zero_omega_and_truncation_budgets_are_accepted():
    config = AnalysisConfig(omega_budget=0, truncation_max=0)
    assert config.pump_omega_budget == 64


def test_witness_document_round_trips_its_config(counter, counter_start):
    config = AnalysisConfig(cutoff=32, omega_budget=100)
    verdict = decide_regularity(counter, counter_start, config)
    doc = certs.verdict_document(counter, counter_start, verdict, config)
    assert doc["budgets"] == {
        "cutoff": 32,
        "omega_budget": 100,
        "pump_omega_budget": 64,
        "region_cap": 2048,
    }
    (_, _, _, read) = certs.witness_from_document(doc)
    assert read == config
    assert certs.check_document(doc).ok


def test_witness_from_document_checks_format_and_fields(counter, counter_start):
    verdict = decide_regularity(counter, counter_start)
    doc = certs.verdict_document(counter, counter_start, verdict)
    with pytest.raises(InputError):
        certs.witness_from_document(dict(doc, format=99))
    with pytest.raises(InputError):
        certs.witness_from_document({"kind": "witness", "format": certs.FORMAT})
    with pytest.raises(InputError):
        certs.witness_from_document(dict(doc, budgets=[]))
