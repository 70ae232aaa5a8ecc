"""AnalysisConfig: the one home of the analysis budgets."""

import random

import pytest

from pdabisim import (
    AnalysisConfig,
    Config,
    InputError,
    PdaOracle,
    StackWord,
    certs,
    decide_regularity,
)
from pdabisim.equivalence import AbsorbingOracle
from pdabisim.reachability import TRUNCATION_DEPTH_LIMIT

from oracles import random_pda


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
        {"truncation_max": TRUNCATION_DEPTH_LIMIT},
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
    doc = certs.verdict_document(counter, counter_start, verdict)
    assert doc["budgets"] == {
        "cutoff": 32,
        "omega_budget": 100,
        "pump_omega_budget": 64,
        "region_cap": 2048,
    }
    (check, mismatch) = certs.recheck_witness(doc)
    assert mismatch is None
    assert check.bound == verdict.certificate.witness.pump.bound
    assert check.base == verdict.certificate.check.base
    assert certs.check_document(doc).ok


def test_a_witness_decided_under_a_small_region_cap_rechecks():
    # decided under region_cap 4 the pump bound is 3, at the default cap 6;
    # the document must carry the cap its bound was computed with
    pda = random_pda(random.Random(5192), 4, 4, 12)
    start = Config(sorted(pda.controls)[0], StackWord.finite((sorted(pda.stack_alphabet)[0],)))
    verdict = decide_regularity(pda, start, AnalysisConfig(region_cap=4))
    assert verdict.kind == "nonregular"
    doc = certs.loads(certs.dumps(certs.verdict_document(pda, start, verdict)))
    assert (doc["bound"], doc["budgets"]["region_cap"]) == (3, 4)
    got = certs.check_document(doc)
    assert got.ok, got.detail
    # the re-check runs under the stored budgets: at the default cap the
    # recomputed bound is 6, and the stored 3 no longer matches
    (check, mismatch) = certs.recheck_witness(doc)
    assert (check.bound, mismatch) == (3, None)
    default_cap = dict(doc, budgets=dict(doc["budgets"], region_cap=2048))
    (check, mismatch) = certs.recheck_witness(default_cap)
    assert check.bound == 6
    assert mismatch == "recomputed bound 6 does not match the stored 3"


def test_absorbing_views_share_the_oracle_config_table_and_floors(counter):
    raw = PdaOracle(counter, AnalysisConfig(cutoff=16))
    view = AbsorbingOracle(raw)
    assert view.config is raw.config
    assert view.table is raw.table
    assert view.floors is raw.floors
    assert view.absorbed is raw.absorbed


def test_recheck_witness_checks_format_and_fields(counter, counter_start):
    verdict = decide_regularity(counter, counter_start)
    doc = certs.verdict_document(counter, counter_start, verdict)
    with pytest.raises(InputError):
        certs.recheck_witness(dict(doc, format=99))
    with pytest.raises(InputError):
        certs.recheck_witness({"kind": "witness", "format": certs.FORMAT})
    with pytest.raises(InputError):
        certs.recheck_witness(dict(doc, budgets=[]))
