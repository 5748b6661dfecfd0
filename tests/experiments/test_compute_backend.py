"""End-to-end equivalence of the snapshot pipeline and its oracles.

Inside :func:`tests.oracles.reference_pipeline` every snapshot runs its
neighbor search, pre-distribution, shared-code counts and M-NDP closure
on the plain-loop reference forms.  Both must consume identical rng
streams and produce identical run results and instrumented metrics.
"""

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.experiments.runner import NetworkExperiment
from tests.oracles import reference_pipeline


def _small_config() -> JRSNDConfig:
    return JRSNDConfig(
        n_nodes=250,
        codes_per_node=20,
        share_count=10,
        n_compromised=8,
        field_width=1500.0,
        field_height=1500.0,
        tx_range=300.0,
    )


def _both(runs, **kwargs):
    """``(reference, production)`` results of the same experiment."""
    with reference_pipeline():
        reference = NetworkExperiment(_small_config(), **kwargs).run(runs)
    production = NetworkExperiment(_small_config(), **kwargs).run(runs)
    return reference, production


def _assert_metrics_equal(want, got):
    want, got = want.merged_metrics(), got.merged_metrics()
    assert want.counters == got.counters
    assert want.histograms.keys() == got.histograms.keys()
    for name in want.histograms:
        assert want.histograms[name] == got.histograms[name], name


class TestComputeBackendEquivalence:
    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    def test_run_results_identical(self, strategy):
        for phy in ("message", "chipless"):
            reference, production = _both(
                3, seed=31, strategy=strategy, phy_backend=phy,
                mndp_rounds=2, collect_metrics=True,
            )
            assert reference == production, phy
            _assert_metrics_equal(reference, production)

    def test_instrumented_counters_identical(self):
        reference, production = _both(
            2, seed=5, mndp_rounds=2, collect_metrics=True
        )
        _assert_metrics_equal(reference, production)
