"""Golden pins: exact snapshot counts and a campaign digest.

The values below were captured before the D-NDP sampler moved from a
dense node-by-code membership matrix to the assignment's n x m code
array.  Any change to an rng stream, a chunk boundary or a sampling
rule shows up here as a changed count or digest; a deliberate break
must re-pin these values and say so.
"""

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments.runner import NetworkExperiment
from repro.experiments.scenarios import preset_config

#: ``(n_pairs, dndp_successes, mndp_successes)`` of ``run_once(0..2)``
#: at seed 0.
SNAPSHOT_PINS = {
    ("paper", "reactive", None): [
        (21578, 15757, 5409), (21447, 15683, 5313), (21411, 15344, 5600),
    ],
    ("paper", "random", None): [
        (21578, 18496, 3081), (21447, 18544, 2902), (21411, 18342, 3067),
    ],
    ("paper-chipless", "random", None): [
        (21578, 18516, 3061), (21447, 18544, 2902), (21411, 18345, 3064),
    ],
    ("tiny", "reactive", "chip"): [
        (1106, 452, 486), (1184, 487, 513), (1136, 436, 501),
    ],
}

CAMPAIGN_DIGEST = (
    "e1c987bcc652e3d7b877e4fbef25e3170ecaa953bd96f074047a95bb12c0a58f"
)


@pytest.mark.parametrize("preset,strategy,phy", list(SNAPSHOT_PINS))
def test_snapshot_counts_pinned(preset, strategy, phy):
    config = preset_config(preset)
    if phy is not None:
        config = config.replace(phy_backend=phy)
    experiment = NetworkExperiment(
        config, seed=0, strategy=JammerStrategy(strategy)
    )
    got = []
    for index in range(3):
        run = experiment.run_once(index)
        got.append((run.n_pairs, run.dndp_successes, run.mndp_successes))
    assert got == SNAPSHOT_PINS[(preset, strategy, phy)]


def test_campaign_digest_pinned(tmp_path):
    spec = CampaignSpec(
        name="golden",
        seed=2011,
        runs_per_point=2,
        runs_per_shard=2,
        base="tiny",
        grid={
            "n_compromised": [5, 10],
            "strategy": ["reactive", "random"],
        },
    )
    status = run_campaign(
        spec, str(tmp_path / "golden.sqlite"),
        git_revision="golden", processes=1,
    )
    assert status.complete
    assert status.canonical_digest == CAMPAIGN_DIGEST
