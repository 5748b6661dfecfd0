"""networkx is a test-only dependency: production never imports it."""

import os
import subprocess
import sys
import textwrap

import repro

SCRIPT = textwrap.dedent(
    """
    import os
    import sys
    import tempfile

    from repro.campaigns import CampaignSpec
    from repro.campaigns.executor import run_campaign
    from repro.experiments.runner import NetworkExperiment
    from repro.experiments.scenarios import preset_config

    NetworkExperiment(preset_config("tiny"), seed=1).run_once(0)
    spec = CampaignSpec(
        name="no-networkx", seed=1, runs_per_point=2, base="tiny"
    )
    with tempfile.TemporaryDirectory() as scratch:
        status = run_campaign(
            spec, os.path.join(scratch, "store.sqlite"), processes=1
        )
    assert status.complete
    print("networkx" in sys.modules)
    """
)


def test_snapshot_and_campaign_never_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
