"""Golden-value byte-identity for the dynamic policy's rarer paths.

``tests/data/golden_dynamic_paths.json`` holds 256-node dynamic runs that
the 150-job 1024-node capture in ``test_columnar_golden.py`` never
reaches: OOM kills and borrowed memory (memory level 25), noisy
monitoring with headroom, per-rank usage imbalance, checkpoint/restart
with a checkpoint quantum, and OOM-failure pinning.  Each run is
observed, so besides records and summary the capture pins the ordered
event log and the provenance stream (decide/resize/borrow/demand events)
by digest.

Regenerate only on purpose (the capture must predate any change it is
meant to guard)::

    PYTHONPATH=src python tests/test_dynamic_paths_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.obs.telemetry import Telemetry, event_log_jsonl
from repro.scheduler.simulator import build_simulation
from repro.traces.pipeline import synthetic_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_dynamic_paths.json"

_BASE = {"n_nodes": 256, "n_jobs": 200, "seed": 1, "frac_large": 0.5,
         "memory_level": 25, "node_imbalance": 0.0}

#: One entry per dynamic-policy path; ``policy`` holds the policy knobs.
SCENARIOS = [
    dict(_BASE, name="oom_and_borrow", policy={}),
    dict(_BASE, name="noisy_monitor_headroom",
         policy={"monitor_noise": 0.1, "headroom_mb": 512}),
    dict(_BASE, name="rank_imbalance", node_imbalance=0.3, policy={}),
    dict(_BASE, name="checkpoint_restart",
         policy={"checkpoint_restart": True, "checkpoint_interval": 1800.0}),
    dict(_BASE, name="oom_pinning",
         policy={"max_oom_failures": 1, "oom_priority_boost": True}),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _capture_run(sc: dict) -> dict:
    """Run one scenario and return it in the capture format."""
    wl = synthetic_workload(
        n_jobs=sc["n_jobs"], frac_large=sc["frac_large"],
        n_system_nodes=sc["n_nodes"], node_imbalance=sc["node_imbalance"],
        seed=sc["seed"],
    )
    config = SystemConfig.from_memory_level(sc["memory_level"],
                                            n_nodes=sc["n_nodes"])
    telemetry = Telemetry()
    handle = build_simulation(wl.fresh_jobs(), config, policy="dynamic",
                              profiles=wl.profiles, telemetry=telemetry,
                              **sc["policy"])
    res = handle.finish()
    records = [
        {k: (v.name if hasattr(v, "name") else v)
         for k, v in dataclasses.asdict(r).items()}
        for r in res.records
    ]
    return {
        "scenario": sc,
        "summary": res.summary(),
        "events_processed": res.events_processed,
        "records": records,
        "event_log_sha256": _digest(event_log_jsonl(handle.event_log)),
        "provenance_sha256": _digest(telemetry.provenance.to_jsonl()),
    }


def _render(runs) -> str:
    return json.dumps({"runs": runs}, sort_keys=True,
                      separators=(",", ":")) + "\n"


@pytest.mark.slow
@pytest.mark.parametrize("index", range(len(SCENARIOS)),
                         ids=[s["name"] for s in SCENARIOS])
def test_dynamic_path_byte_identical_to_capture(index):
    golden = json.loads(GOLDEN_PATH.read_text())["runs"][index]
    regenerated = _capture_run(golden["scenario"])
    assert _render([regenerated]) == _render([golden]), (
        f"dynamic path '{golden['scenario']['name']}' diverged from the "
        "committed capture"
    )


def test_capture_file_is_canonical_and_covers_the_paths():
    text = GOLDEN_PATH.read_text()
    runs = json.loads(text)["runs"]
    assert _render(runs) == text
    assert [r["scenario"] for r in runs] == SCENARIOS
    by_name = {r["scenario"]["name"]: r for r in runs}
    # The paths the capture exists for actually occur in it.
    for name in ("oom_and_borrow", "noisy_monitor_headroom",
                 "checkpoint_restart", "oom_pinning"):
        assert by_name[name]["summary"]["oom_kills"] > 0, name
    pinned = by_name["oom_pinning"]["records"]
    assert any(r["restarts"] >= 1 for r in pinned)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.write_text(_render([_capture_run(s) for s in SCENARIOS]))
    print(f"wrote {GOLDEN_PATH}")
