"""Kill-and-resume gate (north_rule): a killed run, rerun, skips
completed partitions via the lineage manifest and produces identical
output to an uninterrupted run."""

import os
import shutil

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
OUT = "/tmp/tsfr_resume_test"


def test_kill_and_resume(ray_session):
    from tsfeatures_ray.state.lineage import (
        Manifest,
        _Killed,
        read_resumable_output,
        run_resumable_rollup,
    )

    if os.path.exists(OUT):
        shutil.rmtree(OUT)

    # first run: killed after 2 stage-B partitions
    with pytest.raises(_Killed):
        run_resumable_rollup(SF, OUT, tiers=["1h"], num_parts=6, kill_after=2)

    done_before = Manifest(os.path.join(OUT, "manifest.jsonl")).load()
    completed_parts = [k for k in done_before if k.startswith("part-")]
    assert len(completed_parts) == 2
    mtimes = {
        p: os.path.getmtime(os.path.join(OUT, "rollup", f"part={p.split('-')[1]}"))
        for p in completed_parts
    }

    # resume: completes the rest without recomputing finished partitions
    summary = run_resumable_rollup(SF, OUT, tiers=["1h"], num_parts=6)
    assert summary["skipped"] >= 2
    for p, mt in mtimes.items():
        path = os.path.join(OUT, "rollup", f"part={p.split('-')[1]}")
        assert os.path.getmtime(path) == mt, f"{p} was recomputed"

    # output identical to the uninterrupted pipeline
    from tsfeatures_ray.pipelines import rollup_pipeline

    got = (
        read_resumable_output(OUT)
        .sort_values(["conv_id", "tier", "bucket_us"], kind="mergesort")
        .reset_index(drop=True)
    )
    want = (
        rollup_pipeline(SF, tiers=["1h"])
        .to_pandas()
        .sort_values(["conv_id", "tier", "bucket_us"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want)

    # third run: everything skipped, manifest stable
    summary2 = run_resumable_rollup(SF, OUT, tiers=["1h"], num_parts=6)
    assert summary2["computed"] == 0


def test_manifest_tolerates_torn_write(tmp_path):
    from tsfeatures_ray.state.lineage import Manifest

    m = Manifest(str(tmp_path / "m.jsonl"))
    m.append({"partition": "part-0", "rows": 5, "checksum": "0xabc", "inputs": []})
    with open(m.path, "a") as f:
        f.write('{"partition": "part-1", "rows":')  # crash mid-append
    loaded = m.load()
    assert set(loaded) == {"part-0"}


def test_resume_recovers_partitions_in_parallel(ray_session):
    """K missing partitions must recover in ~max(partition) wall, not
    ~sum: with a 1 s injected per-partition cost, 4 partitions on the
    4-CPU test session take ~1 s in parallel vs >= 4 s serial."""
    import time

    from tsfeatures_ray.state.lineage import run_resumable_rollup

    out = "/tmp/tsfr_resume_par"
    if os.path.exists(out):
        shutil.rmtree(out)
    t0 = time.monotonic()
    summary = run_resumable_rollup(
        SF, out, tiers=["1d"], num_parts=4, _test_sleep_s=1.0
    )
    wall = time.monotonic() - t0
    assert summary["computed"] == 4
    # serial would be >= 4 x (1 s + compute); allow generous slack for
    # stage A + task dispatch while still rejecting the serial shape
    assert wall < 3.5, f"stage B looks serial: {wall:.2f}s for 4 x 1s"


def test_resumable_with_features(ray_session):
    import pandas as pd

    from tsfeatures_ray.state.lineage import run_resumable_rollup

    out = "/tmp/tsfr_resume_feat"
    if os.path.exists(out):
        shutil.rmtree(out)
    run_resumable_rollup(SF, out, tiers=["1d"], num_parts=3, with_features=True)
    parts = [
        p for p in os.listdir(os.path.join(out, "rollup"))
        if os.path.exists(os.path.join(out, "rollup", p, "features.parquet"))
    ]
    assert parts
    feats = pd.concat(
        [
            pd.read_parquet(os.path.join(out, "rollup", p, "features.parquet"))
            for p in parts
        ]
    )
    assert len(feats) > 0 and "x_acf1" in feats.columns

    # same rows as the flagship feature pipeline, at perfbench's tolerance
    from tsfeatures_ray.pipelines import feature_pipeline

    key = ["unique_id", "tier", "metric"]
    got = feats.sort_values(key).reset_index(drop=True)
    want = (
        feature_pipeline(SF, tiers=["1d"]).to_pandas()
        .sort_values(key).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_exact=False, rtol=1e-6, atol=1e-6)


def test_resume_rejects_changed_num_parts(ray_session):
    """Stage A is skipped on resume, so a different num_parts would
    leave the sunk partitions >= the new count un-rolled-up: refuse it
    instead of returning a partial output."""
    from tsfeatures_ray.state.lineage import _Killed, run_resumable_rollup

    out = "/tmp/tsfr_resume_parts"
    if os.path.exists(out):
        shutil.rmtree(out)
    with pytest.raises(_Killed):
        run_resumable_rollup(SF, out, tiers=["1h"], num_parts=6, kill_after=2)
    with pytest.raises(ValueError, match="num_parts"):
        run_resumable_rollup(SF, out, tiers=["1h"], num_parts=2)
