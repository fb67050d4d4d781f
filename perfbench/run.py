"""Benchmark of the tsfeatures_ray engine: one workload, one seed.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. The run generates its inputs from the
seed, opens two Ray sessions one after the other (``num_cpus`` equal
to ``nproc``; ``setup_s`` is the median set-up), runs the workload's job
in each for ``--seconds`` seconds in total (at least once per session),
checks the outputs, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics from one
traced job with ``--trace 1``. Everything it writes goes under
``.pbw/`` in the checkout. See perfbench/README.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import procstat, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

SETUPS = 2  # Ray sessions per run; setup_s is the median of their set-ups
SETUP_TRIES = 3  # a set-up that raises is retried in a fresh session
MAX_REPS = 40
OBJECT_STORE_BYTES = 512 * 2**20  # fixed, so it does not follow the host's memory
TIERS = ["1m", "1h", "1d", "panel"]
KERNEL_BATCH = 1024  # the feature stage's batch width
KERNEL_PASSES = 3


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def import_engine() -> None:
    import ray.data  # noqa: F401

    import tsfeatures_ray.pipelines  # noqa: F401
    import tsfeatures_ray.stages.compress  # noqa: F401
    import tsfeatures_ray.stages.features  # noqa: F401
    import tsfeatures_ray.stages.retention  # noqa: F401
    import tsfeatures_ray.state.lineage  # noqa: F401


def ray_temp_dir() -> str:
    """This run's Ray directory, inside the checkout. Ray's socket paths
    (this dir + up to 64 bytes) must stay under the 107-byte AF_UNIX
    limit, so a long checkout path is reached through this process's
    working directory (the checkout root) under /proc instead."""
    pid = os.getpid()
    temp = os.path.join(ROOT, ".pbw", f"r{pid}")
    return temp if len(temp) <= 43 else f"/proc/{pid}/cwd/.pbw/r{pid}"


def plasma_dir() -> str | None:
    """Where Ray's object store maps its memory: /dev/shm (None, Ray's
    default) when it can take the store, else a directory in the
    checkout rather than Ray's own fallback under /tmp."""
    try:
        st = os.statvfs("/dev/shm")
        if os.access("/dev/shm", os.W_OK) and st.f_bavail * st.f_frsize >= OBJECT_STORE_BYTES:
            return None
    except OSError:
        pass
    return os.path.join(ROOT, ".pbw", f"p{os.getpid()}")


def start_ray(num_cpus: int, temp: str, plasma: str | None) -> None:
    import ray
    from ray.data import DataContext

    if plasma:
        os.makedirs(plasma, exist_ok=True)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _node_ip_address="127.0.0.1",
             _temp_dir=temp, _plasma_directory=plasma)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def stop_ray() -> None:
    """Shut Ray down and wait until every process this run started has
    ended. Ray's actor workers outlive their raylet and get reparented,
    so the processes to wait for are those of the tree just before the
    shutdown, plus any still below this process."""
    import ray

    me = os.getpid()
    started = set(procstat.descendants(me))
    ray.shutdown()
    deadline = time.monotonic() + 10
    while True:
        left = [p for p in started | set(procstat.descendants(me))
                if p != me and procstat.alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            log("killing processes left after shutdown:", procstat.commands(left))
            for p in left:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(p, signal.SIGKILL)
        for p in left:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(p, os.WNOHANG)
        time.sleep(0.1)


def warm(num_cpus: int) -> None:
    """Spawn the worker pool and import the engine in every worker; run
    one tiny exchange so Ray Data's lazy set-up is done too."""
    import ray.data as rd

    n = max(2, num_cpus * 2)
    rd.range(n, override_num_blocks=n).map_batches(
        workloads.warm_batch, batch_size=1, batch_format="pyarrow", num_cpus=1).materialize()
    rd.range(64).groupby("id").count().materialize()


def cpu_by_pid() -> dict[int, float]:
    return {p: procstat.cpu_seconds([p]) for p in procstat.descendants(os.getpid())}


def run_job(job, inp, out, tr=None) -> dict:
    """One job with its wall time, tree CPU and peak tree RSS."""
    c0 = cpu_by_pid()
    rec: dict = {"ok": False}
    with procstat.TreeSampler() as rss:
        t0 = time.perf_counter()
        try:
            rec["result"] = job(inp, out, tr)
            rec["ok"] = True
        except Exception as e:  # a failed job is counted, not fatal
            rec["error"] = f"{type(e).__name__}: {e}"
        rec["job_s"] = time.perf_counter() - t0
    c1 = cpu_by_pid()
    rec["cpu_s"] = sum(v - c0.get(p, 0.0) for p, v in c1.items())
    rec["peak_rss_mb"] = rss.peak / 2**20
    return rec


def kernel_times(packed) -> dict:
    """In-process ``FeatureKernels`` over the job's packed series in
    1024-row batches: all kernels together, then each default kernel
    alone (its lane-batched path where it has one), per tier. Each figure
    is the median of KERNEL_PASSES passes."""
    import pyarrow.compute as pc

    from tsfeatures_ray.kernels import DEFAULT_FEATURES
    from tsfeatures_ray.stages.features import FeatureKernels

    def timed(fk, table) -> float:
        passes = []
        for _ in range(KERNEL_PASSES):
            t = 0.0
            for off in range(0, table.num_rows, KERNEL_BATCH):
                b = table.slice(off, KERNEL_BATCH)
                t0 = time.perf_counter()
                fk(b)
                t += time.perf_counter() - t0
            passes.append(t)
        return statistics.median(passes)

    out = {"features.kernel_s": timed(FeatureKernels(), packed)}
    by_tier = {t: packed.filter(pc.equal(packed["tier"], t)) for t in TIERS}
    for f in DEFAULT_FEATURES:
        fk = FeatureKernels(features=[f.__name__])
        for tier, tbl in by_tier.items():
            us = timed(fk, tbl) / tbl.num_rows * 1e6 if tbl.num_rows else 0.0
            out[f"kernels.{f.__name__}.{tier}_us"] = us
    return out


def layer_metrics(inp, tr: Tracer, traced: dict, untraced_job_s: float, work_out: str) -> dict:
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    st = tr.self_times()
    m = {
        "sources.read_s": st.get("sources.read", 0.0),
        "rollup.s": st.get("rollup", 0.0),
        "rollup.merge_s": st.get("rollup.merge", 0.0),
        "pack.s": st.get("pack", 0.0),
        "features.s": st.get("features", 0.0),
        "compress.s": st.get("compress", 0.0),
        "compress.decode_s": st.get("compress.decode", 0.0),
        "retention.compact_s": st.get("retention.compact", 0.0),
        "retention.expire_s": st.get("retention.expire", 0.0),
        "lineage.s": st.get("lineage", 0.0),
        "sink.s": st.get("sink", 0.0),
    }
    job_span = next(s for s in tr.spans if s["name"] == "job")
    m["trace.overhead_s"] = (job_span["end"] - job_span["start"]) - untraced_job_s
    result = traced["result"]
    points = filled = 0
    if os.path.exists(os.path.join(work_out, "rollup")):
        roll = pq.read_table(os.path.join(work_out, "rollup"), columns=["filled"])
        points = roll.num_rows
        filled = int(pc.sum(roll["filled"]).as_py() or 0)
    m["rollup.points"] = points
    m["rollup.filled_share"] = filled / points if points else 0.0
    nbytes = 0
    if os.path.exists(os.path.join(work_out, "blocks")):
        blocks = pq.read_table(os.path.join(work_out, "blocks"), columns=["block"])
        nbytes = int(pc.sum(pc.binary_length(blocks["block"])).as_py())
    m["compress.bytes"] = nbytes
    m["compress.bytes_per_point"] = nbytes / points if points else 0.0
    retained = os.path.join(work_out, "retained")
    m["retention.rows_out"] = (pq.read_table(retained, columns=["tier"]).num_rows
                               if os.path.exists(retained) else 0)
    lin = result.get("lineage", {})
    m["lineage.partitions"] = lin.get("computed", 0) + lin.get("skipped", 0)

    packed = workloads.packed_series(inp, result)
    m["pack.series"] = m["features.series"] = packed.num_rows
    for tier in TIERS:
        lens = packed.filter(pc.equal(packed["tier"], tier))["n_buckets"].to_numpy()
        for q in (50, 99):
            m[f"pack.len_p{q}.{tier}"] = float(np.percentile(lens, q)) if len(lens) else 0.0
    m.update(kernel_times(packed))
    m["features.dispatch_s"] = m["features.s"] - m["features.kernel_s"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # ray_temp_dir may reach the checkout through this
    work = os.path.join(ROOT, ".pbw", f"{args.workload}-{args.seed}-{args.trace}")
    workloads.clear(work)
    os.makedirs(work)
    # the engine reads this once, at import: one directory per process
    synth_dir = os.path.join(ROOT, ".pbw", f"synth{os.getpid()}")
    os.environ["TSF_RAY_SYNTH_DIR"] = synth_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    try:
        return run(args, work, synth_dir)
    finally:
        for name in ("out", "panel.parquet", "new_day.parquet"):
            workloads.clear(os.path.join(work, name))
        workloads.clear(synth_dir)


def run(args, work: str, synth_dir: str) -> int:
    steal0 = procstat.steal_ticks()
    phases = Phases()
    with phases("inputs"):
        inp = workloads.make_inputs(args.workload, args.seed, work)
    log("inputs", json.dumps(inp.stats))
    with phases("import"):
        import_engine()  # fails here, before Ray starts, when the engine is missing
    from tsfeatures_ray.sources import synth

    engine_dir = getattr(synth, "CACHE_ROOT", synth_dir)
    if engine_dir != synth_dir:  # else the engine would synthesize its own input
        raise RuntimeError(f"engine reads transcripts from {engine_dir}, not {synth_dir}")
    num_cpus = procstat.nproc()
    ray_dirs = (ray_temp_dir(), plasma_dir())
    try:
        setups, retries, reps, tracer, traced = sessions(args, inp, work, num_cpus, ray_dirs, phases)
        ok_reps = [r for r in reps if r["ok"]]
        with phases("checks"):
            fails = run_checks(inp, os.path.join(work, "out", "rep0"), reps[0], args.seed)
        metrics = None
        if args.trace and traced["ok"] and ok_reps:
            with phases("layers"):
                job_s = statistics.median(r["job_s"] for r in ok_reps)
                metrics = layer_metrics(inp, tracer, traced, job_s,
                                        os.path.join(work, "out", "traced"))
            tracer.dump(os.path.join(work, "spans.json"))
    finally:
        with phases("stop"):
            stop_ray()
        for d in ray_dirs:
            if d:
                workloads.clear(d)

    for f in fails:
        log("check failed:", f)
    runs = reps + ([traced] if traced else [])
    # the checks judge rep 0; equal digests carry that verdict to every
    # other job, unequal ones mean the outputs are not reproducible
    ok_runs = [r for r in runs if r["ok"]]
    if fails or len({r["digest"] for r in ok_runs}) > 1:
        log("outputs fail their checks or differ between jobs")
        ok_runs = []
    if not ok_reps or (args.trace and metrics is None):
        log("no job completed:", [r.get("error") for r in runs])
        return 1
    if not args.trace:
        metrics = {
            "job_s": statistics.median(r["job_s"] for r in ok_reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in ok_reps),
            "setup_s": phases.total["import"] + statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_reps),
        }

    ctx = procstat.context(num_cpus)
    ctx.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inp.stats, "ray_temp_dir": ray_dirs[0],
        "ray_plasma_dir": ray_dirs[1] or "/dev/shm", "setup_retries": retries,
        "steal_s": (procstat.steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK"),
        "phases_s": phases.total, "setups_s": setups,
        "jobs": [{k: r.get(k) for k in ("job_s", "cpu_s", "peak_rss_mb", "digest", "error")}
                 for r in runs],
        "check_failures": fails,
    })
    with open(os.path.join(work, "context.json"), "w") as f:
        json.dump(ctx, f, indent=1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": len(ok_runs) == len(runs),
        "attempted": len(runs),
        "failed": len(runs) - len(ok_runs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def run_checks(inp, out: str, rep: dict, seed: int) -> list[str]:
    """The workload's output checks on one job; a check that raises is
    a failed check."""
    if not rep["ok"]:
        return []
    try:
        return workloads.check(inp, out, rep["result"], seed)
    except Exception as e:
        return [f"a check raised {type(e).__name__}: {e}"]


def set_up(num_cpus: int, ray_dirs) -> tuple[float, int]:
    """One session's set-up (``ray.init`` to a warm worker pool) and the
    number of failed attempts before it; an attempt that raises is shut
    down and retried in a fresh session."""
    for attempt in range(SETUP_TRIES):
        t0 = time.perf_counter()
        try:
            start_ray(num_cpus, *ray_dirs)
            warm(num_cpus)
            return time.perf_counter() - t0, attempt
        except Exception as e:
            log(f"set-up attempt {attempt} failed: {type(e).__name__}: {e}")
            stop_ray()
            if attempt == SETUP_TRIES - 1:
                raise


def sessions(args, inp, work, num_cpus, ray_dirs, phases):
    """SETUPS Ray sessions one after the other, each timed from
    ``ray.init`` to a warm worker pool and each running its share of the
    jobs, so the jobs are spread over the whole run; the traced job runs
    in the last session, which is left open."""
    setups, retries, reps = [], 0, []
    job = workloads.JOBS[args.workload]
    share = args.seconds / SETUPS
    for i in range(SETUPS):
        if i:
            with phases("stop"):
                stop_ray()
        dt, failed = set_up(num_cpus, ray_dirs)
        setups.append(dt)
        retries += failed
        phases.add("setup", setups[-1])
        t_end = time.perf_counter() + share
        n0 = len(reps)
        with phases("jobs"):
            # one job at least; another while the share has time left
            while len(reps) == n0 or (time.perf_counter() < t_end and len(reps) < MAX_REPS):
                reps.append(measure_job(job, inp, work, len(reps)))
    tracer = traced = None
    if args.trace:
        with phases("traced"):
            tracer, traced = traced_job(inp, work)
    return setups, retries, reps, tracer, traced


class Phases:
    """Wall time per phase of the run, for the run-context record."""

    def __init__(self):
        self.total: dict[str, float] = {}

    def add(self, name: str, dt: float) -> None:
        self.total[name] = self.total.get(name, 0.0) + dt

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)


def measure_job(job, inp, work: str, i: int) -> dict:
    """One untraced job; keeps only rep 0's outputs (for the checks)."""
    out = os.path.join(work, "out", f"rep{i}")
    rec = run_job(job, inp, out)
    if rec["ok"]:
        rec["digest"] = workloads.digest(inp, out)
        # Ray datasets die with their session; keep the plain values
        rec["result"] = {k: v for k, v in rec["result"].items() if not hasattr(v, "materialize")}
    if i:
        workloads.clear(out)
    log(f"job {i}: {rec['job_s']:.3f}s cpu {rec['cpu_s']:.3f}s "
        f"rss {rec['peak_rss_mb']:.0f}MiB {rec.get('digest', rec.get('error'))}")
    return rec


def traced_job(inp, work: str) -> tuple[Tracer, dict]:
    """One job with a span around every layer call, plus the pruned
    read alone and, for flagship, the read-back alone."""
    tracer = Tracer(f"{inp.workload}-{inp.seed}")
    out = os.path.join(work, "out", "traced")
    with tracer.span("sources.read"):
        workloads.read_source(inp)
    traced = run_job(workloads.JOBS[inp.workload], inp, out, tracer)
    if traced["ok"]:
        traced["digest"] = workloads.digest(inp, out)
        if inp.workload == "flagship":
            from tsfeatures_ray.stages.compress import decode_block

            with tracer.span("compress.decode"):
                for b in workloads.block_bytes(out):
                    decode_block(b)
    return tracer, traced


if __name__ == "__main__":
    sys.exit(main())
