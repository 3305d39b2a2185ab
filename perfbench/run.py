"""Benchmark runner for unipotent-atlas.

    python3 perfbench/run.py --workload {verify,atlas,query} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The runner starts one fresh worker
process per batch, one at a time, until the next batch would end past
``--seconds``; every worker imports the library from ``src/``.  Outputs are
checked against goldens captured from the baseline library.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  End-to-end times are scaled to a reference host
speed each worker measures (see ``end_to_end``).  Lines before
it name every metric with its unit, the tail percentile used, failures and
refusals, the unscaled figures, and an environment record.

Without a library under ``src/`` (or without the goldens) the runner exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import querygen  # noqa: E402
import workloads as wl  # noqa: E402

#: Fewest batches an untraced run measures, whatever --seconds says.
MIN_BATCHES = 3
#: A run stops starting workers after this many seconds, so it ends within 180 s.
HARD_STOP_S = 150.0
SPANS_DIR = ROOT / ".perfbench"
#: Seconds the worker's reference kernel is scaled to; near its time on the
#: 2-vCPU host the baseline was measured on, so scaled figures read close to
#: unscaled ones.
REFERENCE_S = 0.25


# -- environment ------------------------------------------------------------------


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(load_before) -> dict:
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
    }


# -- jobs -----------------------------------------------------------------------------


def make_job(workload: str, seed: int, k: int, sizes: wl.Sizes, pool: list[dict]) -> dict:
    """The inputs of batch k of a workload, a function of the seed alone."""
    job = {
        "workload": workload,
        "root": str(ROOT),
        "sizes": {"battery": list(sizes.battery), "atlas": [list(a) for a in sizes.atlas]},
    }
    if workload == "query":
        rng = random.Random(f"{seed}/{k}")
        job["queries"] = querygen.sample_stream(pool, rng.getrandbits(64), sizes.batch_queries)
        job["warmup"] = querygen.sample_stream(pool, rng.getrandbits(64), sizes.warmup_queries)
    return job


def run_worker(job: dict, trace: bool, timeout: float, spans_path: Path | None = None) -> dict:
    """Run one batch in a fresh process; the result gains ``setup_s``, or
    ``error`` when the worker failed.  Set-up leaves out the worker's
    reference kernel, which is the benchmark's, not the library's."""
    job = dict(job, trace=trace, spans_path=str(spans_path) if spans_path else None)
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s", "timed_out": True}
    if proc.returncode != 0:
        return {"error": f"worker exited with code {proc.returncode}"}
    try:
        result = json.loads(out)
    except json.JSONDecodeError:
        return {"error": "worker printed no result"}
    result["setup_s"] = result["ready"] - spawned - result["reference_s"]
    return result


# -- checking -----------------------------------------------------------------------


def check_batch(workload: str, job: dict, res: dict, goldens: dict, sizes: wl.Sizes):
    """(attempted, failed, wrong, ok latencies in s, notes) for one batch."""
    if workload == "query":
        queries = job["queries"]
        answers = res.get("answers") or []
        failed, refused, wrong, flags = wl.check_query(answers, queries, goldens["query"],
                                                      goldens["refused"])
        lat = [t for t, ok in zip(res.get("ops", []), flags) if ok]
        return len(queries), failed, wrong, lat, {"refused": refused}
    if workload == "atlas":
        flags = wl.check_atlas(res, goldens["atlas"], sizes.atlas)
        failed = flags.count(False)
        lat = [t for t, ok in zip(res["ops"], flags) if ok]
        return len(flags), failed, failed, lat, {}
    failed = wl.check_verify(res, goldens["verify"][wl.battery_key(sizes.battery)])
    lat = [res["wall_s"]] if not failed else []
    return 1, failed, failed, lat, {}


# -- metrics ----------------------------------------------------------------------------


def end_to_end(batches, latencies, attempted, failed) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced batches and the latencies of the
    operations that completed correctly.

    Times and rates are totals over every batch of the run, not medians of
    batches: the host's speed drifts over tens of seconds, and the whole run
    averages that drift where a median of batches jumps to whichever speed
    most batches ran at.  Every time is then scaled to the host speed at
    which the workers' reference kernel takes REFERENCE_S on average (a rate
    inversely), because that speed drifts by tens of percent between runs
    minutes apart; the unscaled figures are printed in the ``info`` line.
    """
    n = len(latencies)
    q = wl.tail_percentile(n)
    info = {"samples": n, "tail_percentile": q if q is not None else 50.0,
            "tail_rule": "highest of %s with >= 10 samples beyond" % (wl.TAIL_LADDER,)
            if q is not None else "fewer than 20 samples: tail read at p50"}
    timed = sum(b["wall_s"] for b in batches)
    raw = {
        "wall_s": timed / len(batches),
        "op_per_s": n / timed if timed > 0 else 0.0,
        "op_p50_ms": wl.percentile(latencies, 50) * 1e3 if latencies else 0.0,
        "op_tail_ms": wl.percentile(latencies, info["tail_percentile"]) * 1e3
        if latencies else 0.0,
        "setup_s": wl.median([b["setup_s"] for b in batches]),
    }
    reference = sum(b["reference_s"] for b in batches) / len(batches)
    scale = REFERENCE_S / reference
    metrics = {
        "wall_s": (raw["wall_s"] * scale, "s"),
        "op_per_s": (raw["op_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "peak_rss_mb": (wl.median([b["peak_rss_mb"] for b in batches]), "MB"),
        "setup_s": (raw["setup_s"] * scale, "s"),
    }
    info["reference_s"] = reference
    info["unscaled"] = raw
    info["failed_ratio"] = failed / attempted if attempted else 0.0
    return metrics, info


def per_layer(traced, plain) -> dict:
    """Per-layer metrics, per batch, from the traced batches; the untraced
    batches of the same inputs give the tracing overhead."""
    n = len(traced)
    out: dict[str, tuple[float, str]] = {}
    for module, attrs in wl.LAYER_FUNCTIONS.items():
        for attr in attrs:
            name = f"{module}.{attr}"
            rows = [b["layers"]["functions"].get(name, {"calls": 0, "self_s": 0.0}) for b in traced]
            out[f"{name}.calls"] = (sum(r["calls"] for r in rows) / n, "count")
            out[f"{name}.self_s"] = (sum(r["self_s"] for r in rows) / n, "s")
    for module, cls in wl.CONSTRUCTORS:
        name = f"{module}.{cls}"
        out[f"{name}.constructed"] = (
            sum(b["layers"]["constructed"].get(name, 0) for b in traced) / n, "count")
    for module, prefix in wl.CACHES.items():
        stats = [b["caches"][module] for b in traced]
        out[f"{prefix}.entries"] = (wl.median([s["entries"] for s in stats]), "count")
        if module == "partitions":
            hits = sum(s["hits"] for s in stats)
            lookups = hits + sum(s["misses"] for s in stats)
            out[f"{prefix}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    inv = sum(b["layers"]["inverse_calls"] for b in traced)
    fwd = sum(b["layers"]["inverse_forward_calls"] for b in traced)
    out["richardson.inverse_hit_ratio"] = (inv / fwd if fwd else 0.0, "ratio")
    levi = sum(b["layers"]["levi_calls"] for b in traced)
    classes = sum(b["layers"]["levi_classes"] for b in traced)
    out["balacarter.analyses_per_class"] = (levi / classes if classes else 0.0, "ratio")
    out["oracle.reports"] = (sum(b.get("check", {}).get("reports", 0) for b in traced) / n, "count")
    out["cli.output_bytes"] = (sum(b.get("output_bytes", 0) for b in traced) / n, "bytes")
    ratio = wl.median([b["wall_s"] for b in traced]) / wl.median([b["wall_s"] for b in plain])
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


# -- the run ------------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: wl.Sizes = wl.SIZES, goldens: dict | None = None, log=sys.stdout) -> dict:
    """Run the batches of one workload and return the result object."""
    goldens = goldens if goldens is not None else wl.load_goldens()
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        for old in SPANS_DIR.glob(f"spans-{workload}-*.tsv"):
            old.unlink()
    plain, traced = [], []
    attempted = failed = wrong = 0
    latencies: list[float] = []
    notes: dict[str, int] = {}
    errors: list[str] = []
    start = time.monotonic()
    k = 0
    timed_out = False
    while True:
        job = make_job(workload, seed, k, sizes, goldens["pool"])
        k += 1
        for traced_run in (False, True) if trace else (False,):
            spans = SPANS_DIR / f"spans-{workload}-{k}.tsv" if traced_run else None
            res = run_worker(job, traced_run, HARD_STOP_S + 25.0 - (time.monotonic() - start), spans)
            timed_out = timed_out or res.get("timed_out", False)
            if res.get("error"):
                errors.append(res["error"])
            if "ready" not in res:  # the worker crashed: every operation of its batch failed
                n = wl.ops_per_batch(workload, sizes)
                attempted += n
                failed += n
                wrong += n
                break
            a, f, w, lat, extra = check_batch(workload, job, res, goldens, sizes)
            if traced_run:
                traced.append(res)
                wrong += w
                continue
            plain.append(res)
            attempted += a
            failed += f
            wrong += w
            latencies.extend(lat)
            for key, v in extra.items():
                notes[key] = notes.get(key, 0) + v
        elapsed = time.monotonic() - start
        if elapsed > HARD_STOP_S or timed_out:
            break
        if not plain and k >= MIN_BATCHES:
            break
        enough = len(plain) >= MIN_BATCHES and (traced or not trace)
        if enough and elapsed + elapsed / k > seconds:
            break
    if not plain or (trace and not traced):
        raise RuntimeError("no batch completed: " + "; ".join(errors[:3]))
    if trace:
        metrics = per_layer(traced, plain)
        info = {"traced_batches": len(traced), "plain_batches": len(plain),
                "spans_dir": str(SPANS_DIR.relative_to(ROOT))}
        missing = sorted({m for b in traced for m in b.get("missing", [])})
        if missing:
            info["not_found"] = missing
    else:
        metrics, info = end_to_end(plain, latencies, attempted, failed)
        info["batches"] = len(plain)
    info.update(notes)
    info["attempted"], info["failed"], info["wrong"] = attempted, failed, wrong
    if errors:
        info["errors"] = errors[:5]
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}", file=log)
    print("info " + json.dumps(info, sort_keys=True), file=log)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "atlas", "query"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unipotent_atlas" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'unipotent_atlas'}", file=sys.stderr)
        return 2
    try:
        goldens = wl.load_goldens()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load the goldens: {exc}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), goldens=goldens)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(load_before), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
