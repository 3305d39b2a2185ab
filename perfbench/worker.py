"""One batch of one workload, run in a fresh process.

Reads a job (JSON) on stdin, imports the library from ``<root>/src``, runs the
batch, and writes one JSON result on stdout.  The result carries the moment
the first timed operation started (``ready``, on the monotonic clock the
runner also reads), the timed sections, the data the runner checks against
the goldens, the library's cache counters over the timed region, the time of
the reference kernel it ran before importing the library, and the process's
peak RSS.  With ``trace`` set, the library's
layers are wrapped first and the result also carries the layer summary.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def reference_kernel() -> float:
    """Seconds a fixed piece of pure-Python work (dicts, tuples, sorting) takes.

    Every worker runs it first, before the library is imported, so it sees
    the host's speed and nothing of the library; the runner scales the
    end-to-end times by it.  Each run of a fresh process lands its objects
    at other addresses, so the runner averages it over every worker.  The
    garbage collector is off while it runs, as it makes no cycles.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(12345)
        counts: dict[tuple, int] = {}
        for i in range(100_000):
            key = tuple(sorted((rng.randrange(40), rng.randrange(40), i % 11)))
            counts[key] = counts.get(key, 0) + 1
        rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        sum(a * b for (a, b, _), _ in rows[:5000])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _import_library(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import unipotent_atlas

    if not Path(unipotent_atlas.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"unipotent_atlas was imported from {unipotent_atlas.__file__}, not {src}")
    return unipotent_atlas


class Timing:
    """Marks the start of a batch's timed region.

    ``start()`` resets the tracer, so per-layer figures leave out any
    warm-up, snapshots the cache counters at the same point, and returns the
    monotonic moment the runner measures set-up time to.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.caches_before = None

    def start(self) -> float:
        if self.tracer is not None:
            self.tracer.reset()
        self.caches_before = {m: tracing.cache_stats(m) for m in workloads.CACHES}
        return time.monotonic()

    def caches(self) -> dict:
        """Entries now, and hits and misses since ``start()``, per module."""
        out = {}
        for m in workloads.CACHES:
            entries, hits, misses = tracing.cache_stats(m)
            _, hits0, misses0 = self.caches_before[m]
            out[m] = {"entries": entries, "hits": hits - hits0, "misses": misses - misses0}
        return out


def _run(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.operation(name, fn, *args)


def run_verify(job, timing) -> dict:
    from unipotent_atlas import oracle

    tracer = timing.tracer
    battery = tuple(job["sizes"]["battery"])
    ready = timing.start()
    t0 = time.perf_counter()
    try:
        reports = _run(tracer, "bench.verify", oracle.run_all, *battery)
        error = None
    except Exception as exc:  # a crash is a failed operation, reported to the runner
        reports, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    out = {"ready": ready, "ops": [wall], "wall_s": wall, "error": error}
    if reports is not None:
        out["check"] = {
            "reports": len(reports),
            "passed": sum(1 for r in reports if r.passed),
            "claims_digest": workloads.claims_digest((r.claim, r.group) for r in reports),
        }
    return out


def run_atlas(job, timing) -> dict:
    from unipotent_atlas import cli

    tracer = timing.tracer
    ops, outputs = [], []
    out_bytes = 0
    error = None
    ready = timing.start()
    for argv in job["sizes"]["atlas"]:
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = _run(tracer, "bench.atlas", cli.main, list(argv))
        except Exception as exc:  # a crash is a failed operation
            error = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
            break
        ops.append(time.perf_counter() - t0)
        text = buf.getvalue()
        out_bytes += len(text.encode("utf-8"))
        outputs.append({"exit": code, "sha256": workloads.digest(text)})
    return {"ready": ready, "ops": ops, "wall_s": sum(ops), "outputs": outputs,
            "output_bytes": out_bytes, "error": error}


def query_answerer():
    from unipotent_atlas import (
        Char, ClassParam, EpsilonMap, Family, GroupSpec, Partition, cli,
        is_extra_class, label, phi1, phi2,
    )

    def answer(q: dict) -> str:
        """The document ``label --format json`` prints for the query, built
        with the CLI's own payload helpers."""
        G = GroupSpec(Family(q["group"]), q["dim"], Char.TWO if q["char"] == "2" else Char.GOOD)
        C = ClassParam(G, Partition.parse(q["blocks"]), EpsilonMap.parse(q["eps"]))
        doc = {
            "schema": cli.SCHEMA,
            **C.to_json(),
            "label": label(C),
            "extra": is_extra_class(C),
            "phi1": cli._phi1_json(phi1(C)),
            "phi2": cli._phi2_json(phi2(C)),
        }
        return json.dumps(doc)

    return answer


def run_query(job, timing) -> dict:
    from unipotent_atlas.errors import ResourceLimitError

    tracer = timing.tracer
    answer = query_answerer()
    for q in job["warmup"]:
        try:
            answer(q)
        except ResourceLimitError:
            pass
    ops, answers = [], []
    ready = timing.start()
    t0 = time.perf_counter()
    for q in job["queries"]:
        t = time.perf_counter()
        try:
            result = ("ok", _run(tracer, "bench.query", answer, q))
        except ResourceLimitError as exc:
            result = ("refused", str(exc))
        except Exception as exc:  # a crash is a failed operation
            result = ("error", f"{type(exc).__name__}: {exc}")
        ops.append(time.perf_counter() - t)
        answers.append(result)
    wall = time.perf_counter() - t0
    return {"ready": ready, "ops": ops, "wall_s": wall, "answers": answers, "error": None}


RUNNERS = {"verify": run_verify, "atlas": run_atlas, "query": run_query}


def _layers(tracer) -> dict:
    layers = {"functions": tracer.layer_summary(), "constructed": dict(tracer.constructed)}
    layers["inverse_calls"] = tracer.calls.get("richardson.parabolic_from_blocks", 0)
    layers["inverse_forward_calls"] = tracer.calls_within(
        "richardson.richardson_jordan_blocks", "richardson.parabolic_from_blocks"
    )
    layers["levi_calls"] = tracer.calls.get("classes.minimal_levi", 0)
    layers["levi_classes"] = tracer.distinct_keys("classes.minimal_levi")
    return layers


def main() -> int:
    reference_s = reference_kernel()
    job = json.load(sys.stdin)
    root = Path(job["root"])
    _import_library(root)
    tracer = None
    missing: list[str] = []
    if job["trace"]:
        # modules a workload imports lazily must be loaded before wrapping
        for module in workloads.LAYER_FUNCTIONS:
            __import__(f"unipotent_atlas.{module}")
        tracer = tracing.Tracer()
        functions = [(m, f) for m, fs in workloads.LAYER_FUNCTIONS.items() for f in fs]
        missing = tracing.install_all(
            tracer, functions, workloads.CONSTRUCTORS,
            keyed={"classes.minimal_levi": lambda C, *rest: (C.group, C.lam, C.eps)},
        )
    timing = Timing(tracer)
    result = RUNNERS[job["workload"]](job, timing)
    result["reference_s"] = reference_s
    result["caches"] = timing.caches()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = _layers(tracer)
        result["missing"] = missing
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
