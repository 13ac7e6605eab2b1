"""End-to-end benchmark of pettis-forge's certified reports.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]   # every table
    python3 bench/run.py --self-test

Each workload generates its config files from the seed in a scratch
directory under ``bench/results/``, then runs the CLI's staged path
(config load, model build, campaign, render, write) again and again for
``--seconds`` seconds in a child process of its own.  Every pass reads the
same inputs, except on pairing-strat12, whose untraced run cycles through
sixteen campaign seeds drawn from ``--seed`` (see ``input_seeds``).
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half in a second process with span wrappers around the
package's public functions, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts report rows; ``failed`` counts rows whose pass flag is
0 or whose assertion does not hold when recomputed here, plus every row of
a pass that was wrong as a whole (wrong row count, violations, or report
bytes that differ between two renders or between passes), so
``failed / attempted`` is the fail ratio.  The results, with provenance and
the SHA-256 of every report and archive, are written to
``bench/results/BENCH_<workload>_seed<seed>_trace<t>.json``.

End-to-end metrics (medians over the timed passes; the first pass of a run
warms up and is left out):

    total_s      config file to report bytes written
    setup_s      config load and model build; on archive-d16 also archive
                 build, verify, write, reload and re-verify
    rows_per_s   report rows / (campaign + render time)
    peak_rss_mb  peak resident memory of the measuring process
    written_mb   bytes a pass writes: the report, plus the archive on
                 archive-d16

Load is a closed loop: one caller in one single-threaded process.
``--workload all`` runs every workload untraced and traced and prints each
table with its fail ratio; its last line is a summary, not a result line.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import asdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

DEFAULT_SEED = 20260810
DEFAULT_SECONDS = 30.0
#: A child that has not finished by then is killed; a run stays under 180 s.
RUN_LIMIT_S = 170.0
#: Plain passes every workload makes at least: a warm-up pass, whose
#: timings are left out of the medians, and three timed passes.
MIN_ITERATIONS = 4

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "written_mb": "MB",
}
TRACE_EXTRA = {"trace.total_s": "s", "trace.overhead_s": "s"}


class BenchError(Exception):
    """A run that cannot produce a result; the process exits non-zero."""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        if not os.path.isfile(os.path.join(SRC, "pettis_forge", "__init__.py")):
            raise BenchError(f"no pettis_forge sources under {SRC}")
        if args.self_test:
            return self_test()
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_table([result])
    print(json.dumps(result["line"], sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: int, tiny: bool = False
) -> dict:
    w = workloads.WORKLOADS[name]
    started = time.time()
    provenance = _provenance(seed)
    os.makedirs(RESULTS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    try:
        seeds = [seed] if trace else input_seeds(w, seed)
        sized = w.tiny() if tiny else w
        inputs = [_write_inputs(sized, s, scratch, f"run{i}") for i, s in enumerate(seeds)]
        common = {"name": name, "inputs": inputs, "tiny": tiny, "scratch": scratch, "started": started}
        if trace:
            plain = _child(**common, budget=seconds / 2, min_iterations=1)
            traced = _child(**common, budget=seconds / 2, min_iterations=1, traced=True)
        else:
            cli_inputs = _write_inputs(w.tiny(), seed, scratch, "cli")
            plain = _child(
                **common, budget=seconds, min_iterations=MIN_ITERATIONS, cli_inputs=cli_inputs
            )
            traced = None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    children = [c for c in (plain, traced) if c is not None]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    cli_ok = plain.get("cli_check", {"equal": True})["equal"]
    if not plain["iterations"] or (traced is not None and not traced["iterations"]):
        raise BenchError(f"{name}: no pass completed:\n" + "\n".join(errors))
    if trace:
        metrics = _layer_metrics(plain, traced)
    else:
        metrics = _end_to_end(plain)
    line = {
        "correct": failed == 0 and cli_ok and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    result = {
        "line": line,
        "workload": name,
        "why": w.why,
        "sizes": (w.tiny() if tiny else w).sizes(),
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance,
        "fail_ratio": failed / attempted,
        "input_seeds": seeds,
        "digests": plain["references"],
        "cli_check": plain.get("cli_check"),
        "errors": errors,
        "absent": traced.get("absent", []) if traced else [],
        "spread": _spread(plain),
        "plain": plain,
        "traced": traced,
        "wall_s": time.time() - started,
    }
    if not tiny:
        _write_result(f"BENCH_{name}_seed{seed}_trace{trace}.json", result)
    return result


def input_seeds(w, seed: int) -> list[int]:
    """The campaign seeds of one untraced run: ``seed`` first, then seeds
    drawn from it.  A workload whose cost depends on the seed cycles
    through several, so that one run's median covers several inputs; the
    traced run reads the first alone, so that the difference between its
    halves is the cost of tracing."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1, 2**31) for _ in range(w.inputs_per_run - 1)]


def _write_inputs(w, seed: int, scratch: str, tag: str) -> dict:
    directory = os.path.join(scratch, tag)
    os.makedirs(directory)
    return asdict(workloads.write_inputs(w, seed, directory))


def _child(
    name: str,
    inputs: list[dict],
    tiny: bool,
    scratch: str,
    started: float,
    budget: float,
    min_iterations: int,
    traced: bool = False,
    cli_inputs: dict | None = None,
) -> dict:
    out = os.path.join(scratch, f"child-{int(traced)}.json")
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", name,
        "--inputs", json.dumps(inputs),
        "--out", out,
        "--budget", repr(budget),
        "--min-iterations", str(min_iterations),
    ]
    if traced:
        cmd.append("--traced")
    if tiny:
        cmd.append("--tiny")
    if cli_inputs:
        cmd += ["--cli-inputs", json.dumps(cli_inputs)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    timeout = RUN_LIMIT_S - (time.time() - started)
    try:
        # The child's own output goes to stderr; stdout carries the result.
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    if os.path.commonpath([result["package"], SRC]) != SRC:
        raise BenchError(f"pettis_forge was imported from {result['package']}, not {SRC}")
    return result


def _timed(child: dict) -> list[dict]:
    """Passes whose timings count: all but the first, when there are more.
    The worker stops after whole cycles of its inputs, so each input has
    the same weight in these."""
    its = child["iterations"]
    return its[1:] if len(its) > 1 else its


def _end_to_end(plain: dict) -> dict:
    its = _timed(plain)
    values = {
        "total_s": statistics.median(i["total_s"] for i in its),
        "setup_s": statistics.median(i["setup_s"] for i in its),
        "rows_per_s": statistics.median(i["rows_per_s"] for i in its),
        "peak_rss_mb": plain["peak_rss_mb"],
        "written_mb": statistics.median(i["written_bytes"] for i in its) / 1e6,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _layer_metrics(plain: dict, traced: dict) -> dict:
    out = {}
    for metric in traced["layers"][0]:
        unit = PER_LAYER[metric][0]
        # median_low keeps counts whole: every pass of one input counts alike.
        value = statistics.median_low(layer[metric] for layer in traced["layers"])
        out[metric] = {"value": value, "unit": unit}
    traced_total = statistics.median(i["total_s"] for i in _timed(traced))
    plain_total = statistics.median(i["total_s"] for i in _timed(plain))
    extra = {"trace.total_s": traced_total, "trace.overhead_s": traced_total - plain_total}
    out.update({k: {"value": v, "unit": TRACE_EXTRA[k]} for k, v in extra.items()})
    return out


def _spread(child: dict) -> dict:
    """Median, quartiles and sample count of the per-pass end-to-end times."""
    out = {}
    for key in ("total_s", "setup_s", "campaign_s", "render_s", "write_s", "rows_per_s"):
        values = [i[key] for i in _timed(child)]
        q = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
        out[key] = {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}
    return out


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def _provenance(seed: int) -> dict:
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "seed": seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "load": "closed loop, one caller, one single-threaded process",
    }


def _git_revision() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _write_result(filename: str, result: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, filename), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_table(results: list[dict]) -> None:
    for r in results:
        print(
            f"{r['workload']} (seed {r['provenance']['seed']}, trace {r['trace']}): "
            f"fail_ratio {r['fail_ratio']:.6g} ({r['line']['failed']}/{r['line']['attempted']} rows), "
            f"correct {r['line']['correct']}"
        )
        for name, m in r["line"]["metrics"].items():
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
        for seed, d in zip(r["input_seeds"], r["digests"]):
            print(f"  seed {seed}: report sha256 {d['report_sha256']}")
            if d["archive_sha256"]:
                print(f"  seed {seed}: archive sha256 {d['archive_sha256']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, in one table and one file."""
    results = [
        run_workload(name, seed, seconds, trace) for name in workloads.WORKLOADS for trace in (0, 1)
    ]
    print_table(results)
    _write_result(f"BENCH_all_seed{seed}.json", {"runs": results})
    correct = all(r["line"]["correct"] for r in results)
    print(f"all workloads: correct {correct}")
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def self_test() -> int:
    """Every workload at its tiny size, untraced and traced: correct, and
    every declared metric present with its declared unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    whys = {d["name"]: d["why"] for d in declared["workloads"]}
    if whys != {w.name: w.why for w in workloads.WORKLOADS.values()}:
        problems.append(f"BENCHMARK.json workloads {whys} differ from workloads.py")
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            r = run_workload(name, DEFAULT_SEED, 0.2, trace, tiny=True)
            got = {k: v["unit"] for k, v in r["line"]["metrics"].items()}
            tag = f"{name} trace {trace}"
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {got} != declared {expected[trace]}")
            if not r["line"]["correct"] or r["line"]["failed"]:
                problems.append(f"{tag}: not correct: {r['errors']} {r['cli_check']}")
            if trace == 0 and not (r["cli_check"] or {}).get("equal"):
                problems.append(f"{tag}: staged bytes differ from cli.main: {r['cli_check']}")
            print(f"self-test {tag}: {len(got)} metrics, {r['line']['attempted']} rows, {r['wall_s']:.1f} s")
    problems += _check_the_checks()
    problems += _check_absent()
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def _check_the_checks() -> list[str]:
    """The row checks must reject a row whose value breaks its assertion
    even when its pass flag still says 1."""
    w = workloads.WORKLOADS["lower-bound-ref24"]
    good = (
        "idx,lo,hi,measure,psi,lower,upper,pass\n"
        "0,0.0,0.5,0.5,0.5946035575013605,1.0,1.1,1\n"
    )
    bad = good.replace(",1.0,1.1,1", ",0.5,1.1,1")
    found = (workloads.failed_rows(w, good), workloads.failed_rows(w, bad))
    return [] if found == (0, 1) else [f"row check returned {found} for (good, bad) rows"]


def _check_absent() -> list[str]:
    """A wrapped function that no longer exists is reported as absent: its
    metrics are left out, not set to zero, and tracing still works."""
    import tracer

    sys.path.insert(0, SRC)
    renamed = [
        (t[0], t[1], t[2], "no_such_function", t[4]) if t[0] == "psi.tail_bound" else t
        for t in tracer.TARGETS
    ]
    tr = tracer.Tracer(renamed)
    tr.install()
    try:
        metrics, absent = tr.layer_metrics(tr.profile())
    finally:
        tr.uninstall()
    gone = {"psi.tail_bound.calls", "psi.tail_bound.self_s"}
    if set(absent) != gone or gone & set(metrics):
        return [f"renamed tail_bound gave absent {absent}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
