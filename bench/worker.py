"""One workload's measured iterations, in a process of their own.

``run.py`` starts this script once per mode so that the peak resident
memory it reports belongs to the workload alone and so that the tracing
wrappers exist only in the traced process.  The result goes to the JSON
file named by ``--out``.

    python3 bench/worker.py --workload NAME --inputs JSON-LIST --out PATH
                            --budget SECONDS [--traced] [--min-iterations N]
                            [--tiny] [--cli-inputs JSON]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from workloads import Inputs

#: No iteration starts when it would be expected to end past this, so one
#: slow iteration cannot push the run past its time limit.
HARD_CAP_S = 110.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--min-iterations", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--cli-inputs", default=None)
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    inputs = [Inputs(**obj) for obj in json.loads(args.inputs)]
    out: dict = {"workload": w.name, "traced": args.traced, "errors": []}

    import pettis_forge

    out["package"] = os.path.dirname(pettis_forge.__file__)
    if args.cli_inputs:
        out["cli_check"] = cli_check(w.tiny(), Inputs(**json.loads(args.cli_inputs)))

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        measure(w, inputs, args.budget, args.min_iterations, tracer, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


def measure(w, inputs: list[Inputs], budget: float, min_iterations: int, tracer, out: dict) -> None:
    """Passes until the budget is spent: a warm-up pass on inputs[0], then
    whole cycles through ``inputs``.  The first pass on each input sets the
    reference digests and row check the later ones must match."""
    clock = time.perf_counter
    started = clock()
    iterations: list[dict] = []
    layers: list[dict] = []
    profile: dict = {}  # span table of the first traced pass
    references: list[dict] = []  # per input
    attempted = failed = 0
    expected = w.expected_rows()
    wall: list[float] = []
    while True:
        # Each pass starts from a collected heap, as a fresh CLI process
        # does, so the previous pass's garbage is not charged to this one.
        gc.collect()
        k = (len(iterations) - 1) % len(inputs) if iterations else 0
        t0 = clock()
        if tracer is not None:
            tracer.reset()
        try:
            it = workloads.run_iteration(w, inputs[k], tracer.span if tracer else None)
        except Exception:  # the run reports it as a wholly failed pass
            out["errors"].append(traceback.format_exc())
            attempted += expected
            failed += expected
            break
        if tracer is not None:
            prof = tracer.profile()
            metrics, absent = tracer.layer_metrics(prof)
            layers.append(metrics)
            out["absent"] = absent
            profile = profile or _profile_table(prof)
        # After the profile is taken, so the traced figures leave it out.
        rerender_equal = it.renders_same()
        digest = workloads.text_sha256(it.text)
        if k == len(references):
            references.append(
                {
                    "report_sha256": digest,
                    "archive_sha256": it.archive_sha256,
                    "failed_rows": _failed_rows(w, it.text, out),
                }
            )
        reference = references[k]
        wholly_failed = (
            it.rows != expected
            or it.report.violations != 0
            or not rerender_equal
            or digest != reference["report_sha256"]
            or it.archive_sha256 != reference["archive_sha256"]
        )
        attempted += expected
        failed += expected if wholly_failed else reference["failed_rows"]
        iterations.append(
            {
                "input": k,
                "total_s": it.total_s,
                "setup_s": it.setup_s,
                "campaign_s": it.campaign_s,
                "render_s": it.render_s,
                "write_s": it.write_s,
                "rows": it.rows,
                "rows_per_s": it.rows_per_s,
                "violations": it.report.violations,
                "rerender_equal": rerender_equal,
                "report_sha256": digest,
                "archive_sha256": it.archive_sha256,
                "written_bytes": it.written_bytes,
                "wholly_failed": wholly_failed,
            }
        )
        del it
        wall.append(clock() - t0)
        elapsed = clock() - started
        if elapsed + statistics.median(wall) > HARD_CAP_S:
            break
        if (len(iterations) - 1) % len(inputs):
            continue  # only whole cycles end a run within the budget
        if len(iterations) >= min_iterations and elapsed + len(inputs) * statistics.median(wall) > budget:
            break
    out.update(
        iterations=iterations,
        layers=layers,
        profile=profile,
        references=references,
        attempted=attempted,
        failed=failed,
        measured_s=clock() - started,
    )


def _failed_rows(w, text: str, out: dict) -> int:
    try:
        return workloads.failed_rows(w, text)
    except ValueError as exc:
        out["errors"].append(f"report check: {exc}")
        return w.expected_rows()


def _profile_table(prof: dict) -> dict:
    """Calls, self and inclusive time per span name for one traced pass."""
    return {
        name: {"calls": rec["calls"], "self_s": rec["self_s"], "s": rec["s"]}
        for name, rec in sorted(prof.items())
        if rec["calls"]
    }


def cli_check(w, inputs: Inputs) -> dict:
    """Staged path and ``cli.main`` must write the same bytes for one config."""
    try:
        it = workloads.run_iteration(w, inputs)
        staged_report = it.text.encode("utf-8")
        staged_archive = workloads.read_bytes(inputs.archive) if inputs.archive else None
        cli_report, cli_archive, code = workloads.cli_bytes(w, inputs)
    except Exception:  # reported as a failed check, not a crash
        return {"equal": False, "error": traceback.format_exc()}
    return {
        "equal": code == 0 and cli_report == staged_report and cli_archive == staged_archive,
        "exit_code": code,
        "report_sha256": workloads.text_sha256(it.text),
    }


if __name__ == "__main__":
    sys.exit(main())
