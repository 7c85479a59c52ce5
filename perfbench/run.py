"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` runs it with spans around each
layer call and reports the per-layer metrics.  The layers a workload
bypasses are measured by a short traced run of a workload that exercises
them, so every traced run reports every layer; the record names the
workload each metric came from.  The ``yardstick.*`` metrics are left out
when scipy is not installed.  The last line of standard output is the
result object; a fuller record (provenance, seed, server start-up lines,
spans) is written under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from common import REPO_ROOT, SRC_DIR, stop_children, write_record

WORKLOADS = ("sweep", "serve", "ingest")
#: Length of the short traced runs that measure the layers a workload bypasses.
LAYER_PROBE_SECONDS = 4.0


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "sweep":
        import sweep

        return sweep.run(seed, seconds, trace)
    if name == "ingest":
        import ingest

        return ingest.run(seed, seconds, trace)
    import serve

    return serve.run(seed, seconds, trace)


def _traced(name: str, seed: int, seconds: float, layers: list) -> dict:
    """The workload's traced run, completed by short traced runs of the
    other workloads for the ``layers`` it does not measure itself."""
    result = _run_workload(name, seed, seconds, True)
    metrics = result["metrics"]
    source = dict.fromkeys(metrics, name)
    probe_spans = {}
    for other in WORKLOADS:
        missing = [m for m in layers if m not in metrics]
        if other == name or not missing:
            continue
        probe = _run_workload(other, seed, LAYER_PROBE_SECONDS, True)
        for m in missing:
            if m in probe["metrics"]:
                metrics[m] = probe["metrics"][m]
                source[m] = other
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["checks_ok"] = result["checks_ok"] and probe["checks_ok"]
        probe_spans[other] = probe["record"].get("spans")
    result["record"].update(metric_source=source, probe_spans=probe_spans)
    return result


def select_metrics(spec: dict, measured: dict, trace: bool) -> dict:
    """The reported metrics, in ``BENCHMARK.json`` order and units.

    Every end-to-end (untraced) or per-layer (traced) metric must have been
    measured, except that the ``yardstick.*`` metrics are dropped when
    scipy is not installed.
    """
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name in measured:
            out[name] = {"value": float(measured[name]), "unit": metric["unit"]}
        elif not (trace and name.startswith("yardstick.")):
            raise SystemExit(f"metric {name!r} was not measured")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"no repro package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    from repro.obs.provenance import provenance_block

    trace = bool(args.trace)
    if trace:
        layers = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("yardstick.")]
        result = _traced(args.workload, args.seed, args.seconds, layers)
    else:
        result = _run_workload(args.workload, args.seed, args.seconds, trace)
    metrics = select_metrics(spec, result["metrics"], trace)
    attempted, failed = result["attempted"], result["failed"]
    line = {
        "correct": bool(result["checks_ok"] and failed == 0 and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance_block(),
        "result": line,
        "error_share": failed / max(1, attempted),
        "all_metrics": result["metrics"],
        **result["record"],
    }
    path = write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(f"record: {os.path.relpath(path, REPO_ROOT)}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)  # unwind, so the servers stop too
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
