"""Child processes of the benchmark: input set-up, LP oracle, timed passes.

``run.py`` starts this file three ways:

``setup``   import the package and write the workload's inputs; the
            parent times the whole process, interpreter start included.
``oracle``  solve the week's minimum-CO2 LP with ``oracle.lp_min_co2``
            in its own process, so its memory stays out of the
            workload's peak RSS.
``run``     the workload process: passes until ``--seconds`` is used,
            each followed by the checks (untimed), then a JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import depotcharge  # noqa: E402,F401
import checks  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

# ------------------------------------------------------------------ passes


class Op:
    """One schedule produced by a top-level scheduling call."""

    def __init__(self, label, kind, instance, schedule, seconds, bed=None, emissions=None, weight=None):
        self.label = label
        self.kind = kind  # "plain", "co2" or "flat"
        self.instance = instance
        self.schedule = schedule
        self.seconds = seconds
        self.bed = bed
        self.emissions = emissions
        self.weight = weight
        self.problems: list[str] = []


def _weighted_op(label, instance, emissions, real_baseload, weights, schedule, seconds):
    factors = np.asarray(emissions.kg_per_kwh, dtype=float)
    real = np.zeros(instance.interval_count) if real_baseload is None else np.asarray(real_baseload.kwh)
    w = weights.flatness_weight
    if w == 0:
        return Op(label, "co2", instance, schedule, seconds, emissions=factors, weight=w)
    bed = real if math.isinf(w) else real + weights.co2_weight / (2.0 * w) * factors
    return Op(label, "flat", instance, schedule, seconds, bed=bed, emissions=factors, weight=w)


def collect_ops(tracer: tracing.Tracer) -> list[Op]:
    """Top-level scheduling spans of a pass, in call order, as checkable ops."""
    spans = tracer.spans
    ops = []
    for span in spans:
        if span.name not in tracing.SOLVE_NAMES or tracing.has_ancestor(spans, span, tracing.SOLVE_NAMES):
            continue
        seconds = span.end - span.start
        args = span.args
        root = spans[span.parent].label if span.parent >= 0 else ""
        prefix = f"{root}:" if root else ""
        if span.name == "baseline.solve_uncontrolled":
            ops.append(Op("uncontrolled", "plain", args[0], span.result, seconds))
        elif span.name == "flow.solve_min_co2":
            factors = np.asarray(args[1].kg_per_kwh, dtype=float)
            ops.append(Op("co2", "co2", args[0], span.result, seconds, emissions=factors))
        elif span.name == "flatten.solve_flatten":
            problem = args[0]
            instance = problem.instance
            if problem.baseload is None:
                bed, name = np.zeros(instance.interval_count), "independent"
            else:
                bed, name = np.asarray(problem.baseload.kwh, dtype=float), "coordinated"
            label = prefix + name if root else "flatten"
            ops.append(Op(label, "flat", instance, span.result, seconds, bed=bed))
        else:
            label = "weighted" if span.name == "weighted.solve_weighted" else f"sweep:{span.label}"
            ops.append(_weighted_op(label, *args[:4], span.result, seconds))
    return ops


def expected_labels(workload: str) -> list[str]:
    from depotcharge.weighted import DEFAULT_FLATNESS_SWEEP

    if workload == "week":
        sweep = [f"sweep:{tracing.weight_label(w)}" for w in DEFAULT_FLATNESS_SWEEP]
        return ["uncontrolled", "co2", "flatten", "weighted"] + sweep
    if workload == "capped-co2":
        return ["co2"]
    return [f"fleet{f}:{kind}" for f in workloads.FLEET_SEEDS for kind in ("independent", "coordinated")]


def check_ops(ops: list[Op], oracle: dict | None) -> None:
    keys: dict[int, str] = {}
    for op in ops:
        op.problems = checks.check_valid(op.instance, op.schedule)
        if op.kind == "co2":
            key = keys.setdefault(id(op.instance), workloads.instance_key(op.instance))
            if oracle is None or oracle["key"] != key:
                op.problems.append("co2-lp: no LP optimum for this instance")
            else:
                op.problems += checks.check_co2(op.schedule, op.emissions, oracle["objective"])
        elif op.kind == "flat":
            op.problems += checks.check_exchange(op.instance, op.schedule, op.bed)


def check_pass(workload: str, ops: list[Op], inputs: Path, out: Path) -> list[str]:
    """Checks that span the whole pass; problems here make the run incorrect."""
    labels = [op.label for op in ops]
    if labels != expected_labels(workload):
        return [f"pass: scheduling calls {labels} != {expected_labels(workload)}"]
    by_label = {op.label: op for op in ops}
    hours = ops[0].instance.horizon.interval_hours
    if workload == "fleet-4x":
        problems = []
        low, high = workloads.DUMMY_KW
        for fleet in workloads.FLEET_SEEDS:
            independent = by_label[f"fleet{fleet}:independent"]
            coordinated = by_label[f"fleet{fleet}:coordinated"]
            rugged = coordinated.bed
            if rugged.min() < low * hours or rugged.max() > high * hours:
                problems.append("flex-profiles: dummy baseload outside its range")
            problems += checks.check_flexibility_outputs(
                out / f"fleet{fleet}", independent.schedule, coordinated.schedule, rugged, hours
            )
        return problems

    baseload = checks.read_series(inputs / "baseload.csv")
    factors = checks.read_series(inputs / "emissions.csv")
    problems = []
    if not np.array_equal(by_label["co2"].emissions, factors):
        problems.append("pass: the solved emission factors differ from emissions.csv")
    if workload == "capped-co2":
        return problems + checks.check_week_outputs(
            out, {"co2": by_label["co2"].schedule}, None, baseload, factors, hours
        )
    if not np.array_equal(by_label["flatten"].bed, baseload):
        problems.append("pass: the solved baseload differs from baseload.csv")
    points = [(op.weight, op.schedule) for op in ops if op.label.startswith("sweep:")]
    co2, flat, weighted = by_label["co2"], by_label["flatten"], by_label["weighted"]
    problems += checks.check_sweep(points, co2.schedule, flat.schedule, factors, baseload)
    problems += checks.check_dominance(
        [(weighted.weight, weighted.schedule)], co2.schedule, flat.schedule, factors, baseload
    )
    scenarios = {label: by_label[label].schedule for label in ("uncontrolled", "co2", "flatten", "weighted")}
    return problems + checks.check_week_outputs(out, scenarios, points, baseload, factors, hours)


# -------------------------------------------------------------- self-tests


def self_tests(
    workload: str, ops: list[Op], oracle: dict | None, inputs: Path, out: Path, scratch: Path
) -> dict[str, bool]:
    """Spoil the first pass's outputs one way at a time; each check must object.

    Returns ``{name: rejected}``.
    """
    by_label = {op.label: op for op in ops}
    results: dict[str, bool] = {}

    def expect(name: str, tag: str, problems_or_none) -> None:
        results[name] = problems_or_none is not None and checks.rejects(problems_or_none, tag)

    def spoiled_outputs(relpath: str, row: int, column: int) -> Path:
        copy = checks.spoiled_copy(out, scratch)
        checks.spoil_csv_cell(copy / relpath, row, column)
        return copy

    first = checks.digests(out)
    changed = dict(first)
    name = sorted(changed)[0]
    changed[name] = "0" * 64
    expect("rerun: a changed output file", "rerun", checks.check_rerun(first, changed))

    if workload == "fleet-4x":
        op = by_label["fleet1:coordinated"]
        spoiled = checks.spoil_short_delivery(op.instance, op.schedule)
        expect("validate: energy removed from a job", "validate",
               spoiled and checks.check_valid(op.instance, spoiled))
        spoiled = checks.spoil_exchange(op.instance, op.schedule, op.bed)
        expect("exchange: energy moved into a fuller interval", "exchange",
               spoiled and checks.check_exchange(op.instance, spoiled, op.bed))
        independent = by_label["fleet1:independent"]
        hours = op.instance.horizon.interval_hours
        for relpath, column, tag in (
            ("fleet1/flexibility_report.csv", 2, "flex-report"),
            ("fleet1/flexibility_profiles.csv", 2, "flex-profiles"),
        ):
            row = _nonzero_row(out / relpath, column)
            copy = spoiled_outputs(relpath, row, column)
            expect(f"{tag}: an edited cell", tag, checks.check_flexibility_outputs(
                copy / "fleet1", independent.schedule, op.schedule, op.bed, hours))
        expect("flex-stacked: coordinated peak above the stacked peaks", "flex-stacked",
               checks.check_stacked(100.0, 50.0, 150.5))
        return results

    co2 = by_label["co2"]
    baseload = checks.read_series(inputs / "baseload.csv")
    factors = co2.emissions
    hours = co2.instance.horizon.interval_hours
    spoiled = checks.spoil_short_delivery(co2.instance, co2.schedule)
    expect("validate: energy removed from a job", "validate",
           spoiled and checks.check_valid(co2.instance, spoiled))
    spoiled = checks.spoil_co2(co2.instance, co2.schedule, factors)
    expect("co2-lp: CO2 total 1e-6 relative above the optimum", "co2-lp",
           spoiled and checks.check_co2(spoiled, factors, oracle["objective"]))

    if workload == "capped-co2":
        spoiled = checks.spoil_cap(co2.instance, co2.schedule)
        expect("validate: an interval pushed over its cap", "validate",
               spoiled and checks.check_valid(co2.instance, spoiled))
        scenarios, points = {"co2": co2.schedule}, None
        edits = (("report.csv", 0, 2, "report"), ("profiles.csv", None, 2, "profiles"))
    else:
        flat = by_label["flatten"]
        spoiled = checks.spoil_exchange(flat.instance, flat.schedule, flat.bed)
        expect("exchange: energy moved into a fuller interval", "exchange",
               spoiled and checks.check_exchange(flat.instance, spoiled, flat.bed))
        points = [(op.weight, op.schedule) for op in ops if op.label.startswith("sweep:")]
        swapped = list(points)
        swapped[3], swapped[4] = (points[3][0], points[4][1]), (points[4][0], points[3][1])
        expect("sweep-monotone: two sweep rows swapped", "sweep-monotone",
               checks.check_sweep(swapped, co2.schedule, flat.schedule, factors, baseload))
        moved = points[:-1] + [(points[-1][0], by_label["weighted"].schedule)]
        expect("sweep-endpoint: w=inf replaced by the weighted schedule", "sweep-endpoint",
               checks.check_sweep(moved, co2.schedule, flat.schedule, factors, baseload))
        expect("sweep-dominance: a point replaced by uncontrolled charging", "sweep-dominance",
               checks.check_dominance([(1.0, by_label["uncontrolled"].schedule)],
                                      co2.schedule, flat.schedule, factors, baseload))
        scenarios = {label: by_label[label].schedule for label in ("uncontrolled", "co2", "flatten", "weighted")}
        edits = (
            ("report.csv", 2, 2, "report"),
            ("profiles.csv", None, 4, "profiles"),
            ("sweep.csv", 5, 3, "sweep.csv"),
        )
    for relpath, row, column, tag in edits:
        row = _nonzero_row(out / relpath, column) if row is None else row
        copy = spoiled_outputs(relpath, row, column)
        expect(f"{tag}: an edited cell in {relpath}", tag,
               checks.check_week_outputs(copy, scenarios, points, baseload, factors, hours))
    return results


def _nonzero_row(path: Path, column: int) -> int:
    _, rows = checks.read_csv(path)
    return next(k for k, row in enumerate(rows) if float(row[column]) != 0.0)


# ------------------------------------------------------------------ layers

#: Layer metrics a traced pass of each workload must show as non-zero, or
#: as exactly zero.  A zero where a layer is expected means the pipeline
#: no longer calls it through the wrapped name, and its figures would
#: read 0 without anyone noticing.
LAYERS_REACHED = {
    "week": ("flow.max_flow_calls", "flow.kernel_s"),
    "capped-co2": ("flow.solve_min_co2_s",),
    "fleet-4x": ("flow.max_flow_calls", "flow.kernel_s"),
}
LAYERS_UNREACHED = {"capped-co2": ("flow.max_flow_calls",)}


def check_layer_reach(workload: str, layers: dict[str, float]) -> list[str]:
    problems = [
        f"trace: {name} is 0, so the pass no longer reaches that layer through its traced name"
        for name in LAYERS_REACHED[workload] if not layers[name] > 0
    ]
    problems += [
        f"trace: {name} is {layers[name]:g}, expected 0 on {workload}"
        for name in LAYERS_UNREACHED.get(workload, ()) if layers[name] != 0
    ]
    return problems


def layer_self_tests(workload: str, layers: dict[str, float]) -> dict[str, bool]:
    """Each reach rule must reject a traced pass where it no longer holds."""
    results = {}
    for name in LAYERS_REACHED[workload]:
        results[f"trace: {name} read as 0"] = checks.rejects(
            check_layer_reach(workload, {**layers, name: 0.0}), "trace")
    for name in LAYERS_UNREACHED.get(workload, ()):
        results[f"trace: {name} read as 1"] = checks.rejects(
            check_layer_reach(workload, {**layers, name: 1.0}), "trace")
    return results


def layer_metrics(spans: list[tracing.Span]) -> dict[str, float]:
    from depotcharge.weighted import DEFAULT_FLATNESS_SWEEP

    def total(*names: str) -> float:
        return tracing.layer_seconds(spans, set(names))

    def count(name: str) -> int:
        return sum(1 for span in spans if span.name == name)

    m: dict[str, float] = {}
    m["flow.max_flow_calls"] = count("flow.max_flow")
    m["flow.max_flow_s"] = total("flow.max_flow")
    m["flow.kernel_s"] = total("flow.kernel")
    m["flow.wrapper_s"] = m["flow.max_flow_s"] - m["flow.kernel_s"]
    m["flow.residual_reachable_calls"] = count("flow.residual_reachable")
    m["flow.residual_reachable_s"] = total("flow.residual_reachable")
    m["flatten.solve_flatten_calls"] = count("flatten.solve_flatten")
    m["flatten.solve_flatten_s"] = total("flatten.solve_flatten")
    m["flatten.self_s"] = tracing.self_seconds(spans, {"flatten.solve_flatten"})
    m["weighted.solve_weighted_s"] = total("weighted.solve_weighted", "weighted.sweep_point")
    for weight in DEFAULT_FLATNESS_SWEEP:
        label = tracing.weight_label(weight)
        m[f"weighted.sweep_{label}_s"] = sum(
            span.end - span.start for span in spans
            if span.name == "weighted.sweep_point" and span.label == label
        )
    m["flow.solve_min_co2_s"] = total("flow.solve_min_co2")
    m["flow.build_network_s"] = total("flow.build_network")
    m["matching.match_week_s"] = total("matching.match_week")
    m["matching.to_jobs_s"] = total("matching.to_jobs")
    m["data.load_s"] = total("data.load")
    m["data.write_s"] = total("data.write")
    m["model.validate_schedule_s"] = total("model.validate_schedule")
    m["metrics.report_s"] = total("metrics.report")
    m["baseline.uncontrolled_s"] = total("baseline.solve_uncontrolled")
    m["cli.self_s"] = tracing.self_seconds(spans, {"cli.run_week", "cli.run_flexibility"})
    m["synth.timetable_s"] = total("synth.timetable")
    m["synth.series_s"] = total("synth.series")
    return m


# -------------------------------------------------------------- commands


def cmd_setup(args) -> int:
    workloads.build_inputs(args.workload, args.seed, Path(args.out))
    return 0


def cmd_oracle(args) -> int:
    from depotcharge.oracle import lp_min_co2

    inputs = Path(args.inputs)
    instance = workloads.instance_from_files(args.workload, inputs)
    factors = checks.read_series(inputs / "emissions.csv")
    solution = lp_min_co2(instance, factors)
    with open(args.result, "w") as handle:
        json.dump({"key": workloads.instance_key(instance), "objective": solution.objective}, handle)
    return 0


def cmd_run(args) -> int:
    workload, seed = args.workload, args.seed
    inputs, work = Path(args.inputs), Path(args.work)
    oracle = None
    if args.oracle:
        with open(args.oracle) as handle:
            oracle = json.load(handle)

    setup_layers = {}
    setup_records = []
    if args.trace:
        setup_tracer = tracing.Tracer()
        with tracing.patched(setup_tracer, tracing.LAYER_TARGETS), setup_tracer.span("setup"):
            workloads.build_inputs(workload, seed, work / "traced_setup")
        setup_layers = layer_metrics(setup_tracer.spans)
        setup_records = setup_tracer.records()

    min_passes = 3 if args.trace else 2
    problems: list[str] = []
    failures: dict[str, str] = {}
    attempted = failed = 0
    timings = {"run_s": [], "solve_s": [], "slowest_solve_s": [], "traced_run_s": []}
    layer_runs: list[dict[str, float]] = []
    pass_records = []
    first_digests = None
    self_test_results: dict[str, bool] = {}

    loop_start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 0
        out = work / f"pass{index}"
        tracer = tracing.Tracer()
        targets = tracing.SOLVE_TARGETS + (tracing.LAYER_TARGETS if traced else ())
        gc.collect()
        with tracing.patched(tracer, targets):
            start = time.perf_counter()
            workloads.run_pass(workload, seed, inputs, out, tracer)
            run_s = time.perf_counter() - start

        ops = collect_ops(tracer)
        check_ops(ops, oracle)
        attempted += len(ops)
        for op in ops:
            if op.problems:
                failed += 1
                failures.setdefault(op.label, op.problems[0])
        problems += [f"pass {index}: {p}" for p in check_pass(workload, ops, inputs, out)]
        current = checks.digests(out)
        if first_digests is None:
            first_digests = current
            self_test_results = self_tests(workload, ops, oracle, inputs, out, work / "spoiled")
        else:
            problems += [f"pass {index}: {p}" for p in checks.check_rerun(first_digests, current)]

        if traced:
            timings["traced_run_s"].append(run_s)
            layers = layer_metrics(tracer.spans)
            problems += [f"pass {index}: {p}" for p in check_layer_reach(workload, layers)]
            if index == 0:
                self_test_results.update(layer_self_tests(workload, layers))
            for name in ("synth.timetable_s", "synth.series_s"):
                layers[name] += setup_layers[name]
            layer_runs.append(layers)
        else:
            timings["run_s"].append(run_s)
            timings["solve_s"].append(sum(op.seconds for op in ops))
            timings["slowest_solve_s"].append(max(op.seconds for op in ops))
        pass_records.append({"pass": index, "traced": traced, "run_s": run_s, "spans": tracer.records()})
        del ops, tracer
        index += 1
        elapsed = time.perf_counter() - loop_start
        if index >= min_passes and elapsed + elapsed / index > args.seconds:
            break

    for name, rejected in self_test_results.items():
        if not rejected:
            problems.append(f"self-test: the check did not reject '{name}'")
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "self_tests": self_test_results,
        "passes": index,
        **timings,
    }
    if args.trace:
        layers = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        for name in layers:
            if name.endswith("_calls") and len({run[name] for run in layer_runs}) != 1:
                problems.append(f"trace: {name} differs between traced passes")
        layers["trace.overhead_s"] = statistics.median(timings["traced_run_s"]) - statistics.median(timings["run_s"])
        result["layers"] = layers
        with open(args.trace_file, "w") as handle:
            json.dump({"setup": setup_records, "passes": pass_records,
                       "columns": ["name", "label", "start", "end", "parent"]}, handle)
    result["problems"] = problems
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("setup", "oracle", "run"):
        command = sub.add_parser(name)
        command.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
        command.add_argument("--seed", type=int, default=0)
    sub.choices["setup"].add_argument("--out", required=True)
    sub.choices["oracle"].add_argument("--inputs", required=True)
    sub.choices["oracle"].add_argument("--result", required=True)
    run = sub.choices["run"]
    run.add_argument("--inputs", required=True)
    run.add_argument("--work", required=True)
    run.add_argument("--oracle")
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--trace-file")
    run.add_argument("--result", required=True)
    args = parser.parse_args()
    return {"setup": cmd_setup, "oracle": cmd_oracle, "run": cmd_run}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
