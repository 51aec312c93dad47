#!/usr/bin/env python3
"""Validate a machine-readable bench JSON (perf_sweep / perf_write_path /
perf_epoch / perf_stall).

Dispatches on the top-level "bench" field. For every bench the schema
(schema_version 1), field types, and internal consistency are checked
(speedups consistent with wall times, outcomes marked identical).
Absolute timing numbers are NOT gated — CI machines vary — but a
malformed file or a determinism failure exits nonzero.

With --compare REF.json the ratio metrics (engine/scenario speedups,
which divide out machine speed) are additionally compared against a
committed reference run of the same bench: any ratio more than
--threshold (default 10%) below the reference prints a regression
WARNING on stderr.  By default warnings do not change the exit status —
absolute gating on shared CI hardware would flake — they exist to make
a perf regression visible in the job log.  With --strict any such
warning turns into exit status 1, for jobs that want the regression
surfaced as a failed step (CI runs the strict compare under
continue-on-error so it shows red without blocking merges).  Comparing
different benches is an error; a reference with a different grid/config
is noted and skipped.

Usage: check_bench_json.py [--compare REF.json [--strict]] BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys


def fail(msg: str) -> "NoReturn":  # noqa: F821 - py3.8-compatible annotation
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def require_fields(obj: dict, spec: dict, where: str) -> None:
    for name, types in spec.items():
        require(name in obj, f"{where}: missing field '{name}'")
        value = obj[name]
        require(
            not isinstance(value, bool) and isinstance(value, types),
            f"{where}: field '{name}' has type {type(value).__name__}",
        )


def validate_perf_sweep(doc: dict) -> str:
    grid = doc.get("grid")
    require(isinstance(grid, dict), "grid must be an object")
    require_fields(
        grid,
        {
            "entries": int,
            "lines": int,
            "endurance": int,
            "endurance_variation": (int, float),
            "seeds": int,
            "threads": int,
        },
        "grid",
    )
    require(grid["entries"] > 0, "grid.entries must be positive")
    require(grid["lines"] > 0 and grid["lines"] & (grid["lines"] - 1) == 0,
            "grid.lines must be a positive power of two")

    engines = doc.get("engines")
    require(isinstance(engines, list) and len(engines) == 2, "engines must list two engines")
    names = []
    for engine in engines:
        require(isinstance(engine, dict), "engine entries must be objects")
        require_fields(
            engine,
            {
                "name": str,
                "wall_ms": (int, float),
                "writes": int,
                "writes_per_sec": (int, float),
                "alloc_calls": int,
                "alloc_bytes": int,
                "peak_rss_kb": int,
            },
            f"engine '{engine.get('name', '?')}'",
        )
        require(engine["wall_ms"] > 0, f"engine '{engine['name']}': wall_ms must be positive")
        names.append(engine["name"])
    require(names == ["v1_per_entry_fresh_banks", "v2_arena_chunked"],
            f"unexpected engine names/order: {names}")
    v1, v2 = engines
    require("bank_builds" in v2 and "bank_reuses" in v2,
            "v2 engine must report bank_builds/bank_reuses")
    require(v1["writes"] == v2["writes"],
            f"engines simulated different write counts: {v1['writes']} vs {v2['writes']}")

    require(isinstance(doc.get("speedup"), (int, float)), "speedup must be a number")
    expected = v1["wall_ms"] / v2["wall_ms"]
    require(abs(doc["speedup"] - expected) <= 0.01 * expected + 0.01,
            f"speedup {doc['speedup']} inconsistent with wall times ({expected:.3f})")

    require(doc.get("identical") is True, "outcomes were not bit-identical across engines")

    return (f"{grid['entries']} entries, speedup {doc['speedup']:.2f}x, "
            f"identical outcomes")


SCENARIO_NAMES = ("raa_loop", "rta_loop", "fail_stop", "blanket")


def validate_perf_write_path(doc: dict) -> str:
    config = doc.get("config")
    require(isinstance(config, dict), "config must be an object")
    require_fields(
        config,
        {
            "lines": int,
            "endurance_steady": int,
            "endurance_fail": int,
            "writes_per_scenario": int,
            "blanket_block": int,
        },
        "config",
    )
    require(config["lines"] > 0 and config["lines"] & (config["lines"] - 1) == 0,
            "config.lines must be a positive power of two")
    require(config["endurance_steady"] > config["endurance_fail"],
            "config: steady endurance must exceed fail_stop endurance")

    scenarios = doc.get("scenarios")
    require(isinstance(scenarios, list) and scenarios, "scenarios must be a non-empty list")
    seen = set()
    for sc in scenarios:
        require(isinstance(sc, dict), "scenario entries must be objects")
        require_fields(
            sc,
            {
                "scheme": str,
                "name": str,
                "per_write_ms": (int, float),
                "batched_ms": (int, float),
                "speedup": (int, float),
                "writes": int,
                "movements": int,
                "total_ns": int,
            },
            f"scenario '{sc.get('scheme', '?')}/{sc.get('name', '?')}'",
        )
        where = f"scenario '{sc['scheme']}/{sc['name']}'"
        require(sc["name"] in SCENARIO_NAMES, f"{where}: unknown scenario name")
        require(isinstance(sc.get("failed"), bool), f"{where}: 'failed' must be a boolean")
        require(sc.get("identical") is True, f"{where}: not bit-identical to the per-write loop")
        if sc["batched_ms"] > 0:
            expected = sc["per_write_ms"] / sc["batched_ms"]
            require(abs(sc["speedup"] - expected) <= 0.01 * expected + 0.01,
                    f"{where}: speedup {sc['speedup']} inconsistent with wall times")
        key = (sc["scheme"], sc["name"])
        require(key not in seen, f"{where}: duplicate scenario")
        seen.add(key)
    schemes = {s for s, _ in seen}
    for scheme in schemes:
        for name in SCENARIO_NAMES:
            require((scheme, name) in seen, f"scheme '{scheme}': missing scenario '{name}'")

    require(isinstance(doc.get("min_speedup_raa"), (int, float)),
            "min_speedup_raa must be a number")
    require(isinstance(doc.get("min_speedup_rta"), (int, float)),
            "min_speedup_rta must be a number")
    require(doc.get("identical") is True, "outcomes were not bit-identical across paths")

    return (f"{len(schemes)} schemes x {len(SCENARIO_NAMES)} scenarios, "
            f"min speedup raa {doc['min_speedup_raa']:.2f}x / "
            f"rta {doc['min_speedup_rta']:.2f}x, identical outcomes")


EPOCH_GRID_NAMES = ("table1_sr2_raa", "fig14_stages")


def validate_perf_epoch(doc: dict) -> str:
    config = doc.get("config")
    require(isinstance(config, dict), "config must be an object")
    require_fields(
        config,
        {
            "scheme_lines": int,
            "scheme_writes": int,
            "grid_lines": int,
            "grid_endurance": int,
            "fig14_lines": int,
            "fig14_endurance": int,
            "seeds": int,
        },
        "config",
    )
    for name in ("scheme_lines", "grid_lines", "fig14_lines"):
        require(config[name] > 0 and config[name] & (config[name] - 1) == 0,
                f"config.{name} must be a positive power of two")

    schemes = doc.get("schemes")
    require(isinstance(schemes, list) and schemes, "schemes must be a non-empty list")
    seen = set()
    for sc in schemes:
        require(isinstance(sc, dict), "scheme entries must be objects")
        require_fields(
            sc,
            {
                "scheme": str,
                "windowed_ms": (int, float),
                "epoch_ms": (int, float),
                "speedup": (int, float),
            },
            f"scheme '{sc.get('scheme', '?')}'",
        )
        where = f"scheme '{sc['scheme']}'"
        require(sc.get("identical") is True, f"{where}: not bit-identical across tiers")
        if sc["epoch_ms"] > 0:
            expected = sc["windowed_ms"] / sc["epoch_ms"]
            require(abs(sc["speedup"] - expected) <= 0.01 * expected + 0.01,
                    f"{where}: speedup {sc['speedup']} inconsistent with wall times")
        require(sc["scheme"] not in seen, f"{where}: duplicate scheme")
        seen.add(sc["scheme"])

    grids = doc.get("grids")
    require(isinstance(grids, list) and len(grids) == len(EPOCH_GRID_NAMES),
            f"grids must list {len(EPOCH_GRID_NAMES)} grids")
    for gr in grids:
        require(isinstance(gr, dict), "grid entries must be objects")
        require_fields(
            gr,
            {
                "name": str,
                "entries": int,
                "windowed_ms": (int, float),
                "epoch_ms": (int, float),
                "speedup": (int, float),
            },
            f"grid '{gr.get('name', '?')}'",
        )
        where = f"grid '{gr['name']}'"
        require(gr["entries"] > 0, f"{where}: entries must be positive")
        require(gr.get("identical") is True, f"{where}: not bit-identical across tiers")
        if gr["epoch_ms"] > 0:
            expected = gr["windowed_ms"] / gr["epoch_ms"]
            require(abs(gr["speedup"] - expected) <= 0.01 * expected + 0.01,
                    f"{where}: speedup {gr['speedup']} inconsistent with wall times")
    require([gr["name"] for gr in grids] == list(EPOCH_GRID_NAMES),
            f"unexpected grid names/order: {[gr['name'] for gr in grids]}")

    require(isinstance(doc.get("composite_speedup"), (int, float)),
            "composite_speedup must be a number")
    total_windowed = sum(gr["windowed_ms"] for gr in grids)
    total_epoch = sum(gr["epoch_ms"] for gr in grids)
    if total_epoch > 0:
        expected = total_windowed / total_epoch
        require(abs(doc["composite_speedup"] - expected) <= 0.01 * expected + 0.01,
                f"composite_speedup {doc['composite_speedup']} inconsistent "
                f"with grid wall times ({expected:.3f})")
    require(isinstance(doc.get("model_rel_err"), (int, float)),
            "model_rel_err must be a number")
    require(doc["model_rel_err"] < 0.10,
            f"model_rel_err {doc['model_rel_err']} exceeds the 10% gate")
    require(doc.get("identical") is True, "outcomes were not bit-identical across tiers")

    return (f"{len(schemes)} schemes + {len(grids)} grids, composite speedup "
            f"{doc['composite_speedup']:.2f}x, model rel err "
            f"{doc['model_rel_err']:.3f}, identical outcomes")


HIST_FIELDS = {
    "count": int,
    "sum": int,
    "min": int,
    "max": int,
    "p50": int,
    "p99": int,
    "p999": int,
}


def validate_perf_stall(doc: dict) -> str:
    config = doc.get("config")
    require(isinstance(config, dict), "config must be an object")
    require_fields(
        config,
        {
            "lines": int,
            "regions": int,
            "inner_interval": int,
            "outer_interval": int,
            "endurance": int,
            "seeds": int,
            "symbols": int,
            "victim_writes": int,
            "probe_writes": int,
        },
        "config",
    )
    require(config["lines"] > 0 and config["lines"] & (config["lines"] - 1) == 0,
            "config.lines must be a positive power of two")
    wps = config["victim_writes"] + config["probe_writes"] + config["inner_interval"]

    schemes = doc.get("schemes")
    require(isinstance(schemes, list) and schemes, "schemes must be a non-empty list")
    seen = set()
    for sc in schemes:
        require(isinstance(sc, dict), "scheme entries must be objects")
        require_fields(
            sc,
            {
                "scheme": str,
                "stages": int,
                "symbols": int,
                "mi_bits_per_symbol": (int, float),
                "capacity_bits_per_write": (int, float),
            },
            f"scheme '{sc.get('scheme', '?')}'",
        )
        where = f"scheme '{sc['scheme']}'"
        require(sc["scheme"] not in seen, f"{where}: duplicate scheme")
        seen.add(sc["scheme"])
        require(sc["symbols"] == config["symbols"] * config["seeds"],
                f"{where}: symbols must equal config.symbols * config.seeds")
        expected = sc["mi_bits_per_symbol"] / wps
        require(abs(sc["capacity_bits_per_write"] - expected) <= 0.01 * expected + 1e-9,
                f"{where}: capacity inconsistent with MI / writes-per-symbol")
        for hist in ("write_ns", "stall_ns"):
            h = sc.get(hist)
            require(isinstance(h, dict), f"{where}: {hist} must be an object")
            require_fields(h, HIST_FIELDS, f"{where}.{hist}")
            require(h["min"] <= h["p50"] <= h["p99"] <= h["p999"] <= h["max"],
                    f"{where}.{hist}: quantiles must be non-decreasing within [min, max]")
        require(sc["write_ns"]["count"] > 0, f"{where}: write_ns histogram is empty")

    require(schemes[0]["scheme"] == "rbsg", "schemes[0] must be the rbsg baseline")
    max_stages = max(sc["stages"] for sc in schemes[1:])
    require(schemes[-1]["stages"] == max_stages,
            "schemes[-1] must be security-rbsg at max stages")

    require(isinstance(doc.get("capacity_rbsg"), (int, float)),
            "capacity_rbsg must be a number")
    require(isinstance(doc.get("capacity_srbsg_max_stages"), (int, float)),
            "capacity_srbsg_max_stages must be a number")
    require(doc["capacity_rbsg"] == schemes[0]["capacity_bits_per_write"],
            "capacity_rbsg must repeat schemes[0].capacity_bits_per_write")
    require(doc["capacity_srbsg_max_stages"] == schemes[-1]["capacity_bits_per_write"],
            "capacity_srbsg_max_stages must repeat schemes[-1].capacity_bits_per_write")

    # The paper's claim as an empirical gate: the RBSG remap-timing
    # channel is live, and Security RBSG at max stages suppresses it.
    require(doc["capacity_rbsg"] > 0, "capacity_rbsg must be positive (channel dead?)")
    require(doc["capacity_srbsg_max_stages"] < doc["capacity_rbsg"],
            "security-rbsg capacity must stay below the rbsg baseline")
    require(doc.get("identical") is True,
            "traced runs were not bit-identical to untraced runs")

    suppression = doc["capacity_rbsg"] / max(doc["capacity_srbsg_max_stages"], 1e-12)
    return (f"{len(schemes)} schemes, rbsg channel "
            f"{doc['capacity_rbsg']:.4f} bits/write, suppressed "
            f"{suppression:.1f}x at {max_stages} stages, identical outcomes")


VALIDATORS = {
    "perf_sweep": validate_perf_sweep,
    "perf_write_path": validate_perf_write_path,
    "perf_epoch": validate_perf_epoch,
    "perf_stall": validate_perf_stall,
}


def load_and_validate(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot parse {path}: {exc}")

    require(isinstance(doc, dict), f"{path}: top level must be an object")
    require(doc.get("schema_version") == 1, f"{path}: schema_version must be 1")
    require(doc.get("telemetry_schema") in (1, 2),
            f"{path}: telemetry_schema must be 1 or 2 (the JSONL trace layout "
            "the binary links)")
    bench = doc.get("bench")
    require(bench in VALIDATORS,
            f"{path}: bench must be one of {sorted(VALIDATORS)}, got {bench!r}")
    summary = VALIDATORS[bench](doc)
    print(f"check_bench_json: OK: [{bench}] {summary}")
    return doc


def _shape_of(doc: dict) -> dict:
    """The workload description; ratio comparisons only make sense when
    the current run and the reference ran the same workload.  Thread
    count is machine configuration, not workload, so it is excluded."""
    shape = dict(doc["grid"] if doc["bench"] == "perf_sweep" else doc["config"])
    shape.pop("threads", None)
    return shape


def _ratio_metrics(doc: dict) -> dict:
    """Machine-independent ratio metrics (bigger is better)."""
    if doc["bench"] == "perf_sweep":
        return {"speedup": doc["speedup"]}
    if doc["bench"] == "perf_stall":
        # Capacity ratios are machine-independent (simulated time only);
        # the suppression factor is the headline security metric.
        metrics = {
            "rbsg capacity (bits/write)": doc["capacity_rbsg"],
            "suppression ratio": doc["capacity_rbsg"]
            / max(doc["capacity_srbsg_max_stages"], 1e-12),
        }
        for sc in doc["schemes"]:
            metrics[f"{sc['scheme']} MI (bits/symbol)"] = sc["mi_bits_per_symbol"]
        return metrics
    if doc["bench"] == "perf_epoch":
        metrics = {"composite_speedup": doc["composite_speedup"]}
        for sc in doc["schemes"]:
            metrics[f"{sc['scheme']} speedup"] = sc["speedup"]
        for gr in doc["grids"]:
            metrics[f"{gr['name']} speedup"] = gr["speedup"]
        return metrics
    metrics = {
        "min_speedup_raa": doc["min_speedup_raa"],
        "min_speedup_rta": doc["min_speedup_rta"],
    }
    for sc in doc["scenarios"]:
        metrics[f"{sc['scheme']}/{sc['name']} speedup"] = sc["speedup"]
    return metrics


def compare(doc: dict, ref: dict, ref_path: str, threshold: float) -> int:
    """Warns (stderr) for each ratio metric > threshold below the
    reference; returns the warning count."""
    require(doc["bench"] == ref["bench"],
            f"--compare: bench mismatch ({doc['bench']} vs {ref['bench']})")
    if _shape_of(doc) != _shape_of(ref):
        print(f"check_bench_json: NOTE: {ref_path} ran a different "
              "grid/config — ratio comparison skipped", file=sys.stderr)
        return 0
    current, reference = _ratio_metrics(doc), _ratio_metrics(ref)
    warnings = 0
    for name in sorted(reference):
        if name not in current or reference[name] <= 0:
            continue
        drop = (reference[name] - current[name]) / reference[name]
        if drop > threshold:
            print(f"check_bench_json: WARNING: {name} regressed "
                  f"{drop:.0%} vs {ref_path} "
                  f"({current[name]:.2f} vs {reference[name]:.2f})",
                  file=sys.stderr)
            warnings += 1
    if warnings:
        print(f"check_bench_json: WARNING: {warnings} ratio metric(s) more "
              f"than {threshold:.0%} below the reference", file=sys.stderr)
    else:
        print(f"check_bench_json: OK: no ratio metric more than "
              f"{threshold:.0%} below {ref_path}")
    return warnings


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", help="bench JSON to validate")
    parser.add_argument("--compare", metavar="REF.json", default=None,
                        help="committed reference run to compare ratio "
                             "metrics against (warnings only)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression that triggers a warning "
                             "(default: %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="with --compare: exit 1 when any ratio metric "
                             "regresses past the threshold")
    args = parser.parse_args()

    doc = load_and_validate(args.bench_json)
    if args.compare:
        ref = load_and_validate(args.compare)
        warnings = compare(doc, ref, args.compare, args.threshold)
        if args.strict and warnings:
            print(f"check_bench_json: FAIL (--strict): {warnings} ratio "
                  "regression(s)", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
