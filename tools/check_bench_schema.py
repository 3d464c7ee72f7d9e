#!/usr/bin/env python3
"""Validates the uniform BENCH_*.json schema every bench binary emits.

Every report written through obs::BenchReport starts with the same
header block; figure-regression tooling keys off it, so CI fails fast
when a bench drifts from the contract:

    {
      "bench": "<name>",          # string, matches the file name
      "schema_version": 2,        # integer, bumped on breaking change
      "events_per_cell": <uint>,  # 0 when not event-driven
      "threads": <uint>,          # worker count used for the run
      "provenance": {             # v2: run reproducibility block
        "git_sha": "<sha>",       # build-time commit ("unknown" ok)
        "git_dirty": <bool>,      # tree had uncommitted changes
        "host_cpus": <uint>,      # hardware concurrency of the host
        "knobs": {"DEWRITE_*": "<value>" | null, ...}
      },
      ...                         # bench-specific payload
    }

With no FILES arguments, checks every BENCH_*.json in the current
directory (override with --glob-dir).

Exit codes: 0 all reports valid, 1 malformed report or none found,
2 usage error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

SCHEMA_VERSION = 2
HEADER = ("bench", "schema_version", "events_per_cell", "threads",
          "provenance")

# The per-stage host-cycle breakdown the throughput bench emits per
# scheme (matches DedupEngine's stage gauges).
STAGES = ("digest", "probe", "pad", "confirm_read", "commit")


class SchemaError(Exception):
    """One report violated the contract; str() is the diagnostic."""


def fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


def _is_uint(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_provenance(path: str, report: dict) -> None:
    """The v2 provenance block: commit, dirty flag, host shape, and a
    verbatim capture of every DEWRITE_* knob (null = unset)."""
    prov = report.get("provenance")
    if not isinstance(prov, dict):
        fail(path, "'provenance' must be an object")
    sha = prov.get("git_sha")
    if not isinstance(sha, str) or not sha:
        fail(path, "provenance 'git_sha' must be a non-empty string")
    if not isinstance(prov.get("git_dirty"), bool):
        fail(path, "provenance 'git_dirty' must be a boolean")
    if not _is_uint(prov.get("host_cpus")):
        fail(path, "provenance 'host_cpus' must be a non-negative "
                   "integer")
    knobs = prov.get("knobs")
    if not isinstance(knobs, dict):
        fail(path, "provenance 'knobs' must be an object")
    for name, value in knobs.items():
        if not name.startswith("DEWRITE_"):
            fail(path, f"provenance knob {name!r} is not a DEWRITE_* "
                       "name")
        if value is not None and not isinstance(value, str):
            fail(path, f"provenance knobs[{name!r}] must be a string "
                       "or null")


def check_throughput_payload(path: str, report: dict) -> None:
    """BENCH_throughput carries per-scheme fingerprints, stage cycles
    and events/sec ratios."""
    schemes = report.get("schemes")
    if not isinstance(schemes, list) or not schemes:
        fail(path, "'schemes' must be a non-empty array")
    for entry in schemes:
        if not isinstance(entry, dict):
            fail(path, "'schemes' entries must be objects")
        name = entry.get("scheme")
        if not isinstance(name, str) or not name:
            fail(path, "scheme entry missing 'scheme' name")
        if not _is_uint(entry.get("result_fingerprint")):
            fail(path, f"scheme {name!r}: 'result_fingerprint' must be "
                       "a non-negative integer")
        # stage_cycles is optional: schemes without stage gauges
        # (e.g. secure-baseline, or runs without DEWRITE_STAGE_PROFILE)
        # omit the block rather than writing all zeros.
        stage_cycles = entry.get("stage_cycles")
        if stage_cycles is not None:
            if not isinstance(stage_cycles, dict):
                fail(path, f"scheme {name!r}: 'stage_cycles' must be "
                           "an object when present")
            for stage in STAGES:
                if not _is_number(stage_cycles.get(stage)) \
                        or stage_cycles.get(stage) < 0:
                    fail(path, f"scheme {name!r}: "
                               f"stage_cycles[{stage!r}] must be a "
                               "non-negative number")

    ratios = report.get("ratios")
    if not isinstance(ratios, dict):
        fail(path, "'ratios' must be an object")
    for name, value in ratios.items():
        if not _is_number(value) or value < 0:
            fail(path, f"ratios[{name!r}] must be a non-negative number")


def check_detection_payload(path: str, report: dict) -> None:
    """BENCH_detection carries the per-policy sweep plus the decision
    parity block pinning the confirming policies to confirm-read."""
    if not _is_uint(report.get("adaptive_epoch_writes")) \
            or report.get("adaptive_epoch_writes") < 1:
        fail(path, "'adaptive_epoch_writes' must be a positive integer")

    policies = report.get("policies")
    if not isinstance(policies, list) or not policies:
        fail(path, "'policies' must be a non-empty array")
    names = set()
    for entry in policies:
        if not isinstance(entry, dict):
            fail(path, "'policies' entries must be objects")
        name = entry.get("policy")
        if not isinstance(name, str) or not name:
            fail(path, "policy entry missing 'policy' name")
        names.add(name)
        if not _is_uint(entry.get("detection_fingerprint")):
            fail(path, f"policy {name!r}: 'detection_fingerprint' must "
                       "be a non-negative integer")
        for key in ("wall_seconds", "events_per_sec", "avg_detect_ns",
                    "confirm_reads", "confirm_reads_avoided",
                    "strong_fp_computes", "write_reduction"):
            if not _is_number(entry.get(key)) or entry.get(key) < 0:
                fail(path, f"policy {name!r}: {key!r} must be a "
                           "non-negative number")
    for required in ("confirm-read", "weak-only", "weak-strong",
                     "adaptive"):
        if required not in names:
            fail(path, f"'policies' is missing the {required!r} sweep")

    parity = report.get("parity")
    if not isinstance(parity, dict):
        fail(path, "'parity' must be an object")
    if parity.get("reference") != "confirm-read":
        fail(path, "parity 'reference' must be 'confirm-read'")
    for key in ("weak_strong_matches", "adaptive_matches"):
        if not isinstance(parity.get(key), bool):
            fail(path, f"parity {key!r} must be a boolean")


def check_detection_parity(path: str) -> None:
    """One detection report: the weak+strong and adaptive policies must
    have recorded the same decision fingerprint as confirm-read — the
    two-tier scheme changes timing, never verdicts, on collision-free
    traces."""
    report = load_file(path)
    check_report(path, report, check_name=False)
    if report["bench"] != "detection":
        fail(path, "--parity expects a service or detection report")
    prints = {e["policy"]: e["detection_fingerprint"]
              for e in report["policies"]}
    for policy in ("weak-strong", "adaptive"):
        if prints[policy] != prints["confirm-read"]:
            fail(path, f"parity mismatch for {policy!r}: "
                       f"{prints[policy]} vs confirm-read "
                       f"{prints['confirm-read']}")
    parity = report["parity"]
    for key in ("weak_strong_matches", "adaptive_matches"):
        if not parity[key]:
            fail(path, f"report flags {key}=false")


def check_service_payload(path: str, report: dict) -> None:
    """BENCH_service carries the shard-scaling sweep plus the per-shard
    service/reference fingerprint pairs the parity mode verifies."""
    if not _is_uint(report.get("host_cpus")) \
            or report.get("host_cpus") < 1:
        fail(path, "'host_cpus' must be a positive integer")

    configs = report.get("configs")
    if not isinstance(configs, list) or not configs:
        fail(path, "'configs' must be a non-empty array")
    for entry in configs:
        if not isinstance(entry, dict):
            fail(path, "'configs' entries must be objects")
        shards = entry.get("shards")
        if not _is_uint(shards) or shards < 1:
            fail(path, "config missing a positive 'shards' count")
        for key in ("threads", "events"):
            if not _is_uint(entry.get(key)):
                fail(path, f"config shards={shards}: {key!r} must be a "
                           "non-negative integer")
        for key in ("wall_seconds", "events_per_sec",
                    "speedup_vs_1shard"):
            if not _is_number(entry.get(key)) or entry.get(key) < 0:
                fail(path, f"config shards={shards}: {key!r} must be a "
                           "non-negative number")
        detail = entry.get("shards_detail")
        if not isinstance(detail, list) or len(detail) != shards:
            fail(path, f"config shards={shards}: 'shards_detail' must "
                       f"be an array of exactly {shards} entries")
        for shard in detail:
            if not isinstance(shard, dict) \
                    or not _is_uint(shard.get("shard")) \
                    or not _is_uint(shard.get("events")) \
                    or not _is_uint(shard.get("service_fingerprint")) \
                    or not _is_uint(shard.get("reference_fingerprint")):
                fail(path, f"config shards={shards}: shards_detail "
                           "entries need uint shard/events/"
                           "service_fingerprint/reference_fingerprint")

    if not isinstance(report.get("parity_ok"), bool):
        fail(path, "'parity_ok' must be a boolean")


def check_report(path: str, report: object,
                 check_name: bool = True) -> None:
    """Validate one parsed report; raises SchemaError on violation."""
    if not isinstance(report, dict):
        fail(path, "top level must be a JSON object")
    for key in HEADER:
        if key not in report:
            fail(path, f"missing required header key {key!r}")

    # The first keys must be the header, in order, so that a human
    # opening any report sees the provenance block first.
    if list(report)[: len(HEADER)] != list(HEADER):
        fail(path, f"header keys must lead the report, in order {HEADER}")

    bench = report["bench"]
    if not isinstance(bench, str) or not bench:
        fail(path, "'bench' must be a non-empty string")
    if check_name and os.path.basename(path) != f"BENCH_{bench}.json":
        fail(path, f"file name does not match bench name {bench!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        fail(path, f"schema_version must be {SCHEMA_VERSION}")
    for key in ("events_per_cell", "threads"):
        value = report[key]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            fail(path, f"{key!r} must be a non-negative integer")
    if report["threads"] < 1:
        fail(path, "'threads' must be at least 1")
    check_provenance(path, report)

    if bench == "throughput":
        check_throughput_payload(path, report)
    elif bench == "service":
        check_service_payload(path, report)
    elif bench == "detection":
        check_detection_payload(path, report)


def check_service_parity(path: str) -> None:
    """One service report: every shard of every configuration must have
    recorded identical service and reference fingerprints — the sharded
    run is bit-equivalent to N independent single-shard runs."""
    report = load_file(path)
    check_report(path, report, check_name=False)
    if report["bench"] != "service":
        fail(path, "--parity expects a service or detection report")
    for entry in report["configs"]:
        for shard in entry["shards_detail"]:
            if shard["service_fingerprint"] \
                    != shard["reference_fingerprint"]:
                fail(path, f"parity mismatch at shards="
                           f"{entry['shards']} shard {shard['shard']}: "
                           f"service {shard['service_fingerprint']} vs "
                           f"reference {shard['reference_fingerprint']}")
    if not report["parity_ok"]:
        fail(path, "report flags parity_ok=false")


def load_file(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(path, f"unreadable or invalid JSON: {error}")


def check_file(path: str) -> None:
    check_report(path, load_file(path))


def _provenance() -> dict:
    return {"git_sha": "abc123", "git_dirty": False, "host_cpus": 4,
            "knobs": {"DEWRITE_EVENTS": "6000", "DEWRITE_LOG": None}}


def self_test() -> int:
    """Seeded-violation check: the validator must accept a conforming
    report and name the defect in each broken variant."""
    good = {"bench": "fig04", "schema_version": SCHEMA_VERSION,
            "events_per_cell": 120000, "threads": 4,
            "provenance": _provenance(), "extra": [1, 2]}
    check_report("BENCH_fig04.json", good)

    def fig04(**overrides: object) -> dict:
        report = {"bench": "fig04", "schema_version": SCHEMA_VERSION,
                  "events_per_cell": 0, "threads": 1,
                  "provenance": _provenance()}
        report.update(overrides)
        return report

    broken = [
        ("missing required header key",
         {"bench": "fig04", "schema_version": SCHEMA_VERSION,
          "threads": 1, "provenance": _provenance()}),
        ("header keys must lead",
         {"extra": 1, **fig04()}),
        ("file name does not match", fig04(bench="other")),
        ("schema_version must be", fig04(schema_version=99)),
        ("non-negative integer", fig04(events_per_cell=True)),
        ("'threads' must be at least 1", fig04(threads=0)),
        ("'provenance' must be an object", fig04(provenance=[1])),
        ("'git_sha' must be a non-empty string",
         fig04(provenance={**_provenance(), "git_sha": ""})),
        ("'git_dirty' must be a boolean",
         fig04(provenance={**_provenance(), "git_dirty": "no"})),
        ("'host_cpus' must be a non-negative integer",
         fig04(provenance={**_provenance(), "host_cpus": -1})),
        ("'knobs' must be an object",
         fig04(provenance={**_provenance(), "knobs": None})),
        ("is not a DEWRITE_* name",
         fig04(provenance={**_provenance(),
                           "knobs": {"PATH": "/bin"}})),
        ("must be a string or null",
         fig04(provenance={**_provenance(),
                           "knobs": {"DEWRITE_EVENTS": 6000}})),
        ("top level must be a JSON object", [1, 2, 3]),
    ]
    for expect, report in broken:
        try:
            check_report("BENCH_fig04.json", report)
        except SchemaError as error:
            assert expect in str(error), (expect, str(error))
        else:
            raise AssertionError(f"accepted broken report: {expect}")

    def throughput() -> dict:
        return {"bench": "throughput", "schema_version": SCHEMA_VERSION,
                "events_per_cell": 6000, "threads": 1,
                "provenance": _provenance(),
                "schemes": [{"scheme": "secure-baseline",
                             "result_fingerprint": 7},
                            {"scheme": "dewrite-direct",
                             "result_fingerprint": 7,
                             "stage_cycles": {s: 0 for s in STAGES}}],
                "ratios": {"dewrite-predicted": 0.85}}

    # Both shapes must pass: a scheme with the stage block and one
    # without it (secure-baseline omits stage_cycles entirely).
    check_report("BENCH_throughput.json", throughput())

    broken_throughput = [
        ("'schemes' must be a non-empty array",
         {**throughput(), "schemes": []}),
        ("'result_fingerprint' must be",
         {**throughput(),
          "schemes": [{"scheme": "x", "result_fingerprint": -1,
                       "stage_cycles": {s: 0 for s in STAGES}}]}),
        ("'stage_cycles' must be an object when present",
         {**throughput(),
          "schemes": [{"scheme": "x", "result_fingerprint": 1,
                       "stage_cycles": [0, 1]}]}),
        ("stage_cycles['commit'] must be",
         {**throughput(),
          "schemes": [{"scheme": "x", "result_fingerprint": 1,
                       "stage_cycles": {s: 0 for s in STAGES
                                        if s != "commit"}}]}),
        ("'ratios' must be an object",
         {**throughput(), "ratios": [1.0]}),
    ]
    for expect, report in broken_throughput:
        try:
            check_report("BENCH_throughput.json", report)
        except SchemaError as error:
            assert expect in str(error), (expect, str(error))
        else:
            raise AssertionError(f"accepted broken report: {expect}")

    def service(reference: int = 7, parity_ok: bool = True) -> dict:
        return {"bench": "service", "schema_version": SCHEMA_VERSION,
                "events_per_cell": 6000, "threads": 1,
                "provenance": _provenance(),
                "host_cpus": 1, "tenants": 16,
                "configs": [{"shards": 1, "threads": 1, "events": 6000,
                             "wall_seconds": 0.5,
                             "events_per_sec": 12000.0,
                             "speedup_vs_1shard": 1.0,
                             "shards_detail": [
                                 {"shard": 0, "events": 6000,
                                  "service_fingerprint": 7,
                                  "reference_fingerprint": reference}]}],
                "parity_ok": parity_ok}

    check_report("BENCH_service.json", service())

    broken_service = [
        ("'host_cpus' must be a positive integer",
         {**service(), "host_cpus": 0}),
        ("'configs' must be a non-empty array",
         {**service(), "configs": []}),
        ("missing a positive 'shards' count",
         {**service(),
          "configs": [{**service()["configs"][0], "shards": 0}]}),
        ("'speedup_vs_1shard' must be a non-negative number",
         {**service(),
          "configs": [{**service()["configs"][0],
                       "speedup_vs_1shard": -1.0}]}),
        ("'shards_detail' must be an array of exactly",
         {**service(),
          "configs": [{**service()["configs"][0],
                       "shards_detail": []}]}),
        ("shards_detail entries need uint",
         {**service(),
          "configs": [{**service()["configs"][0],
                       "shards_detail": [{"shard": 0, "events": 1,
                                          "service_fingerprint": 7}]}]}),
        ("'parity_ok' must be a boolean",
         {**service(), "parity_ok": "yes"}),
    ]
    for expect, report in broken_service:
        try:
            check_report("BENCH_service.json", report)
        except SchemaError as error:
            assert expect in str(error), (expect, str(error))
        else:
            raise AssertionError(f"accepted broken report: {expect}")

    def detection(strong: int = 7, adaptive: int = 7,
                  strong_flag: bool = True) -> dict:
        def policy(name: str, fingerprint: int) -> dict:
            return {"policy": name, "cells": 20, "events": 120000,
                    "wall_seconds": 0.5, "events_per_sec": 240000.0,
                    "avg_detect_ns": 40.0, "confirm_reads": 100.0,
                    "confirm_reads_avoided": 50.0,
                    "strong_fp_computes": 60.0,
                    "write_reduction": 0.4,
                    "detection_fingerprint": fingerprint}
        return {"bench": "detection", "schema_version": SCHEMA_VERSION,
                "events_per_cell": 6000, "threads": 1,
                "provenance": _provenance(),
                "adaptive_epoch_writes": 512,
                "policies": [policy("confirm-read", 7),
                             policy("weak-only", 9),
                             policy("weak-strong", strong),
                             policy("adaptive", adaptive)],
                "parity": {"reference": "confirm-read",
                           "weak_strong_matches": strong_flag,
                           "adaptive_matches": True,
                           "weak_only_fingerprint": 9}}

    check_report("BENCH_detection.json", detection())

    broken_detection = [
        ("'adaptive_epoch_writes' must be a positive integer",
         {**detection(), "adaptive_epoch_writes": 0}),
        ("'policies' must be a non-empty array",
         {**detection(), "policies": []}),
        ("missing 'policy' name",
         {**detection(),
          "policies": [{**detection()["policies"][0], "policy": ""}]}),
        ("'detection_fingerprint' must be",
         {**detection(),
          "policies": [{**detection()["policies"][0],
                        "detection_fingerprint": -1}]}),
        ("'confirm_reads' must be a non-negative number",
         {**detection(),
          "policies": [{**p, "confirm_reads": -1.0}
                       for p in detection()["policies"]]}),
        ("missing the 'adaptive' sweep",
         {**detection(),
          "policies": detection()["policies"][:3]}),
        ("'parity' must be an object",
         {**detection(), "parity": None}),
        ("parity 'reference' must be 'confirm-read'",
         {**detection(),
          "parity": {**detection()["parity"],
                     "reference": "weak-only"}}),
        ("parity 'adaptive_matches' must be a boolean",
         {**detection(),
          "parity": {**detection()["parity"],
                     "adaptive_matches": "yes"}}),
    ]
    for expect, report in broken_detection:
        try:
            check_report("BENCH_detection.json", report)
        except SchemaError as error:
            assert expect in str(error), (expect, str(error))
        else:
            raise AssertionError(f"accepted broken report: {expect}")

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        def dump(name: str, report: dict) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(report, handle)
            return path

        # Single-file service parity: matching fingerprints pass, a
        # shard that diverged from its reference is named.
        check_service_parity(dump("BENCH_service.json", service()))
        try:
            check_service_parity(
                dump("BENCH_service.drift.json", service(reference=8)))
        except SchemaError as error:
            assert "parity mismatch at shards=1 shard 0" in str(error), \
                str(error)
        else:
            raise AssertionError("accepted drifted service parity")
        try:
            check_service_parity(
                dump("BENCH_service.flag.json", service(parity_ok=False)))
        except SchemaError as error:
            assert "parity_ok=false" in str(error), str(error)
        else:
            raise AssertionError("accepted parity_ok=false report")

        # Single-file detection parity: the confirming policies must
        # match confirm-read, and the report's own flags must agree.
        check_detection_parity(
            dump("BENCH_detection.json", detection()))
        try:
            check_detection_parity(
                dump("BENCH_detection.drift.json", detection(adaptive=8)))
        except SchemaError as error:
            assert "parity mismatch for 'adaptive'" in str(error), \
                str(error)
        else:
            raise AssertionError("accepted drifted detection parity")
        try:
            check_detection_parity(
                dump("BENCH_detection.flag.json",
                     detection(strong_flag=False)))
        except SchemaError as error:
            assert "weak_strong_matches=false" in str(error), str(error)
        else:
            raise AssertionError("accepted weak_strong_matches=false")
        try:
            check_detection_parity(
                dump("BENCH_throughput.json", throughput()))
        except SchemaError as error:
            assert "expects a service or detection report" in str(error), \
                str(error)
        else:
            raise AssertionError("accepted a throughput report in "
                                 "parity mode")

    print("check_bench_schema self-test: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("files", nargs="*",
                        help="report files to validate (default: "
                             "BENCH_*.json in --glob-dir)")
    parser.add_argument("--glob-dir", default=".",
                        help="directory scanned when no files are "
                             "given (default: %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation self-test and "
                             "exit")
    parser.add_argument("--parity", metavar="REPORT",
                        help="with a service report, verify each "
                             "shard's service fingerprint against its "
                             "recorded independent reference; with a "
                             "detection report, verify the weak+strong "
                             "and adaptive decision fingerprints against "
                             "confirm-read")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    if args.parity:
        try:
            report = load_file(args.parity)
            if isinstance(report, dict) \
                    and report.get("bench") == "detection":
                check_detection_parity(args.parity)
            else:
                check_service_parity(args.parity)
        except SchemaError as error:
            print(error, file=sys.stderr)
            return 1
        print("parity fingerprints match")
        return 0

    paths = args.files or sorted(
        glob.glob(os.path.join(args.glob_dir, "BENCH_*.json")))
    if not paths:
        print("no BENCH_*.json reports found", file=sys.stderr)
        return 1
    for path in paths:
        try:
            check_file(path)
        except SchemaError as error:
            print(error, file=sys.stderr)
            return 1
    print(f"checked {len(paths)} report(s): schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
