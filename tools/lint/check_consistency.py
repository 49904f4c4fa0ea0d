#!/usr/bin/env python3
"""Repo-specific consistency lint: wire protocol vs docs vs metrics vs
tests, and bench baselines vs bench sources vs EXPERIMENTS.md.

The daemon's protocol surface is spread over four artifacts that drift
independently: the Verb enum and its verb table (kVerbTable in
src/server/wire.h: wire name, and whether the event loop answers the
verb inline or the pool runs it under a latency histogram), the command
table and concurrency notes in docs/server.md, and the contract tests
(tests/server_test.cc). UNDEFINE-style rot — a verb added to the wire
but never documented, timed, or tested — is exactly what this pass fails
CI for.

Checks (each failure is one line on stderr; exit 1 if any):
  1. Every Verb enumerator (minus kCount) has a kVerbTable row.
  2. Every wire verb has a command row in docs/server.md ("## 2.
     Commands" table, rows starting with the verb in backticks).
  3. Every wire verb is accounted for in metrics: the pool times every
     verb the table does not mark on_loop, and the verbs docs/server.md
     §3 lists as "answered inline" and as bypassing admission are
     exactly the table's on_loop verbs. The verbs §3 says "take the
     exclusive lock" are exactly the table's `mutates` rows, and those
     it says "hold the shared lock" are the other session verbs.
  4. Every wire verb is mentioned in tests/server_test.cc or
     tests/cluster_test.cc (case-insensitive — the test client wraps
     verbs in methods; the cluster verbs REPL/FORWARD live in the
     cluster suite).
  5. Every docs/server.md command row names a real wire verb (no
     documented-but-unimplemented commands).
  6. Every BENCH_<x>.json baseline has bench/bench_<x>.cc, a
     registration in bench/CMakeLists.txt, and a `bench_<x>` reference
     in an experiment heading of EXPERIMENTS.md.
  7. Every bench/bench_<x>.cc is registered in bench/CMakeLists.txt.
  8. The daemon bench artifact agrees with its source and docs: the
     pipeline-depth sweep in bench/bench_server.cc matches the
     `pipeline_depths` field of BENCH_server.json, the protocol list is
     text,binary, the checked-in baseline is green (no transport errors
     or verdict mismatches), and every headline field is documented in
     docs/server.md.
  9. The cluster bench artifact agrees with its source: the fields of
     BENCH_cluster.json are exactly the literal json.Add keys of
     bench/bench_cluster.cc, plus those of AddHostStamp in
     bench/bench_util.h when the source calls it, and the checked-in
     baseline is a green run
     (zero verdict mismatches, transport errors and failover failures;
     1->4 scaling at or above the 2.5x acceptance gate).
  10. Every quoted `oodb_*` metric name in a source file under src/ is
     documented in docs/observability.md (the metric catalog) —
     dashboards are built from the docs, so an undocumented series is
     invisible.

Run locally:  python3 tools/lint/check_consistency.py [--root DIR]
"""

import argparse
import json
import pathlib
import re
import sys


def read(root: pathlib.Path, rel: str) -> str:
    return (root / rel).read_text(encoding="utf-8")


def parse_verb_enum(wire_h: str) -> list[str]:
    """Enumerators of `enum class Verb`, in order, without kCount."""
    m = re.search(r"enum class Verb[^{]*\{([^}]*)\}", wire_h, re.S)
    if not m:
        sys.exit("check_consistency: cannot find `enum class Verb` "
                 "in src/server/wire.h")
    names = re.findall(r"\bk[A-Z]\w*", m.group(1))
    return [n for n in names if n != "kCount"]


def parse_verb_table(wire_h: str) -> dict[str, tuple[str, bool, str, bool]]:
    """Mapping enumerator -> (wire name, on_loop, session, mutates) from
    kVerbTable."""
    m = re.search(r"kVerbTable\[\]\s*=\s*\{(.*?)\n\};", wire_h, re.S)
    if not m:
        sys.exit("check_consistency: cannot find kVerbTable "
                 "in src/server/wire.h")
    rows = re.findall(r'\{Verb::(k\w+),\s*"([A-Z?]+)",\s*(true|false),'
                      r'\s*([\w:]+),\s*(true|false),', m.group(1))
    return {enum: (name, on_loop == "true", session, mutates == "true")
            for enum, name, on_loop, session, mutates in rows}


def parse_doc_inline_lists(server_md: str) -> list[set[str]]:
    """Verbs docs/server.md says the loop answers inline, and those it
    says bypass admission (two sentences in section 3)."""
    lists = []
    for pattern in (r"((?:`[A-Z]+`/?)+)\s+are\s+answered\s+inline",
                    r"((?:`[A-Z]+`(?:,\s+|\s+and\s+)?)+)\s+bypass\s+"
                    r"admission"):
        m = re.search(pattern, server_md)
        if not m:
            sys.exit("check_consistency: cannot find the inline-verb list "
                     f"/{pattern}/ in docs/server.md")
        lists.append(set(re.findall(r"`([A-Z]+)`", m.group(1))))
    return lists


def parse_doc_lock_lists(server_md: str) -> list[set[str]]:
    """Verbs docs/server.md section 3 says take the exclusive session
    lock, and those it says hold the shared one."""
    lists = []
    for side in (r"take\s+the\s+exclusive", r"hold\s+the\s+shared"):
        m = re.search(r"((?:`[A-Z]+`(?:,\s+|\s+and\s+)?)+)\s+" + side +
                      r"\s+lock", server_md)
        if not m:
            sys.exit("check_consistency: cannot find the lock-side list "
                     f"/{side} lock/ in docs/server.md")
        lists.append(set(re.findall(r"`([A-Z]+)`", m.group(1))))
    return lists


def parse_doc_verbs(server_md: str) -> set[str]:
    """First backticked token of each command-table row."""
    section = re.search(r"## 2\. Commands(.*?)(?:\n## |\Z)", server_md, re.S)
    if not section:
        sys.exit("check_consistency: cannot find the '## 2. Commands' "
                 "section in docs/server.md")
    return set(re.findall(r"^\|\s*`([A-Z]+)\b", section.group(1), re.M))


def check_wire(root: pathlib.Path, errors: list[str]) -> None:
    wire_h = read(root, "src/server/wire.h")
    server_md = read(root, "docs/server.md")
    server_test = (read(root, "tests/server_test.cc") +
                   read(root, "tests/cluster_test.cc")).lower()

    enumerators = parse_verb_enum(wire_h)
    table = parse_verb_table(wire_h)
    documented = parse_doc_verbs(server_md)
    on_loop = {row[0] for row in table.values() if row[1]}
    exclusive = {row[0] for row in table.values() if row[3]}
    shared = {row[0] for row in table.values() if not row[3] and
              row[2] in ("kSession", "SessionArg::kRequired")}

    for enumerator in enumerators:
        if enumerator not in table:
            errors.append(f"Verb::{enumerator} has no kVerbTable row "
                          "in src/server/wire.h (so it is neither timed "
                          "nor answered inline)")
            continue
        verb = table[enumerator][0]
        if enumerator == "kOther":
            continue
        if verb not in documented:
            errors.append(f"wire verb {verb} has no command row in "
                          "docs/server.md (section '## 2. Commands')")
        if verb.lower() not in server_test:
            errors.append(f"wire verb {verb} is never mentioned in "
                          "tests/server_test.cc or tests/cluster_test.cc")

    for listed in parse_doc_inline_lists(server_md):
        for verb in sorted(on_loop - listed):
            errors.append(f"wire verb {verb} is answered inline (on_loop in "
                          "kVerbTable) but docs/server.md section 3 does "
                          "not list it as inline / bypassing admission")
        for verb in sorted(listed - on_loop):
            errors.append(f"docs/server.md section 3 lists {verb} as "
                          "answered inline, but kVerbTable runs it on the "
                          "pool")

    for listed, side, verbs in zip(parse_doc_lock_lists(server_md),
                                   ("exclusive", "shared"),
                                   (exclusive, shared)):
        for verb in sorted(verbs - listed):
            errors.append(f"kVerbTable's mutates column puts {verb} on the "
                          f"{side} side of the session lock, but "
                          "docs/server.md section 3 does not list it there")
        for verb in sorted(listed - verbs):
            errors.append(f"docs/server.md section 3 lists {verb} as taking "
                          f"the {side} session lock, but kVerbTable's "
                          "mutates column says otherwise")

    implemented = {row[0] for row in table.values()}
    for verb in sorted(documented - implemented):
        errors.append(f"docs/server.md documents command {verb} which is "
                      "not a wire verb in src/server/wire.h")


def check_bench(root: pathlib.Path, errors: list[str]) -> None:
    cmake = read(root, "bench/CMakeLists.txt")
    experiments = read(root, "EXPERIMENTS.md")
    registered = set(re.findall(r"\b(bench_\w+)\b", cmake))
    headings = [line for line in experiments.splitlines()
                if line.startswith("## ")]
    heading_text = "\n".join(headings)

    for baseline in sorted(root.glob("BENCH_*.json")):
        bench = "bench_" + baseline.stem[len("BENCH_"):]
        if not (root / "bench" / f"{bench}.cc").exists():
            errors.append(f"{baseline.name} has no bench/{bench}.cc")
        if bench not in registered:
            errors.append(f"{baseline.name}: {bench} is not registered "
                          "in bench/CMakeLists.txt")
        if bench not in heading_text:
            errors.append(f"{baseline.name}: no experiment heading in "
                          f"EXPERIMENTS.md references {bench}")

    for source in sorted((root / "bench").glob("bench_*.cc")):
        if source.stem not in registered:
            errors.append(f"bench/{source.name} is not registered in "
                          "bench/CMakeLists.txt")


def check_server_bench(root: pathlib.Path, errors: list[str]) -> None:
    """BENCH_server.json fields vs bench/bench_server.cc vs docs/server.md."""
    bench_cc = read(root, "bench/bench_server.cc")
    server_md = read(root, "docs/server.md")
    try:
        baseline = json.loads(read(root, "BENCH_server.json"))
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"BENCH_server.json is missing or unparsable: {e}")
        return

    m = re.search(r"kDepths\s*=\s*\{([0-9,\s]+)\}", bench_cc)
    if not m:
        errors.append("cannot find the kDepths sweep in "
                      "bench/bench_server.cc")
        return
    src_depths = [int(x) for x in m.group(1).split(",") if x.strip()]
    json_depths = [int(x) for x in
                   str(baseline.get("pipeline_depths", "")).split(",")
                   if x.strip()]
    if src_depths != json_depths:
        errors.append(
            f"pipeline depth sweep drifted: bench/bench_server.cc sweeps "
            f"{src_depths} but BENCH_server.json records {json_depths}")

    if baseline.get("protocol_modes") != "text,binary":
        errors.append("BENCH_server.json protocol_modes is "
                      f"{baseline.get('protocol_modes')!r}, expected "
                      "'text,binary'")

    for gate in ("transport_errors", "verdict_mismatches"):
        if baseline.get(gate) != 0:
            errors.append(f"checked-in BENCH_server.json has {gate}="
                          f"{baseline.get(gate)!r} — the baseline must be "
                          "a green run")

    headline = ("text_rps", "binary_best_rps", "speedup_vs_text",
                "bcheck_checks_per_sec", "idle_connections")
    for field in headline:
        if field not in baseline:
            errors.append(f"BENCH_server.json lacks headline field {field}")
        if field not in server_md:
            errors.append(f"docs/server.md does not document the "
                          f"BENCH_server.json field {field}")


def check_cluster_bench(root: pathlib.Path, errors: list[str]) -> None:
    """BENCH_cluster.json fields vs bench/bench_cluster.cc emitted schema."""
    bench_cc = read(root, "bench/bench_cluster.cc")
    try:
        baseline = json.loads(read(root, "BENCH_cluster.json"))
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"BENCH_cluster.json is missing or unparsable: {e}")
        return

    add_key = r'json\.Add\("(\w+)"'
    emitted = set(re.findall(add_key, bench_cc))
    if "AddHostStamp(json)" in bench_cc:
        util = read(root, "bench/bench_util.h")
        stamp = re.search(r"void AddHostStamp\(.*?\n\}", util, re.S)
        emitted |= set(re.findall(add_key, stamp.group(0) if stamp else ""))
    fields = set(baseline.keys())
    for field in sorted(emitted - fields):
        errors.append(f"BENCH_cluster.json lacks field {field}, which "
                      "bench/bench_cluster.cc emits")
    for field in sorted(fields - emitted):
        errors.append(f"BENCH_cluster.json field {field} is not emitted "
                      "by bench/bench_cluster.cc")

    for gate in ("transport_errors", "verdict_mismatches",
                 "failover_failures"):
        if baseline.get(gate) != 0:
            errors.append(f"checked-in BENCH_cluster.json has {gate}="
                          f"{baseline.get(gate)!r} — the baseline must be "
                          "a green run")
    scaling = baseline.get("scaling_1_to_4", 0)
    if not isinstance(scaling, (int, float)) or scaling < 2.5:
        errors.append(f"checked-in BENCH_cluster.json has scaling_1_to_4="
                      f"{scaling!r}, below the 2.5x acceptance gate — "
                      "re-run bench_cluster (full mode) for the baseline")


def check_metrics_docs(root: pathlib.Path, errors: list[str]) -> None:
    """Every quoted oodb_* name in src/ is in the docs."""
    obs_md = read(root, "docs/observability.md")
    pattern = re.compile(r'"(oodb_[a-z0-9_]+)"')
    for source in sorted(root.glob("src/**/*")):
        if source.suffix not in (".cc", ".h"):
            continue
        text = source.read_text(encoding="utf-8")
        for name in sorted(set(pattern.findall(text))):
            if name not in obs_md:
                errors.append(
                    f"{source.relative_to(root)} emits metric {name}, "
                    "which docs/observability.md does not document")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_root = pathlib.Path(__file__).resolve().parent.parent.parent
    parser.add_argument("--root", type=pathlib.Path, default=default_root,
                        help="repository root (default: two levels up "
                             "from this script)")
    args = parser.parse_args()

    errors: list[str] = []
    check_wire(args.root, errors)
    check_bench(args.root, errors)
    check_server_bench(args.root, errors)
    check_cluster_bench(args.root, errors)
    check_metrics_docs(args.root, errors)

    if errors:
        for error in errors:
            print(f"check_consistency: {error}", file=sys.stderr)
        print(f"check_consistency: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print("check_consistency: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
