#!/bin/sh
# Contract test for tools/lint/check_consistency.py:
#   1. the linter passes on the real tree;
#   2. it demonstrably fails when the UNDEFINE command row is removed
#      from docs/server.md (the documented-drift case it exists for);
#   3. it fails when a bench baseline loses its EXPERIMENTS.md row;
#   4. it fails when BENCH_cluster.json drops a field bench_cluster.cc
#      emits (schema drift between artifact and source);
#   5. it fails when a cluster/loop metric emitted in code loses its
#      docs/observability.md row;
#   6. it fails when a verb's on_loop flag in the verb table no longer
#      matches the inline verbs docs/server.md lists;
#   7. it fails when code quotes an oodb_server_* metric name that
#      docs/observability.md does not document;
#   8. it fails when a verb's mutates flag in the verb table no longer
#      matches the lock sides docs/server.md lists.
#
# usage: lint_consistency_test.sh <repo_root>
set -eu

ROOT="$1"
LINTER="$ROOT/tools/lint/check_consistency.py"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# 1. Clean tree passes.
python3 "$LINTER" --root "$ROOT"

# Build a minimal tree copy holding exactly the files the linter reads.
mkdir -p "$TMP/src/server" "$TMP/docs" "$TMP/tests" "$TMP/bench"
cp "$ROOT/src/server/wire.h" "$ROOT/src/server/server.cc" "$TMP/src/server/"
cp "$ROOT/docs/server.md" "$ROOT/docs/observability.md" "$TMP/docs/"
cp "$ROOT/tests/server_test.cc" "$ROOT/tests/cluster_test.cc" "$TMP/tests/"
cp "$ROOT/bench/CMakeLists.txt" "$TMP/bench/"
cp "$ROOT"/bench/bench_*.cc "$ROOT/bench/bench_util.h" "$TMP/bench/"
cp "$ROOT"/BENCH_*.json "$ROOT/EXPERIMENTS.md" "$TMP/"
python3 "$LINTER" --root "$TMP"  # the copy must also pass

# 2. Removing the UNDEFINE row from the command table must fail.
grep -v '^| `UNDEFINE ' "$ROOT/docs/server.md" > "$TMP/docs/server.md"
if python3 "$LINTER" --root "$TMP" 2>/dev/null; then
  echo "FAIL: linter passed with the UNDEFINE row removed" >&2
  exit 1
fi
cp "$ROOT/docs/server.md" "$TMP/docs/"

# 3. A bench baseline without an experiment heading must fail.
grep -v 'bench_obs' "$ROOT/EXPERIMENTS.md" > "$TMP/EXPERIMENTS.md"
if python3 "$LINTER" --root "$TMP" 2>/dev/null; then
  echo "FAIL: linter passed with the bench_obs experiment row removed" >&2
  exit 1
fi
cp "$ROOT/EXPERIMENTS.md" "$TMP/"

# 4. A cluster baseline missing an emitted field must fail.
python3 - "$ROOT/BENCH_cluster.json" "$TMP/BENCH_cluster.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
del data["scaling_1_to_4"]
json.dump(data, open(sys.argv[2], "w"))
EOF
if python3 "$LINTER" --root "$TMP" 2>/dev/null; then
  echo "FAIL: linter passed with scaling_1_to_4 missing from" \
       "BENCH_cluster.json" >&2
  exit 1
fi
cp "$ROOT/BENCH_cluster.json" "$TMP/"

# 5. An emitted cluster metric without an observability.md row must fail.
grep -v 'oodb_cluster_repl_lag_max' "$ROOT/docs/observability.md" \
  > "$TMP/docs/observability.md"
if python3 "$LINTER" --root "$TMP" 2>/dev/null; then
  echo "FAIL: linter passed with oodb_cluster_repl_lag_max undocumented" >&2
  exit 1
fi
cp "$ROOT/docs/observability.md" "$TMP/docs/"

# 6. HEALTH moved off the loop in the verb table must fail.
sed 's/{Verb::kHealth, "HEALTH", true,/{Verb::kHealth, "HEALTH", false,/' \
  "$ROOT/src/server/wire.h" > "$TMP/src/server/wire.h"
if cmp -s "$ROOT/src/server/wire.h" "$TMP/src/server/wire.h"; then
  echo "FAIL: could not edit the HEALTH row of kVerbTable" >&2
  exit 1
fi
if python3 "$LINTER" --root "$TMP" 2>/dev/null; then
  echo "FAIL: linter passed with HEALTH's on_loop flag flipped" >&2
  exit 1
fi
cp "$ROOT/src/server/wire.h" "$TMP/src/server/"

# 7. A server metric named in code but missing from the catalog must fail.
printf '%s\n' 'const char* kProbe = "oodb_server_undocumented_total";' \
  >> "$TMP/src/server/server.cc"
if python3 "$LINTER" --root "$TMP" 2>/dev/null; then
  echo "FAIL: linter passed with oodb_server_undocumented_total" \
       "undocumented" >&2
  exit 1
fi
cp "$ROOT/src/server/server.cc" "$TMP/src/server/"

# 8. VIEW no longer marked mutates in the verb table must fail.
sed 's/"VIEW", false, kSession, true,/"VIEW", false, kSession, false,/' \
  "$ROOT/src/server/wire.h" > "$TMP/src/server/wire.h"
if cmp -s "$ROOT/src/server/wire.h" "$TMP/src/server/wire.h"; then
  echo "FAIL: could not edit the VIEW row of kVerbTable" >&2
  exit 1
fi
if python3 "$LINTER" --root "$TMP" 2>/dev/null; then
  echo "FAIL: linter passed with VIEW's mutates flag flipped" >&2
  exit 1
fi

echo "lint_consistency_test: PASS"
