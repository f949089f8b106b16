#!/usr/bin/env bash
# Golden-bytes check for every serialized format: regenerates two
# checkpoints, two timelines, a pipeline and a serve run report, a
# flight-recorder dump and the serve summary from committed fixtures, and
# byte-compares each with the file of the same name in this directory.
#
# Usage: check.sh /path/to/nfvpr [--update]
#   --update rewrites the golden files from the given binary instead.
#
# Inputs: bench/traces/{autoscale,chaos,online}_smoke.*, some cut to a
# prefix so that the run ends with the state a section needs.
set -u

NFVPR=${1:?usage: check.sh /path/to/nfvpr [--update]}
UPDATE=${2:-}
GOLDEN=$(cd "$(dirname "$0")" && pwd)
FIX="$GOLDEN/../../bench/traces"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

run() {
  if ! "$@" > "$WORK/stdout.txt" 2> "$WORK/stderr.txt"; then
    echo "FAIL: command failed: $*" >&2
    sed 's/^/  stderr: /' "$WORK/stderr.txt" >&2
    exit 1
  fi
}

prefix() {  # prefix <trace> <events> <out>
  python3 -c 'import json, sys
t = json.load(open(sys.argv[1])); t["events"] = t["events"][:int(sys.argv[2])]
json.dump(t, open(sys.argv[3], "w"))' "$@" || exit 1
}

# Checkpoint with every optional section (binary-trace cursor, telemetry,
# lifecycle, events log, autoscale state with draining instances), plus the
# serve report, autoscale timeline and flight dump of the same run.  After
# 50 events one node has gone down and up and two instances still drain.
prefix "$FIX/autoscale_smoke.trace.json" 50 "$WORK/autoscale50.json"
run "$NFVPR" transcode-trace --in "$WORK/autoscale50.json" \
  --out "$WORK/prefix.btrace"
run "$NFVPR" serve -t "$FIX/autoscale_smoke.topo" \
  -w "$FIX/autoscale_smoke.wl" -T "$WORK/prefix.btrace" \
  --autoscale predictive --as-margin 0 --snapshot-every 0.5 --events-log \
  --lifecycle-out "$WORK/lifecycle.json" \
  --checkpoint-out "$WORK/checkpoint_full.json" \
  --report-out "$WORK/report_serve.json" \
  --timeline-out "$WORK/timeline_autoscale.jsonl" \
  --flight-recorder 8 --flight-recorder-out "$WORK/flight.json" \
  --flight-recorder-dump-on-exit
cp "$WORK/stdout.txt" "$WORK/serve_stdout.txt"

# Churn checkpoint: after 462 events of the chaos fixture the engine is
# degraded with requests queued, parked for retry and waiting, and one
# wait-histogram window holds no samples.
prefix "$FIX/chaos_smoke.trace.json" 462 "$WORK/chaos462.json"
run "$NFVPR" serve -t "$FIX/chaos_smoke.topo" -w "$FIX/chaos_smoke.wl" \
  -T "$WORK/chaos462.json" --snapshot-every 1 --timeline-span 20 \
  --checkpoint-out "$WORK/checkpoint_churn.json"

# Timeline without the autoscale extension.
run "$NFVPR" serve -t "$FIX/chaos_smoke.topo" -w "$FIX/chaos_smoke.wl" \
  -T "$FIX/chaos_smoke.trace.json" --snapshot-every 1 \
  --timeline-out "$WORK/timeline_plain.jsonl"

# Pipeline report: placement, scheduling, requests, des, a solver race and
# the metrics registry (deterministic at -j 1 with a work budget).
run "$NFVPR" pipeline -t "$FIX/online_smoke.topo" -w "$FIX/online_smoke.wl" \
  --solver portfolio --deterministic-budget --work-budget 20 \
  --sim-duration 2 -j 1 --metrics-out "$WORK/report_pipeline.json"

failures=0
for f in checkpoint_full.json checkpoint_churn.json report_serve.json \
         timeline_autoscale.jsonl timeline_plain.jsonl report_pipeline.json \
         flight.json serve_stdout.txt; do
  if [ "$UPDATE" = "--update" ]; then
    cp "$WORK/$f" "$GOLDEN/$f"
    echo "updated: $f"
  elif cmp -s "$WORK/$f" "$GOLDEN/$f"; then
    echo "ok: $f"
  else
    echo "FAIL: $f differs from its golden copy" >&2
    diff "$GOLDEN/$f" "$WORK/$f" | head -20 | sed 's/^/  /' >&2
    failures=$((failures + 1))
  fi
done
exit $((failures > 0))
