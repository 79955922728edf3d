#!/usr/bin/env bash
# End-to-end test of the placementd service. Proves, against real builds
# over real HTTP:
#   1. the checked-in 20-node example job runs to completion,
#   2. two identical concurrent submissions cost one solve (cache hit),
#      and standalone mode dispatches its columns to its in-process worker,
#   3. DELETE aborts a running job mid-solve,
#   4. a body stating a system past the size caps is refused or fails as
#      a job, and the daemon keeps answering and completes the next job,
#   5. served bounds are byte-identical to the serial cmd/bounds sweep,
#   6. a scenario-spec job compiles server-side and its bounds match
#      cmd/bounds -scenario on the same spec file,
#   7. SIGTERM drains the daemon cleanly,
#   8. distributed mode: a coordinator and two race-enabled workers solve
#      a job byte-identically to cmd/bounds, surviving a worker killed
#      mid-job (the shard retries on the survivor),
#   9. a restarted coordinator answers the same job purely from its
#      persistent result store: zero fresh solver iterations, same bytes.
# Needs only go, curl, grep and diff.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${PLACEMENTD_ADDR:-127.0.0.1:18080}
BASE="http://$ADDR"
WORK=$(mktemp -d)
DAEMON=""
EXTRA_PIDS=""
cleanup() {
  [ -n "$DAEMON" ] && kill "$DAEMON" 2>/dev/null || true
  for p in $EXTRA_PIDS; do kill "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build =="
go build -o "$WORK/placementd" ./cmd/placementd
go build -o "$WORK/bounds" ./cmd/bounds
# Workers get a race-enabled build: the distributed case is exactly where
# concurrent shard solves and store writes meet.
go build -race -o "$WORK/placementd_race" ./cmd/placementd

"$WORK/placementd" -addr "$ADDR" -workers 2 -check-every 200 >"$WORK/placementd.log" 2>&1 &
DAEMON=$!

for _ in $(seq 1 50); do
  curl -fs "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fs "$BASE/healthz" >/dev/null || {
  echo "placementd never became healthy" >&2
  cat "$WORK/placementd.log" >&2
  exit 1
}

submit() { curl -fs -X POST --data-binary "$1" "$BASE/jobs"; }
job_id() { grep -o '"id": "[^"]*"' | head -1 | cut -d'"' -f4; }
state_of() { curl -fs "$BASE/jobs/$1" | grep -o '"state": "[a-z]*"' | cut -d'"' -f4; }
wait_done() { # job-id timeout-seconds
  local id=$1 deadline=$(($(date +%s) + $2)) st
  while :; do
    st=$(state_of "$id")
    case "$st" in
    done) return 0 ;;
    failed | canceled)
      echo "job $id ended $st" >&2
      return 1
      ;;
    esac
    if [ "$(date +%s)" -ge "$deadline" ]; then
      echo "job $id still $st after $2 s" >&2
      return 1
    fi
    sleep 1
  done
}

echo "== example job (20 nodes) =="
ID=$(submit @examples/jobs/web20.json | job_id)
wait_done "$ID" 300

echo "== identical concurrent submissions share one solve =="
BODY='{"spec":{"workload":"web","scale":"small","nodes":8,"objects":10,"requests":2000,"horizonMillis":14400000,"qos":[0.9]}}'
submit "$BODY" >"$WORK/sub1.json" &
P1=$!
submit "$BODY" >"$WORK/sub2.json" &
P2=$!
wait $P1 $P2
ID1=$(job_id <"$WORK/sub1.json")
ID2=$(job_id <"$WORK/sub2.json")
if [ "$ID1" != "$ID2" ]; then
  echo "identical submissions got distinct jobs $ID1 and $ID2" >&2
  exit 1
fi
wait_done "$ID1" 300
# The body is read whole before matching: under pipefail, `curl | grep -q`
# fails whenever grep exits on its match before curl has written it all.
METRICS=$(curl -fs "$BASE/metrics")
grep -q '^placementd_cache_hits_total [1-9]' <<<"$METRICS" || {
  echo "metrics report no cache hit for the duplicate submission" >&2
  grep placementd_cache <<<"$METRICS" >&2 || true
  exit 1
}
# Standalone solves every column through its in-process worker.
grep -q '^placementd_dist_shards_dispatched_total [1-9]' <<<"$METRICS" || {
  echo "standalone metrics report no dispatched shard" >&2
  grep placementd_dist <<<"$METRICS" >&2 || true
  exit 1
}

echo "== cancellation aborts a running solve =="
SLOW='{"spec":{"workload":"web","scale":"small","nodes":10,"objects":30,"requests":8000,"qos":[0.99,0.999,0.9999]},"classes":["general","storage-constrained","replica-constrained"]}'
CID=$(submit "$SLOW" | job_id)
for _ in $(seq 1 150); do
  [ "$(state_of "$CID")" = running ] && break
  sleep 0.2
done
curl -fs -X DELETE "$BASE/jobs/$CID" >/dev/null
for _ in $(seq 1 150); do
  [ "$(state_of "$CID")" = canceled ] && break
  sleep 0.2
done
if [ "$(state_of "$CID")" != canceled ]; then
  echo "job $CID is $(state_of "$CID") after DELETE, want canceled" >&2
  exit 1
fi

echo "== a hostile system statement fails cleanly; the daemon keeps serving =="
# 2e9 objects over 86.4M one-millisecond intervals: counts far past the
# size cap, stated in 200 bytes.
HOSTILE='{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":100}]},"trace":{"nodes":2,"objects":2000000000,"durationMillis":86400000,"accesses":[]},"deltaMillis":1,"qos":[0.9]}'
CODE=$(curl -s -o "$WORK/hostile.json" -w '%{http_code}' -X POST --data-binary "$HOSTILE" "$BASE/jobs" || true)
case "$CODE" in
4??) ;;
200 | 202)
  HID=$(job_id <"$WORK/hostile.json")
  HST=""
  for _ in $(seq 1 150); do
    HST=$(state_of "$HID" || true)
    case "$HST" in failed | done | canceled) break ;; esac
    sleep 0.2
  done
  if [ "$HST" != failed ]; then
    echo "hostile job $HID is '${HST:-unreachable}', want failed" >&2
    tail -20 "$WORK/placementd.log" >&2
    exit 1
  fi
  ;;
*)
  echo "hostile body got HTTP '$CODE', want a 4xx or an accepted job that fails" >&2
  exit 1
  ;;
esac
curl -fs "$BASE/healthz" >/dev/null || {
  echo "placementd stopped answering after a hostile body:" >&2
  tail -20 "$WORK/placementd.log" >&2
  exit 1
}
ID=$(submit '{"spec":{"workload":"web","scale":"small","nodes":5,"objects":5,"requests":400,"horizonMillis":7200000,"qos":[0.9]},"classes":["general"]}' | job_id)
wait_done "$ID" 300

echo "== served bounds match the serial sweep byte for byte =="
for wl in web group; do
  "$WORK/bounds" -workload "$wl" -scale small -qos 0.9,0.95 -parallel 1 >"$WORK/golden_$wl.tsv"
  ID=$(submit "{\"spec\":{\"workload\":\"$wl\",\"scale\":\"small\",\"qos\":[0.9,0.95]}}" | job_id)
  wait_done "$ID" 600
  curl -fs "$BASE/jobs/$ID/result?format=tsv" >"$WORK/served_$wl.tsv"
  diff "$WORK/golden_$wl.tsv" "$WORK/served_$wl.tsv" || {
    echo "$wl bounds differ from the serial sweep" >&2
    exit 1
  }
done

echo "== scenario-spec job matches bounds -scenario byte for byte =="
cat >"$WORK/scn.json" <<'JSON'
{
  "name": "e2e-transit-stub",
  "seed": 11,
  "topology": {"model": "transit-stub", "nodes": 10},
  "workload": {"model": "web", "objects": 10, "requests": 2000, "horizonMillis": 14400000},
  "qos": [0.9, 0.95],
  "classes": ["general", "storage-constrained"]
}
JSON
"$WORK/bounds" -scenario "$WORK/scn.json" -parallel 1 >"$WORK/golden_scn.tsv"
ID=$(submit "{\"scenario\": $(cat "$WORK/scn.json")}" | job_id)
wait_done "$ID" 300
curl -fs "$BASE/jobs/$ID/result?format=tsv" >"$WORK/served_scn.tsv"
diff "$WORK/golden_scn.tsv" "$WORK/served_scn.tsv" || {
  echo "scenario bounds differ from the bounds -scenario sweep" >&2
  exit 1
}

echo "== graceful drain on SIGTERM =="
kill -TERM "$DAEMON"
for _ in $(seq 1 150); do
  kill -0 "$DAEMON" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$DAEMON" 2>/dev/null; then
  echo "daemon still running after SIGTERM" >&2
  exit 1
fi
grep -q "drained cleanly" "$WORK/placementd.log" || {
  echo "daemon exited without a clean drain:" >&2
  cat "$WORK/placementd.log" >&2
  exit 1
}
DAEMON=""

echo "== distributed: coordinator + 2 workers, one killed mid-job =="
CADDR=${PLACEMENTD_COORD_ADDR:-127.0.0.1:18090}
W1ADDR=${PLACEMENTD_W1_ADDR:-127.0.0.1:18091}
W2ADDR=${PLACEMENTD_W2_ADDR:-127.0.0.1:18092}
BASE="http://$CADDR"
STORE="$WORK/store"

metric() { curl -fs "$BASE/metrics" | grep "^$1 " | awk '{print $2}'; }

# -parallel 3 dispatches every class column concurrently whatever the
# host's core count: dispatching is I/O-bound, and concurrent shards are
# the point — the kill below must land while the victim holds one.
"$WORK/placementd" -mode coordinator -addr "$CADDR" -store "$STORE" \
  -workers 1 -parallel 3 -check-every 200 -worker-ttl 3s -shard-retries 3 \
  >"$WORK/coordinator.log" 2>&1 &
DAEMON=$!
"$WORK/placementd_race" -mode worker -addr "$W1ADDR" -workers 2 \
  -coordinator "$BASE" -heartbeat 250ms -check-every 200 \
  >"$WORK/worker1.log" 2>&1 &
WPID1=$!
"$WORK/placementd_race" -mode worker -addr "$W2ADDR" -workers 2 \
  -coordinator "$BASE" -heartbeat 250ms -check-every 200 \
  >"$WORK/worker2.log" 2>&1 &
WPID2=$!
EXTRA_PIDS="$WPID1 $WPID2"

for url in "$BASE" "http://$W1ADDR" "http://$W2ADDR"; do
  for _ in $(seq 1 50); do
    curl -fs "$url/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fs "$url/healthz" >/dev/null || {
    echo "$url never became healthy" >&2
    tail -20 "$WORK"/coordinator.log "$WORK"/worker*.log >&2 || true
    exit 1
  }
done
# Both workers must be registered before the job lands, or the whole job
# could run on one worker and the kill would prove nothing.
for _ in $(seq 1 50); do
  [ "$(curl -fs "$BASE/workers" | grep -c '"url"')" -ge 2 ] && break
  sleep 0.2
done

cat >"$WORK/dist_scn.json" <<'JSON'
{
  "name": "e2e-dist",
  "seed": 7,
  "topology": {"model": "transit-stub", "nodes": 10},
  "workload": {"model": "web", "objects": 30, "requests": 8000, "horizonMillis": 28800000},
  "qos": [0.99, 0.999, 0.9999],
  "classes": ["general", "storage-constrained", "replica-constrained"]
}
JSON
"$WORK/bounds" -scenario "$WORK/dist_scn.json" -parallel 1 >"$WORK/golden_dist.tsv"

ID=$(submit "{\"scenario\": $(cat "$WORK/dist_scn.json")}" | job_id)
# Kill worker 2 once at least two shards are in flight: its shard dies at
# the transport level and must be retried on the survivor.
for _ in $(seq 1 300); do
  d=$(metric placementd_dist_shards_dispatched_total)
  [ "${d:-0}" -ge 2 ] && break
  sleep 0.05
done
kill -9 "$WPID2" 2>/dev/null || true
wait_done "$ID" 600
curl -fs "$BASE/jobs/$ID/result?format=tsv" >"$WORK/served_dist.tsv"
diff "$WORK/golden_dist.tsv" "$WORK/served_dist.tsv" || {
  echo "distributed bounds differ from the serial cmd/bounds sweep" >&2
  exit 1
}
RETRIES=$(metric placementd_dist_shard_retries_total)
if [ "${RETRIES:-0}" -lt 1 ]; then
  echo "coordinator recorded no shard retry after a worker was killed mid-job" >&2
  curl -fs "$BASE/metrics" | grep placementd_dist >&2 || true
  exit 1
fi

echo "== coordinator restart serves the job from the persistent store =="
kill -TERM "$DAEMON" 2>/dev/null || true
kill -TERM "$WPID1" 2>/dev/null || true
for _ in $(seq 1 150); do
  kill -0 "$DAEMON" 2>/dev/null || break
  sleep 0.2
done
EXTRA_PIDS=""

# No workers this time: every column must come out of the store.
"$WORK/placementd" -mode coordinator -addr "$CADDR" -store "$STORE" \
  -workers 1 -parallel 3 -worker-wait 5s >"$WORK/coordinator2.log" 2>&1 &
DAEMON=$!
for _ in $(seq 1 50); do
  curl -fs "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
ID=$(submit "{\"scenario\": $(cat "$WORK/dist_scn.json")}" | job_id)
wait_done "$ID" 120
curl -fs "$BASE/jobs/$ID/result?format=tsv" >"$WORK/served_dist2.tsv"
diff "$WORK/golden_dist.tsv" "$WORK/served_dist2.tsv" || {
  echo "store-served bounds differ from the serial sweep" >&2
  exit 1
}
ITERS=$(metric placementd_lp_iterations_total)
if [ "${ITERS:-missing}" != 0 ]; then
  echo "restarted coordinator recorded $ITERS fresh LP iterations, want 0 (all from store)" >&2
  exit 1
fi
HITS=$(metric placementd_dist_store_hits_total)
if [ "${HITS:-0}" -lt 3 ]; then
  echo "restarted coordinator hit the store $HITS times, want 3" >&2
  exit 1
fi
kill -TERM "$DAEMON" 2>/dev/null || true
for _ in $(seq 1 150); do
  kill -0 "$DAEMON" 2>/dev/null || break
  sleep 0.2
done
DAEMON=""

echo "placementd e2e: all checks passed"
