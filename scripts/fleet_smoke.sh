#!/usr/bin/env bash
# Multi-node fleet smoke test: boot a coordinator and two workers as real
# magusd processes on dynamic ports, submit a multi-market campaign
# through the coordinator, SIGKILL one worker mid-run, and assert the
# fleet finishes every job exactly once and reports the eviction. Then
# magusctl runs a campaign through the coordinator, renders a refused
# drain and renders the fleet status.
#
# Requires: go, curl, jq. Run from the repo root: scripts/fleet_smoke.sh
set -euo pipefail

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

say() { echo "== $*"; }
die() {
  echo "FAIL: $*" >&2
  tail -n 40 "$TMP"/*.log >&2 || true
  exit 1
}

say "building binaries"
go build -o "$TMP/magusd" ./cmd/magusd
go build -o "$TMP/magusctl" ./cmd/magusctl

wait_file() { # path timeout_s
  for _ in $(seq 1 $((10 * $2))); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  return 1
}

start_node() { # name extra-args...
  local name=$1
  shift
  "$TMP/magusd" -mini -listen 127.0.0.1:0 -port-file "$TMP/$name.port" \
    -journal "$TMP/$name.wal" "$@" >"$TMP/$name.log" 2>&1 &
  PIDS+=($!)
  eval "${name}_pid=$!"
  wait_file "$TMP/$name.port" 30 || die "$name never wrote its port file"
  eval "${name}_addr=\$(head -n1 \"$TMP/$name.port\")"
}

say "starting coordinator + 2 workers"
start_node coord -coordinator
COORD="http://$coord_addr"
# One campaign slot per worker keeps mini jobs (~200ms each) queued long
# enough that the SIGKILL below lands mid-run.
start_node w1 -join "$COORD" -campaign-workers 1
start_node w2 -join "$COORD" -campaign-workers 1

say "waiting for both workers to join"
for _ in $(seq 1 100); do
  alive=$(curl -sf "$COORD/fleet/status" | jq '[.members[] | select(.alive)] | length' || echo 0)
  [ "$alive" = 2 ] && break
  sleep 0.2
done
[ "$alive" = 2 ] || die "expected 2 alive members, got $alive"

# Six annealing jobs in each of four markets (the slowest mini method):
# enough runway that a worker dies with work still owned by it.
say "submitting 24-job campaign across 4 markets"
jobs=$(jq -n '[
  ("rural:1","suburban:1","urban:1","suburban:2") as $m |
  ($m | split(":")) as [$class, $seed] |
  range(6) | {class: $class, seed: ($seed | tonumber), scenario: "c", method: "anneal"}
] | {jobs: .}')
submit=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$jobs" "$COORD/campaigns") ||
  die "campaign submit failed"
cid=$(echo "$submit" | jq -r .id)
[ -n "$cid" ] && [ "$cid" != null ] || die "no campaign id in: $submit"
say "campaign $cid accepted"

sleep 0.5
victim_node=$(curl -sf "$COORD/fleet/status" |
  jq -r '[.placements[].node] | group_by(.) | max_by(length) | .[0]')
[ -n "$victim_node" ] && [ "$victim_node" != null ] || die "no placements after submit"
w1_node=$(curl -sf "http://$w1_addr/healthz" | jq -r .node_id)
if [ "$victim_node" = "$w1_node" ]; then victim_pid=$w1_pid; else victim_pid=$w2_pid; fi
done_at_kill=$(curl -sf "$COORD/campaigns/$cid" |
  jq '[.campaign.jobs[] | select(.state == "done")] | length')
say "SIGKILL worker $victim_node (pid $victim_pid; $done_at_kill/24 jobs done)"
kill -9 "$victim_pid"

say "waiting for the fleet to finish the campaign"
deadline=$((SECONDS + 300))
while :; do
  [ $SECONDS -lt $deadline ] || die "campaign did not finish within 300s"
  states=$(curl -sf "$COORD/campaigns/$cid" | jq -r '[.campaign.jobs[].state] | join(" ")') || states=""
  case "$states" in
  *failed*) die "a job failed: $states" ;;
  *cancelled*) die "a job was cancelled: $states" ;;
  esac
  total=$(echo "$states" | wc -w)
  ndone=$(echo "$states" | tr ' ' '\n' | grep -c '^done$' || true)
  [ "$total" = 24 ] && [ "$ndone" = 24 ] && break
  sleep 1
done
say "all 24 jobs done exactly once"

# The eviction lags the kill by the coordinator's heartbeat timeout
# (~6s); poll for it rather than reading the status once.
say "waiting for the missed-heartbeat eviction"
for _ in $(seq 1 150); do
  status=$(curl -sf "$COORD/fleet/status")
  echo "$status" | jq -e --arg n "$victim_node" \
    '(.evictions // []) | map(select(.node == $n and (.reason | contains("missed heartbeats")))) | length >= 1' \
    >/dev/null && evicted=1 && break
  sleep 0.2
done
[ "${evicted:-}" = 1 ] || die "no missed-heartbeat eviction for $victim_node in fleet status"
replaced=$(echo "$status" | jq --arg n "$victim_node" \
  '[(.evictions // [])[] | select(.node == $n)] | map(.replaced_jobs) | add')
say "eviction recorded for $victim_node ($replaced jobs re-placed)"
if [ "${replaced:-0}" = 0 ] && [ "$done_at_kill" = 24 ]; then
  say "warning: victim finished before the kill; failover path not exercised"
fi

bumped=$(curl -sf "$COORD/campaigns/$cid" |
  jq '[.campaign.jobs[] | select(.epoch > 1)] | length')
say "$bumped jobs completed under a re-placed (epoch > 1) lease"

# magusctl decodes the coordinator's campaign view as the same
# httpapi.CampaignStatus it reads from a single magusd.
say "magusctl campaign through the coordinator"
"$TMP/magusctl" campaign -server "$COORD" -classes suburban,urban -scenarios a \
  -methods power,joint >"$TMP/ctl_campaign.out" 2>&1 || {
  cat "$TMP/ctl_campaign.out"
  die "magusctl campaign through the coordinator failed"
}
cat "$TMP/ctl_campaign.out"
grep -Eq '^[0-9]+ +urban +1 +\(a\) +joint +done +[0-9.]+%' "$TMP/ctl_campaign.out" ||
  die "magusctl campaign rendered no done urban joint job with its recovery"
grep -Eq 'mean recovery [1-9][0-9.]*%' "$TMP/ctl_campaign.out" ||
  die "magusctl campaign rendered no mean recovery"

say "magusctl fleet drain of an unknown node (must exit 2 with the coordinator's error)"
rc=0
"$TMP/magusctl" fleet drain -node n-unknown -server "$COORD" >"$TMP/ctl_drain.out" 2>&1 || rc=$?
cat "$TMP/ctl_drain.out"
[ "$rc" = 2 ] || die "magusctl fleet drain of an unknown node exited $rc, want 2"
grep -q '404 Not Found (fleet: unknown node: n-unknown)' "$TMP/ctl_drain.out" ||
  die "magusctl fleet drain did not render the coordinator's error"

say "operator view (magusctl fleet status):"
"$TMP/magusctl" fleet status -server "$COORD"

say "PASS"
