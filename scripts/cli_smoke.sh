#!/usr/bin/env bash
# CLI smoke test: boot one magusd (miniature market, dynamic port,
# journaled /execute), check that a flat /simulate of the a/tilt
# runbook ends at the runbook's utility floor, and drive every magusctl
# subcommand that talks to it, so the client's decoding of each reply
# is exercised against a real daemon: simulate, execute run (clean and
# with an injected floor breach), wave plan with replay, and campaign.
# Then restart the daemon over the same model snapshot directory: the
# second boot must load its market from the snapshot (hits >= 1, no
# build) and serve a /runbook byte-identical to the first boot's.
#
# Requires: go, curl, jq. Run from the repo root: scripts/cli_smoke.sh
set -euo pipefail

TMP=$(mktemp -d)
PID=
cleanup() {
  if [ -n "$PID" ]; then
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

say() { echo "== $*"; }
die() {
  echo "FAIL: $*" >&2
  tail -n 40 "$TMP/magusd.log" >&2 || true
  exit 1
}

say "building binaries"
go build -o "$TMP/magusd" ./cmd/magusd
go build -o "$TMP/magusctl" ./cmd/magusctl

# boot: starts magusd over the snapshot directory $TMP/models and sets
# PID and the server URL S.
boot() {
  rm -f "$TMP/port"
  "$TMP/magusd" -mini -listen 127.0.0.1:0 -port-file "$TMP/port" \
    -exec-dir "$TMP/exec" -model-cache "$TMP/models" >>"$TMP/magusd.log" 2>&1 &
  PID=$!
  for _ in $(seq 1 300); do
    [ -s "$TMP/port" ] && break
    sleep 0.1
  done
  [ -s "$TMP/port" ] || die "magusd never wrote its port file"
  S="http://$(head -n1 "$TMP/port")"
}
RUNBOOK='runbook?scenario=a&method=power'

say "starting magusd"
boot
curl -sf "$S/$RUNBOOK" >"$TMP/runbook1.json" || die "GET /$RUNBOOK failed"

# The runbook's pushes end at C_after, so a flat, fault-free window of
# the same plan ends at the runbook's utility floor, f(C_after), within
# the floor's 1e-9 relative tie band. a/tilt's gradual walk jumps to
# C_after mid-step on this market.
say "flat /simulate ends at the runbook's utility floor"
CHAIN='scenario=a&method=tilt'
curl -sf "$S/runbook?$CHAIN" >"$TMP/chain-runbook.json" || die "GET /runbook?$CHAIN failed"
curl -sf "$S/simulate?$CHAIN" >"$TMP/chain-simulate.json" || die "GET /simulate?$CHAIN failed"
jq -e --slurpfile rb "$TMP/chain-runbook.json" '$rb[0].utility_floor as $f
  | [.summary.final_floor, .summary.final_utility]
  | all((. - $f) | fabs <= 1e-9 * (1 + ($f | fabs)))' "$TMP/chain-simulate.json" >/dev/null ||
  die "flat /simulate?$CHAIN misses the runbook floor $(jq .utility_floor "$TMP/chain-runbook.json"): $(jq -c '.summary | {final_floor, final_utility}' "$TMP/chain-simulate.json")"

# ctl expect-exit name args...: runs magusctl, echoes its output, and
# fails unless it exits with expect-exit. The output lands in $TMP/name.
ctl() {
  local want=$1 name=$2
  shift 2
  local rc=0
  "$TMP/magusctl" "$@" -server "$S" >"$TMP/$name.out" 2>&1 || rc=$?
  cat "$TMP/$name.out"
  [ "$rc" = "$want" ] || die "magusctl $name exited $rc, want $want"
}
expect() { # name extended-regex
  grep -Eq "$2" "$TMP/$1.out" || die "magusctl $1 output lacks /$2/"
}

say "magusctl simulate -series"
ctl 0 simulate simulate -series
expect simulate 'simulated [1-9][0-9]*-tick window: scenario .+, method [a-z]+, [1-9][0-9]* runbook steps'
expect simulate '^[1-9][0-9]* +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.]+ '
expect simulate 'window ends at or above the f\(C_after\) floor'

say "magusctl execute run"
ctl 0 execute execute run
expect execute 'run [^ ]+: done \([1-9][0-9]* steps'
expect execute 'run completes: final utility [1-9]'

say "magusctl execute run -chaos kpi-breach@1 (must halt, exit 2)"
ctl 2 breach execute run -chaos kpi-breach@1
expect breach 'run halted at step 1: .*\(rollback fully applied\)'

say "magusctl wave plan -replay"
ctl 0 wave wave plan -replay
expect wave 'season [^ ]+: [1-9][0-9]* sectors in [1-9][0-9]* waves'
expect wave 'season completes without a halt'

say "magusctl campaign"
ctl 0 campaign campaign -scenarios a,b -methods power,joint
expect campaign 'accepted: 4 jobs'
expect campaign '^[0-9]+ +suburban +1 +\([ab]\) +[a-z-]+ +done +[0-9.]+%'
expect campaign 'mean recovery [1-9][0-9.]*%'

say "restarting magusd over the warm snapshot directory"
kill -TERM "$PID"
wait "$PID" || die "magusd exited non-zero on SIGTERM"
PID=
boot
curl -sf "$S/healthz" >"$TMP/healthz.json" || die "GET /healthz failed"
jq -e '.model_snapshots.hits >= 1 and .model_snapshots.builds == 0' "$TMP/healthz.json" >/dev/null ||
  die "warm boot did not load its model from the snapshot: $(jq -c .model_snapshots "$TMP/healthz.json")"
curl -sf "$S/$RUNBOOK" >"$TMP/runbook2.json" || die "GET /$RUNBOOK failed after restart"
cmp "$TMP/runbook1.json" "$TMP/runbook2.json" || die "/$RUNBOOK differs after a warm restart"

say "PASS"
