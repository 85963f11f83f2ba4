#!/usr/bin/env bash
# Distributed-serving chaos smoke: a coordinator over two real shard
# server processes (blocks split 0%2 / 1%2, no replication), killed and
# revived under load. Asserts the full degradation contract end to end:
#
#   1. healthy fleet answers byte-identically to a single-process daemon;
#   2. SIGKILL of one shard mid-load still yields HTTP 200 inside the
#      query deadline, marked "degraded":true with reason "shards" and a
#      coverage block whose lost-block count is honest (> 0, < total);
#   3. /readyz stays 200 while any block is still reachable;
#   4. after the shard restarts, answers return to byte-identical healthy
#      form on their own (breaker half-open probe) and were never served
#      from a poisoned cache;
#   5. with telemetry at sample rate 1, the flight recorder holds a
#      stitched multi-process trace: the coordinator's span tree contains
#      remote:expand spans grafted from the (restarted) shard processes;
#   6. /debug/fleet reports both peers with negotiated telemetry and live
#      Stats-RPC counters.
#
# CI runs this; it is also handy locally:
#
#   scripts/shardnet_chaos_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
coord=127.0.0.1:18085
local_addr=127.0.0.1:18086
shard_a=127.0.0.1:18087
shard_b=127.0.0.1:18088

cleanup() {
  for pid in "${coord_pid:-}" "${local_pid:-}" "${shard_a_pid:-}" "${shard_b_pid:-}" "${shard_b2_pid:-}"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

dump_logs() { tail -40 "$workdir"/*.log >&2 || true; }

go build -o "$workdir/bigindexd" ./cmd/bigindexd

wait_tcp() {
  local host=${1%:*} port=${1#*:}
  for _ in $(seq 1 150); do
    (exec 3<>"/dev/tcp/$host/$port") 2>/dev/null && return 0
    sleep 0.2
  done
  echo "$1 never started accepting" >&2
  dump_logs
  exit 1
}

wait_ready() {
  for _ in $(seq 1 150); do
    curl -fsS "http://$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "$1/readyz never turned 200" >&2
  dump_logs
  exit 1
}

# normalize strips the one legitimately nondeterministic response field.
normalize() { grep -v '"elapsed"'; }

"$workdir/bigindexd" -preset demo -shard-serve "$shard_a" -shard-blocks '0%2' \
  >>"$workdir/shard_a.log" 2>&1 &
shard_a_pid=$!
"$workdir/bigindexd" -preset demo -shard-serve "$shard_b" -shard-blocks '1%2' \
  >>"$workdir/shard_b.log" 2>&1 &
shard_b_pid=$!
wait_tcp "$shard_a"
wait_tcp "$shard_b"

# The coordinator runs with telemetry fully on (debug endpoints, trace
# everything, sample every shard RPC): the byte-equality assertions below
# double as the "telemetry never changes answers" invariant.
"$workdir/bigindexd" -preset demo -addr "$coord" \
  -shard-peers "$shard_a=0%2;$shard_b=1%2" \
  -debug-endpoints -trace-sample 1 -shard-telemetry-sample 1 \
  >>"$workdir/coord.log" 2>&1 &
coord_pid=$!
"$workdir/bigindexd" -preset demo -addr "$local_addr" \
  >>"$workdir/local.log" 2>&1 &
local_pid=$!
wait_ready "$coord"
wait_ready "$local_addr"

# demo/term/0 and demo/term/2 co-occur within the search radius (term/0
# with term/1 does not), so the answer set is non-empty and the
# byte-equality assertions below actually compare content.
q='query?q=demo/term/0,demo/term/2&algo=bkws&layer=0&k=5&nocache=1&timeout=10s'

# 1. Healthy fleet == single-process daemon, byte for byte.
healthy=$(curl -fsS "http://$coord/$q" | normalize)
echo "$healthy" | grep -Eq '"count": *[1-9]' || { echo "healthy query returned no matches; smoke would be vacuous" >&2; dump_logs; exit 1; }
echo "$healthy" | grep -q '"degraded"' && { echo "healthy fleet degraded" >&2; dump_logs; exit 1; }
single=$(curl -fsS "http://$local_addr/$q" | normalize)
[ "$healthy" = "$single" ] || {
  echo "distributed answer differs from single-process" >&2
  diff <(echo "$single") <(echo "$healthy") >&2 || true
  exit 1
}

# 2. SIGKILL one shard mid-load: background queries are in flight when the
# process dies; the next foreground query must degrade honestly, in time.
load_pids=()
for _ in $(seq 1 5); do
  curl -fsS "http://$coord/$q" >/dev/null 2>&1 &
  load_pids+=("$!")
done
kill -9 "$shard_b_pid"
wait "$shard_b_pid" 2>/dev/null || true
wait "${load_pids[@]}" 2>/dev/null || true # drain the background load
degraded=$(curl -fsS --max-time 15 "http://$coord/$q")
echo "$degraded" | grep -Eq '"degraded": *true'             || { echo "no degraded flag after kill" >&2; dump_logs; exit 1; }
echo "$degraded" | grep -Eq '"degraded_reason": *"shards"'  || { echo "wrong degraded reason" >&2; exit 1; }
echo "$degraded" | grep -Eq '"blocks_lost": *[1-9]'         || { echo "coverage claims no lost blocks" >&2; exit 1; }
echo "$degraded" | grep -Eq '"fraction": *0\.'              || { echo "coverage fraction not in (0,1)" >&2; exit 1; }
echo "$degraded" | tr -d ' \n' | grep -q "\"failed_peers\":\[[^]]*$shard_b" \
  || { echo "degraded response does not attribute the dead peer $shard_b" >&2; dump_logs; exit 1; }

# 3. Half the fleet is gone but half still answers: the coordinator must
# stay ready (draining it would amplify the outage).
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$coord/readyz")
[ "$code" = 200 ] || { echo "readyz $code with half the fleet alive, want 200" >&2; exit 1; }

# 4. Restart the dead shard on the same address: answers must return to
# the byte-identical healthy form on their own.
"$workdir/bigindexd" -preset demo -shard-serve "$shard_b" -shard-blocks '1%2' \
  >>"$workdir/shard_b2.log" 2>&1 &
shard_b2_pid=$!
wait_tcp "$shard_b"
recovered=""
for _ in $(seq 1 60); do
  resp=$(curl -fsS "http://$coord/$q" | normalize)
  if ! echo "$resp" | grep -q '"degraded"'; then recovered=$resp; break; fi
  sleep 0.5
done
[ -n "$recovered" ] || { echo "no recovery after shard restart" >&2; dump_logs; exit 1; }
[ "$recovered" = "$healthy" ] || {
  echo "post-recovery answer differs from healthy baseline" >&2
  diff <(echo "$healthy") <(echo "$recovered") >&2 || true
  exit 1
}

# 5. Stitched multi-process trace: the recovered query above ran with
# trace-sample 1 and shard-telemetry-sample 1, so the flight recorder
# must hold a trace whose span tree contains remote:expand spans grafted
# from the shard processes — including the restarted one.
stitched=""
for _ in $(seq 1 20); do
  curl -fsS "http://$coord/$q" >/dev/null
  for id in $(curl -fsS "http://$coord/debug/traces?limit=10" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'); do
    tree=$(curl -fsS "http://$coord/debug/traces/$id" || true)
    if echo "$tree" | grep -q '"remote:expand"'; then stitched=$tree; break 2; fi
  done
  sleep 0.2
done
[ -n "$stitched" ] || { echo "no stitched trace with remote:expand spans in the flight recorder" >&2; dump_logs; exit 1; }
echo "$stitched" | grep -q '"rpc:expand"' || { echo "stitched trace lacks the client-side rpc:expand span" >&2; exit 1; }
echo "$stitched" | grep -q "\"peer\": *\"$shard_a\"\|\"peer\": *\"$shard_b\"" \
  || { echo "stitched trace lacks peer attribution" >&2; exit 1; }
echo "$stitched" | grep -q '"remote_calls"' || { echo "stitched trace ledger lacks fleet-summed remote cost" >&2; exit 1; }

# 6. /debug/fleet: both peers present, telemetry negotiated, live stats.
fleet=$(curl -fsS "http://$coord/debug/fleet")
echo "$fleet" | grep -q "\"addr\": *\"$shard_a\"" || { echo "fleet view missing $shard_a" >&2; dump_logs; exit 1; }
echo "$fleet" | grep -q "\"addr\": *\"$shard_b\"" || { echo "fleet view missing $shard_b" >&2; dump_logs; exit 1; }
echo "$fleet" | grep -q '"telemetry": *true'      || { echo "fleet view shows no negotiated telemetry" >&2; exit 1; }
echo "$fleet" | grep -Eq '"expands": *[1-9]'      || { echo "fleet view has no live Stats counters" >&2; exit 1; }

echo "shardnet chaos smoke OK: kill degraded honestly (200 + coverage + peer attribution), readiness held, restart restored byte-identical answers, stitched multi-process trace + fleet view"
