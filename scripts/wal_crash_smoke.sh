#!/usr/bin/env bash
# End-to-end WAL crash smoke: start bigindexd with a write-ahead log and an
# admin token, mutate the live graph through POST /admin/edges, kill the
# daemon with SIGKILL (no drain, no compaction), restart it, and assert the
# reborn process converged: same mutation sequence, same graph shape, and a
# byte-identical query answer. Check that /admin/reload is gone and that
# SIGHUP changes nothing. Then prove the write path survived recovery
# (another batch + a manual compaction). CI runs this next to
# shardnet_chaos_smoke.sh; it is also handy locally:
#
#   scripts/wal_crash_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
addr=127.0.0.1:18081
token=smoke-secret
wal="$workdir/mutations.wal"
snap="$workdir/index.snap"

cleanup() {
  [ -n "${daemon_pid:-}" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/bigindexd" ./cmd/bigindexd

start_daemon() {
  "$workdir/bigindexd" -preset demo -addr "$addr" \
    -wal "$wal" -snapshot "$snap" -admin-token "$token" \
    >>"$workdir/daemon.log" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 150); do
    curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && return 0
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$workdir/daemon.log" >&2; exit 1; }
    sleep 0.2
  done
  echo "daemon never became ready" >&2
  cat "$workdir/daemon.log" >&2
  exit 1
}

# normalize strips the one legitimately nondeterministic response field.
normalize() { grep -v '"elapsed"'; }

start_daemon

# The admin surface must be POST-only and token-gated.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/admin/edges")
[ "$code" = 405 ] || { echo "GET /admin/edges returned $code, want 405" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/admin/edges" -d '{}')
[ "$code" = 401 ] || { echo "unauthenticated mutation returned $code, want 401" >&2; exit 1; }
# /admin/edges is the one way to change the index; /admin/reload is not routed.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H "X-Admin-Token: $token" "http://$addr/admin/reload")
[ "$code" = 404 ] || { echo "POST /admin/reload returned $code, want 404" >&2; exit 1; }

# One batch: a new vertex (existing label -> id = current |V|) plus an edge
# from it into the graph. Acknowledged means fsynced to the WAL.
n0=$(curl -fsS "http://$addr/stats" | grep -m1 '"Vertices"' | tr -dc '0-9')
body=$(printf '{"add_vertices":["demo/term/0"],"add_edges":[{"from":%d,"to":0}]}' "$n0")
resp=$(curl -fsS -X POST -H "X-Admin-Token: $token" -d "$body" "http://$addr/admin/edges")
echo "$resp" | grep -q '"status": *"applied"' || { echo "mutation not applied: $resp" >&2; exit 1; }
echo "$resp" | grep -Eq '"seq": *1,' || { echo "unexpected seq: $resp" >&2; exit 1; }

pre_query=$(curl -fsS "http://$addr/query?q=demo/term/0&algo=blinks&k=5&nocache=1" | normalize)
pre_vertices=$(curl -fsS "http://$addr/stats" | grep -m1 '"Vertices"' | tr -dc '0-9')
[ "$pre_vertices" = "$((n0 + 1))" ] || { echo "vertex count $pre_vertices, want $((n0 + 1))" >&2; exit 1; }

# kill -9: no drain, no compaction. The snapshot on disk predates the
# batch; only the WAL knows about it.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=

start_daemon

# Convergence: replay restored the sequence, the graph, and the answers.
post_vertices=$(curl -fsS "http://$addr/stats" | grep -m1 '"Vertices"' | tr -dc '0-9')
[ "$post_vertices" = "$pre_vertices" ] || { echo "replayed |V| $post_vertices, want $pre_vertices" >&2; exit 1; }
seq=$(curl -fsS "http://$addr/stats" | grep -m1 '"seq"' | tr -dc '0-9')
[ "$seq" = 1 ] || { echo "mutation seq $seq, want 1" >&2; exit 1; }
post_query=$(curl -fsS "http://$addr/query?q=demo/term/0&algo=blinks&k=5&nocache=1" | normalize)
[ "$post_query" = "$pre_query" ] || {
  echo "query answers diverged after crash recovery" >&2
  echo "before: $pre_query" >&2
  echo "after:  $post_query" >&2
  exit 1
}

# SIGHUP is ignored: the daemon neither dies nor changes what it serves.
kill -HUP "$daemon_pid"
sleep 0.5
kill -0 "$daemon_pid" 2>/dev/null || { echo "daemon died on SIGHUP" >&2; cat "$workdir/daemon.log" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz")
[ "$code" = 200 ] || { echo "/readyz after SIGHUP returned $code, want 200" >&2; exit 1; }
hup_query=$(curl -fsS "http://$addr/query?q=demo/term/0&algo=blinks&k=5&nocache=1" | normalize)
[ "$hup_query" = "$post_query" ] || { echo "query answers changed after SIGHUP" >&2; exit 1; }

# The write path survived recovery: another batch continues the sequence,
# and a manual compaction folds the log into the snapshot.
body=$(printf '{"add_edges":[{"from":%d,"to":1}]}' "$n0")
resp=$(curl -fsS -X POST -H "X-Admin-Token: $token" -d "$body" "http://$addr/admin/edges")
echo "$resp" | grep -Eq '"seq": *2,' || { echo "post-recovery mutation failed: $resp" >&2; exit 1; }
pre_wal=$(wc -c <"$wal")
resp=$(curl -fsS -X POST -H "Authorization: Bearer $token" "http://$addr/admin/compact")
echo "$resp" | grep -Eq '"covered_seq": *2,' || { echo "compaction failed: $resp" >&2; exit 1; }
post_wal=$(wc -c <"$wal")
[ "$post_wal" -lt "$pre_wal" ] || { echo "WAL not truncated ($pre_wal -> $post_wal)" >&2; exit 1; }

# Final restart: boots from the compacted snapshot with nothing to replay.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=
start_daemon
seq=$(curl -fsS "http://$addr/stats" | grep -m1 '"seq"' | tr -dc '0-9')
[ "$seq" = 2 ] || { echo "compacted seq $seq, want 2" >&2; exit 1; }

echo "WAL crash smoke passed: mutate -> kill -9 -> replay converged, compaction covered seq 2"
