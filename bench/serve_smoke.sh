#!/bin/sh
# Serving smoke test, mirroring faults_smoke.sh: build a small database,
# boot `cla serve` for real, and check the resilience contract from the
# outside:
#   1. good queries answer (exit 0), unknown variables reject (exit 2),
#      a sleep past its deadline times out (exit 4), garbage is a clean
#      error (exit 2) — and the server survives all of it;
#   2. with one execution slot and no waiting room, a busy server sheds
#      (exit 4) and `cla query --retry` rides the backoff to an answer;
#   3. `cla serve-bench` drives a mixed good/poisoned/slow stream and
#      must report zero transport errors and zero malformed replies;
#   4. `cla stats` snapshots the live server without restarting it:
#      uptime, per-shard latency percentiles, and the query counters
#      the run just generated;
#   5. SIGTERM drains gracefully: the server exits 0 and prints its
#      final counters;
#   6. a shard count past the host's capacity is refused (exit 2).
# Wired into `dune runtest` (see bench/dune); takes the cla binary as $1.
set -eu

cla=${1:?usage: serve_smoke.sh path/to/cla.exe}
case "$cla" in
  /*) : ;;
  *) cla=$(pwd)/$cla ;;
esac

dir=$(mktemp -d)
srv_pid=
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || :
  rm -rf "$dir"
}
trap cleanup EXIT INT TERM
cd "$dir"

cat > a.c <<'EOF'
int x, y, z;
int *p, *q, *r;
void f(void) { p = &x; q = &y; r = p; }
void g(void) { q = p; }
EOF
"$cla" compile a.c -o a.clo >/dev/null
"$cla" link a.clo -o prog.cla >/dev/null

"$cla" serve prog.cla --socket s.sock --allow-sleep \
  --max-inflight 1 --max-queue 0 --watchdog-grace-ms 100 > serve.log 2>&1 &
srv_pid=$!

# wait for the socket (bounded)
i=0
while [ ! -S s.sock ]; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "serve_smoke.sh: server never bound" >&2; exit 1; }
  sleep 0.05
done

expect() {
  want=$1; shift
  rc=0
  "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "serve_smoke.sh: '$*' exited $rc, want $want" >&2
    exit 1
  fi
}

# 1. the protocol's verdicts map to the documented exit codes
expect 0 "$cla" query --socket s.sock --ping
expect 0 "$cla" query --socket s.sock --points-to p
expect 0 "$cla" query --socket s.sock --alias p,q
expect 2 "$cla" query --socket s.sock --points-to no_such_var
expect 4 "$cla" query --socket s.sock --raw \
  '{"id":1,"op":"sleep","ms":400,"deadline_ms":40}'
expect 2 "$cla" query --socket s.sock --raw 'this is not json'

# the alias answer itself must be right (q = p, so p and q alias)
out=$("$cla" query --socket s.sock --alias p,q)
case "$out" in
  *'"aliased": true'*) : ;;
  *) echo "serve_smoke.sh: expected p,q to alias: $out" >&2; exit 1 ;;
esac

# 2. occupy the single slot; the next bare query is shed, --retry wins
"$cla" query --socket s.sock --raw \
  '{"id":2,"op":"sleep","ms":500,"deadline_ms":5000}' >/dev/null 2>&1 &
slow_pid=$!
sleep 0.1
expect 4 "$cla" query --socket s.sock --points-to p
expect 0 "$cla" query --socket s.sock --points-to p --retry --attempts 10
wait "$slow_pid" || { echo "serve_smoke.sh: slow query failed" >&2; exit 1; }

# 3. a mixed good/poisoned/slow stream: exits non-zero if any query is
#    dropped, any reply is malformed, or the server dies mid-stream
"$cla" serve-bench prog.cla --socket s.sock -n 40 --clients 4 \
  --slow-ms 100 --deadline-ms 2000 >/dev/null || {
  echo "serve_smoke.sh: serve-bench failed (exit $?)" >&2
  exit 1
}

# 4. live introspection: `cla stats` snapshots the running server.
#    The table view must answer at all; the raw view must carry uptime,
#    per-shard percentile blocks, and the counters the stream above
#    just generated.  And the numbers must be sane: the server has
#    answered dozens of queries by now, so serve.queries >= 40 and
#    p50 <= p99 in every latency block.
expect 0 "$cla" stats --socket s.sock
"$cla" stats --socket s.sock --json > stats.json
for field in '"uptime_s"' '"shards"' '"p50_ms"' '"p99_ms"' '"serve.queries"'; do
  grep -q "$field" stats.json || {
    echo "serve_smoke.sh: stats snapshot missing $field" >&2
    cat stats.json >&2
    exit 1
  }
done
queries=$(sed -n 's/.*"serve\.queries": \([0-9]*\).*/\1/p' stats.json)
[ -n "$queries" ] && [ "$queries" -ge 40 ] || {
  echo "serve_smoke.sh: stats reports serve.queries=$queries, want >= 40" >&2
  cat stats.json >&2
  exit 1
}
awk '
  BEGIN { RS = "," }
  /"p50_ms":/ { gsub(/[^0-9.eE+-]/, "", $0); p50 = $0 }
  /"p99_ms":/ {
    gsub(/[^0-9.eE+-]/, "", $0)
    if (p50 == "") { print "p99 before p50?"; exit 1 }
    if (p50 + 0 > $0 + 0) { printf "p50 %s > p99 %s\n", p50, $0; exit 1 }
    p50 = ""
  }
' stats.json || {
  echo "serve_smoke.sh: p50 > p99 in a stats latency block" >&2
  cat stats.json >&2
  exit 1
}
# a verbose query must surface the server-side telemetry on stderr
"$cla" query --socket s.sock --points-to p --verbose 2> verbose.err >/dev/null
grep -q '^server: shard=' verbose.err || {
  echo "serve_smoke.sh: query --verbose printed no server telemetry" >&2
  cat verbose.err >&2
  exit 1
}

# 5. graceful drain: exit 0, socket unlinked, counters printed
kill -TERM "$srv_pid"
rc=0
wait "$srv_pid" || rc=$?
srv_pid=
if [ "$rc" -ne 0 ]; then
  echo "serve_smoke.sh: server exited $rc on SIGTERM" >&2
  cat serve.log >&2
  exit 1
fi
[ ! -S s.sock ] || { echo "serve_smoke.sh: socket left behind" >&2; exit 1; }
grep -q 'drained\.' serve.log || {
  echo "serve_smoke.sh: no drain summary in server log" >&2
  cat serve.log >&2
  exit 1
}

# 6. shard counts past the host's capacity are refused with exit 2
#    (oversubscription), not accepted.
rc=0
"$cla" serve prog.cla --shards 4096 >/dev/null 2>err.txt || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "serve_smoke.sh: serve --shards 4096 exited $rc, want 2" >&2
  cat err.txt >&2
  exit 1
fi
grep -q 'invalid shard count' err.txt || {
  echo "serve_smoke.sh: missing shard-cap message" >&2
  cat err.txt >&2
  exit 1
}

echo "serve_smoke.sh: ok"
