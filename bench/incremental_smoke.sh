#!/bin/sh
# Incremental-pipeline smoke test, in three acts:
#   1. `bench incremental` must pass its hard gate honestly: replaying
#      the edit stream keeps Solution.equal at every step, the compile
#      cache scores 1 miss / n-1 hits per one-TU edit, additions resume
#      the solver, and a schema-tagged BENCH_incremental.json lands with
#      every answer gate true (the tail speedup, a wall-time figure, is
#      reported but not gated under --quick) and every resumed row's
#      extraction recomputing fewer answers than the view has variables;
#   2. --inject compares each step against the previous step's
#      solution and must blow the gate (exit 1) — proof it can fire;
#   3. `cla serve --watch DIR` answers across an edit: query, append an
#      assignment to one TU, force a rescan with the `reanalyze` op
#      (one recompile, delta link, solver resume, atomic swap), and the
#      next query must see the new points-to target.
# Wired into `dune runtest` (see bench/dune); takes cla.exe and the
# bench binary.
set -eu

cla=${1:?usage: incremental_smoke.sh path/to/cla.exe path/to/main.exe}
bench=${2:?usage: incremental_smoke.sh path/to/cla.exe path/to/main.exe}
case "$cla" in
  /*) : ;;
  *) cla=$(pwd)/$cla ;;
esac
case "$bench" in
  /*) : ;;
  *) bench=$(pwd)/$bench ;;
esac

dir=$(mktemp -d)
srv_pid=
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || :
  rm -rf "$dir"
}
trap cleanup EXIT INT TERM
cd "$dir"

# 1. honest run: the gate must hold and the report must say so
"$bench" --quick incremental >out.txt 2>err.txt || {
  echo "incremental_smoke.sh: bench incremental failed honestly" >&2
  cat out.txt err.txt >&2
  exit 1
}
grep -q 'cla\.bench\.incremental/v1' BENCH_incremental.json || {
  echo "incremental_smoke.sh: schema missing from BENCH_incremental.json" >&2
  cat BENCH_incremental.json >&2
  exit 1
}
for gate in solutions_equal cache_discipline additions_resumed; do
  grep -q "\"$gate\": *true" BENCH_incremental.json || {
    echo "incremental_smoke.sh: gate $gate not true" >&2
    cat BENCH_incremental.json >&2
    exit 1
  }
done
grep -q '"tail_speedup":' BENCH_incremental.json || {
  echo "incremental_smoke.sh: tail speedup not reported" >&2
  cat BENCH_incremental.json >&2
  exit 1
}
# a resume re-derives only what its edit reached: on every resumed row
# the extraction sweep recomputes fewer answers than the view has
# variables (a count, not a wall time)
awk '
  /"resumed":/ { resumed = ($0 ~ /true/) }
  /"vars":/ { gsub(/[^0-9]/, ""); vars = $0 + 0 }
  /"extract_recomputed":/ {
    gsub(/[^0-9]/, ""); rows++
    if (resumed) {
      checked++
      if ($0 + 0 >= vars) {
        printf "row %d: extract_recomputed %d >= vars %d\n", rows, $0, vars > "/dev/stderr"
        bad++
      }
    }
  }
  END { exit (bad || !checked) }
' BENCH_incremental.json || {
  echo "incremental_smoke.sh: a resume re-extracted every answer" >&2
  cat BENCH_incremental.json >&2
  exit 1
}
# the default stream must exercise both solver paths
grep -q '(resume)' out.txt || {
  echo "incremental_smoke.sh: no step resumed the solver" >&2
  cat out.txt >&2
  exit 1
}
grep -q '(remove)' out.txt || {
  echo "incremental_smoke.sh: no removal step in the default stream" >&2
  cat out.txt >&2
  exit 1
}

# 2. the gate must bite: a stale solution has to fail the run
if "$bench" --quick --inject incremental >out2.txt 2>err2.txt; then
  echo "incremental_smoke.sh: --inject did NOT fail the gate" >&2
  cat out2.txt >&2
  exit 1
fi
grep -q 'INCREMENTAL GATE FAILED.*solutions_equal' out2.txt || {
  echo "incremental_smoke.sh: stale run failed for the wrong reason" >&2
  cat out2.txt err2.txt >&2
  exit 1
}

# 3. live watch round-trip: edit -> reanalyze -> the answer moved.
#    A huge poll period makes the explicit `reanalyze` op the only
#    trigger, so the test is deterministic.
mkdir src
cat > src/a.c <<'EOF'
int x; int *p;
void f(void) { p = &x; }
EOF
cat > src/b.c <<'EOF'
extern int *p; int *q;
void g(void) { q = p; }
EOF

"$cla" serve --watch src --socket s.sock --watch-poll-ms 60000 \
  > serve.log 2>&1 &
srv_pid=$!
i=0
while [ ! -S s.sock ]; do
  i=$((i + 1))
  [ "$i" -lt 200 ] || {
    echo "incremental_smoke.sh: watch server never bound" >&2
    cat serve.log >&2
    exit 1
  }
  sleep 0.05
done

out=$("$cla" query --socket s.sock --points-to q)
case "$out" in
  *'"x"'*) : ;;
  *) echo "incremental_smoke.sh: baseline points-to q missing x: $out" >&2
     exit 1 ;;
esac
case "$out" in
  *'"z"'*) echo "incremental_smoke.sh: z visible before the edit: $out" >&2
           exit 1 ;;
  *) : ;;
esac

# the one-TU edit: append an assignment giving q a second target
cat >> src/b.c <<'EOF'
int z;
void h(void) { q = &z; }
EOF

re=$("$cla" query --socket s.sock --raw '{"id":1,"op":"reanalyze"}')
case "$re" in
  *'"changed": 1'*) : ;;
  *) echo "incremental_smoke.sh: reanalyze saw wrong change count: $re" >&2
     exit 1 ;;
esac
case "$re" in
  *'"cache_hits": 1'*) : ;;
  *) echo "incremental_smoke.sh: unchanged TU was recompiled: $re" >&2
     exit 1 ;;
esac
case "$re" in
  *'"resumed": true'*) : ;;
  *) echo "incremental_smoke.sh: append-only edit did not resume: $re" >&2
     exit 1 ;;
esac

out=$("$cla" query --socket s.sock --points-to q)
case "$out" in
  *'"x"'*) : ;;
  *) echo "incremental_smoke.sh: post-edit points-to q lost x: $out" >&2
     exit 1 ;;
esac
case "$out" in
  *'"z"'*) : ;;
  *) echo "incremental_smoke.sh: post-edit points-to q missing z: $out" >&2
     exit 1 ;;
esac

# a second reanalyze with nothing changed must be a cheap no-op
re=$("$cla" query --socket s.sock --raw '{"id":2,"op":"reanalyze"}')
case "$re" in
  *'"changed": 0'*) : ;;
  *) echo "incremental_smoke.sh: no-op reanalyze reported changes: $re" >&2
     exit 1 ;;
esac

kill -TERM "$srv_pid"
rc=0
wait "$srv_pid" || rc=$?
srv_pid=
if [ "$rc" -ne 0 ]; then
  echo "incremental_smoke.sh: watch server exited $rc on SIGTERM" >&2
  cat serve.log >&2
  exit 1
fi

echo "incremental_smoke.sh: ok"
