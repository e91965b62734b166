#!/bin/sh
# Chaos-harness smoke test: the self-healing serve gate must pass with
# faults enabled (kills + wedges against a snapshot-backed sharded
# server recover with zero failed well-formed queries), must write a
# schema-tagged BENCH_chaos.json with every gate true, and must FAIL
# when --inject disables the supervisor — proof the gate
# actually bites.  Only answers are gated: under --quick the recovery
# p99 (wall time) is printed, not gated.  Wired into `dune runtest` (see
# bench/dune); takes the bench binary as $1.
set -eu

bench=${1:?usage: chaos_smoke.sh path/to/main.exe}
case "$bench" in
  /*) : ;;
  *) bench=$(pwd)/$bench ;;
esac

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
cd "$dir"

# 1. supervised run: every gate must hold
"$bench" --quick chaos >out.txt 2>err.txt || {
  echo "chaos_smoke.sh: bench chaos failed under supervision" >&2
  cat out.txt err.txt >&2
  exit 1
}

grep -q 'cla\.bench\.chaos/v1' BENCH_chaos.json || {
  echo "chaos_smoke.sh: schema missing from BENCH_chaos.json" >&2
  cat BENCH_chaos.json >&2
  exit 1
}

for gate in corrupt_fallback snapshot_oread snapshot_answers_match \
            zero_failed_good restarts_observed; do
  grep -q "\"$gate\": *true" BENCH_chaos.json || {
    echo "chaos_smoke.sh: gate $gate not true in BENCH_chaos.json" >&2
    cat BENCH_chaos.json >&2
    exit 1
  }
done

grep 'recovery p99' out.txt || true

# faults must actually have fired, and the supervisor must have restarted
grep -q '"kill:' BENCH_chaos.json || {
  echo "chaos_smoke.sh: no kill fault fired" >&2
  cat BENCH_chaos.json >&2
  exit 1
}
grep -q '"shard_restarts": *0' BENCH_chaos.json && {
  echo "chaos_smoke.sh: supervised run logged zero restarts" >&2
  cat BENCH_chaos.json >&2
  exit 1
}

# 2. unsupervised run: the same faults must blow the gate (exit 1)
if "$bench" --quick --inject chaos >out2.txt 2>err2.txt; then
  echo "chaos_smoke.sh: --inject did NOT fail the gate" >&2
  cat out2.txt >&2
  exit 1
fi

grep -q 'CHAOS GATE FAILED' out2.txt || {
  echo "chaos_smoke.sh: unsupervised run failed for the wrong reason" >&2
  cat out2.txt err2.txt >&2
  exit 1
}

echo "chaos_smoke.sh: ok"
