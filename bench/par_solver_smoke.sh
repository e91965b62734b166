#!/bin/sh
# Parallel-solve oracle smoke test: the bench parallel sweep must
# hard-gate byte-identical solutions at j2 (exit 0 when they match,
# and — proven via --inject — exit 1 when one diverges).
# Also checks `cla analyze -j 2` answers match -j 1 end to end, and
# that an oversubscribed `cla serve --shards` is a clean usage error.
# Wired into `dune runtest` (see bench/dune); takes the cla binary as
# $1 and the bench binary as $2.
set -eu

cla=${1:?usage: par_solver_smoke.sh path/to/cla.exe path/to/main.exe}
bench=${2:?usage: par_solver_smoke.sh path/to/cla.exe path/to/main.exe}
case "$cla" in
  /*) : ;;
  *) cla=$(pwd)/$cla ;;
esac
case "$bench" in
  /*) : ;;
  *) bench=$(pwd)/$bench ;;
esac

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
cd "$dir"

# 1. The j2 solve oracle passes on an honest run: every cell solves
#    with the row-parallel bit-vector solver and Solution.equal
#    against -j1.
"$bench" parallel --jobs=1,2 --units=2 --quick >/dev/null
if grep -q '"identical": false' BENCH_parallel.json; then
  echo "par_solver_smoke.sh: honest sweep reports identical=false" >&2
  cat BENCH_parallel.json >&2
  exit 1
fi
grep -q 'solve_bitvector_wall_s' BENCH_parallel.json || {
  echo "par_solver_smoke.sh: v2 sweep has no solve cells" >&2
  cat BENCH_parallel.json >&2
  exit 1
}

# 2. The gate can actually fail: --inject perturbs one j>=2
#    solution and the sweep must exit 1 and say the solution diverged.
rc=0
"$bench" parallel --jobs=1,2 --units=2 --quick --inject \
  >/dev/null 2>err.txt || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "par_solver_smoke.sh: injected divergence exited $rc, want 1" >&2
  cat err.txt >&2
  exit 1
fi
grep -q 'diverged' err.txt || {
  echo "par_solver_smoke.sh: missing divergence message" >&2
  cat err.txt >&2
  exit 1
}

# 3. End to end: cla analyze -j 2 prints the same summary as -j 1 for
#    both parallel solvers (same variable/relation counts, same rung).
"$cla" gen nethack --scale 0.05 --dir src >/dev/null
"$cla" compile src/*.c >/dev/null
"$cla" link src/*.clo -o prog.cla >/dev/null
for algo in pretransitive bitvector; do
  "$cla" analyze --algo "$algo" -j 1 prog.cla | sed 's/, [0-9][0-9.]*s//' >j1.txt
  "$cla" analyze --algo "$algo" -j 2 prog.cla | sed 's/, [0-9][0-9.]*s//' >j2.txt
  cmp -s j1.txt j2.txt || {
    echo "par_solver_smoke.sh: analyze -j2 differs from -j1 ($algo)" >&2
    diff j1.txt j2.txt >&2 || true
    exit 1
  }
done

# 4. Shard counts past the host's pool capacity are refused with exit 2
#    (oversubscription), not accepted.
rc=0
"$cla" serve prog.cla --shards 4096 >/dev/null 2>err.txt || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "par_solver_smoke.sh: serve --shards 4096 exited $rc, want 2" >&2
  cat err.txt >&2
  exit 1
fi
grep -q 'invalid shard count' err.txt || {
  echo "par_solver_smoke.sh: missing shard-cap message" >&2
  cat err.txt >&2
  exit 1
}

echo "par_solver_smoke.sh: ok"
