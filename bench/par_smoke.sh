#!/bin/sh
# Parallelism smoke test: the bench --jobs sweep must report identical
# bytes for every job count (and write a parseable BENCH_parallel.json)
# and, proven via --inject, fail when one object diverges;
# `cla compile -j2` and `-j4` must produce objects byte-identical to -j1
# (-j4 is capped at the core count; test_par drives the pool itself
# wider than the host, where a lost wakeup or a mis-split chunk would
# show), and a negative job count must be a clean usage error, not a
# crash.
# Wired into `dune runtest` (see bench/dune); takes the cla binary as $1
# and the bench binary as $2.
set -eu

cla=${1:?usage: par_smoke.sh path/to/cla.exe path/to/main.exe}
bench=${2:?usage: par_smoke.sh path/to/cla.exe path/to/main.exe}
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

# 1. Tiny sweep: exits 1 on any divergence in object or linked bytes
#    from -j1 and writes BENCH_parallel.json.
"$bench" parallel --jobs=1,2 --units=2 --quick >/dev/null
grep -q 'cla\.bench\.parallel/v3' BENCH_parallel.json || {
  echo "par_smoke.sh: schema missing from BENCH_parallel.json" >&2
  cat BENCH_parallel.json >&2
  exit 1
}
if grep -q '"identical": false' BENCH_parallel.json; then
  echo "par_smoke.sh: a sweep row reports identical=false" >&2
  cat BENCH_parallel.json >&2
  exit 1
fi

# 2. The gate can actually fail: --inject flips one byte of one j>=2
#    object and the sweep must exit 1 and say the bytes diverged.
rc=0
"$bench" parallel --jobs=1,2 --units=2 --quick --inject \
  >/dev/null 2>err.txt || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "par_smoke.sh: injected divergence exited $rc, want 1" >&2
  cat err.txt >&2
  exit 1
fi
grep -q 'diverged' err.txt || {
  echo "par_smoke.sh: missing divergence message" >&2
  cat err.txt >&2
  exit 1
}

# 3. cla compile -j2 and -j4 object bytes must match -j1 exactly.
#    Compile the same sources each time (objects embed the source path,
#    so the paths must not change between runs), stashing the -j1
#    outputs in between.
"$cla" gen nethack --scale 0.05 --dir srcA >/dev/null
"$cla" compile -j 1 srcA/*.c >/dev/null
mkdir j1 && mv srcA/*.clo j1/
for j in 2 4; do
  "$cla" compile -j "$j" srcA/*.c >/dev/null
  for a in srcA/*.clo; do
    b=j1/$(basename "$a")
    cmp -s "$a" "$b" || {
      echo "par_smoke.sh: $a and $b differ (-j$j vs -j1)" >&2
      exit 1
    }
  done
  rm srcA/*.clo
done

# 4. Negative job counts are a usage error (exit 2), not a crash.
rc=0
"$cla" compile --jobs=-2 srcA/*.c >/dev/null 2>err.txt || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "par_smoke.sh: cla compile --jobs=-2 exited $rc, want 2" >&2
  cat err.txt >&2
  exit 1
fi
grep -q 'invalid job count' err.txt || {
  echo "par_smoke.sh: missing 'invalid job count' message" >&2
  cat err.txt >&2
  exit 1
}

# 5. The regression check reads any bench file, not just the solver's:
#    re-run the sweep against its own BENCH_parallel.json and require a
#    verdict.  The verdict compares wall times, so it is only reported.
"$bench" parallel --jobs=1,2 --units=2 --quick \
  --check-against=BENCH_parallel.json >check.txt 2>check_err.txt
if grep -q 'regression check .*: clean' check.txt; then
  echo "par_smoke.sh: self check-against clean"
elif grep -q 'REGRESSION' check_err.txt; then
  echo "par_smoke.sh: self check-against saw timing noise (informational):"
  grep 'REGRESSION' check_err.txt
else
  echo "par_smoke.sh: self check-against printed no verdict" >&2
  cat check.txt check_err.txt >&2
  exit 1
fi

echo "par_smoke.sh: ok"
