#!/bin/sh
# Solver matrix and paper section smoke test: a tiny --scale sweep must
# report zero divergence on every workload, the C profiles included, and
# write a schema-tagged BENCH_solver.json whose regression check re-reads
# it and prints a verdict; the paper section (Table 2, Table 4,
# substitution) must hold both answer gates and print its table in
# line; and --inject must make each hard-fail path fire (exit 1) —
# proving the gates are live, not decorative.  Wired into `dune runtest` (see bench/dune); takes the
# bench binary as $1.
set -eu

bench=${1:?usage: solver_smoke.sh path/to/main.exe}
case "$bench" in
  /*) : ;;
  *) bench=$(pwd)/$bench ;;
esac

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
cd "$dir"

# 1. Tiny sweep: every solver and config cell must match the sorted-array
#    baseline, and the JSON must carry the schema tag and the summary.
"$bench" --scale=0.05 solver >out.txt
grep -q 'cla\.bench\.solver/v1' BENCH_solver.json || {
  echo "solver_smoke.sh: schema missing from BENCH_solver.json" >&2
  cat BENCH_solver.json >&2
  exit 1
}
grep -q 'dense_speedup_vs_array' BENCH_solver.json || {
  echo "solver_smoke.sh: summary missing from BENCH_solver.json" >&2
  exit 1
}
if grep -q '"equal_to_baseline": false' BENCH_solver.json; then
  echo "solver_smoke.sh: a sweep row reports equal_to_baseline=false" >&2
  cat BENCH_solver.json >&2
  exit 1
fi
for w in sparse dense cyclic nethack burlap vortex povray gcc; do
  grep -q "\"workload\": \"$w\"" BENCH_solver.json || {
    echo "solver_smoke.sh: no $w rows in BENCH_solver.json" >&2
    exit 1
  }
done

# 2. The divergence gate must actually exit 1 when a solution is
#    deliberately perturbed.
rc=0
"$bench" --scale=0.05 --inject solver >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "solver_smoke.sh: --inject exited $rc, want 1" >&2
  exit 1
fi

# 3. Regression check against the run's own JSON must re-parse the file
#    (proves it is well-formed) and print a verdict.  The verdict compares
#    wall times, so tier-1 only reports it; a full run gates it with
#    --check-hard.
"$bench" --scale=0.05 --check-against=BENCH_solver.json solver \
  >check.txt 2>check_err.txt
if grep -q 'cannot read' check_err.txt; then
  echo "solver_smoke.sh: check-against could not re-read its own JSON" >&2
  cat check_err.txt >&2
  exit 1
fi
if grep -q 'regression check .*: clean' check.txt; then
  echo "solver_smoke.sh: self check-against clean"
elif grep -q 'REGRESSION' check_err.txt; then
  echo "solver_smoke.sh: self check-against saw timing noise (informational):"
  grep 'REGRESSION' check_err.txt
else
  echo "solver_smoke.sh: self check-against printed no verdict" >&2
  cat check.txt check_err.txt >&2
  exit 1
fi

# 4. The paper section: Table 2's exact kind counts and substitution's
#    preserved points-to sets are answer gates, and --inject (a perturbed
#    substituted solution) must fail the section.
"$bench" --scale=0.05 paper >paper.txt
grep -q 'cla\.bench\.paper/v1' BENCH_paper.json || {
  echo "solver_smoke.sh: schema missing from BENCH_paper.json" >&2
  cat BENCH_paper.json >&2
  exit 1
}
for g in table2_exact_kinds subst_preserves; do
  grep -q "\"$g\": true" BENCH_paper.json || {
    echo "solver_smoke.sh: paper gate $g did not hold" >&2
    cat paper.txt >&2
    exit 1
  }
done
# Every table line (from the header to the "wrote" line) is as wide as
# the header and has a blank at each of the header's column boundaries:
# no row's wider cell shifts the columns after it.
awk '
/^wrote / { t = 0 }
t {
  if (length($0) != length(h)) {
    printf "line %d is %d wide, the header %d\n", NR, length($0), length(h); bad = 1
  }
  for (i = 1; i <= n; i++)
    if (substr($0, b[i], 1) != " ") {
      printf "line %d: no column boundary at %d\n", NR, b[i]; bad = 1
    }
}
/^profile scale / {
  h = $0; n = 0; t = 1
  for (i = 1; i < length(h); i++)
    if (substr(h, i, 1) != " " && substr(h, i + 1, 1) == " ") b[++n] = i + 1
}
END { if (!t && !n) { print "no table header"; bad = 1 }; exit bad }
' paper.txt >align.txt || {
  echo "solver_smoke.sh: paper table columns out of line" >&2
  cat align.txt paper.txt >&2
  exit 1
}
rc=0
"$bench" --scale=0.05 --inject paper >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "solver_smoke.sh: paper --inject exited $rc, want 1" >&2
  exit 1
fi

echo "solver_smoke.sh: ok"
