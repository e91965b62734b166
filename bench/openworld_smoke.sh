#!/bin/sh
# Open-world soundness gate smoke test: the body-deletion stream must
# hold the ⊇ property at every step (exit 0), and --inject —
# which analyzes the stripped fragments closed-world instead of
# synthesizing havoc — must make the gate fail (exit 1), proving the
# gate is live, not decorative.  Wired into `dune runtest` (see
# bench/dune); takes the bench binary as $1.
set -eu

bench=${1:?usage: openworld_smoke.sh path/to/main.exe}
case "$bench" in
  /*) : ;;
  *) bench=$(pwd)/$bench ;;
esac

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
cd "$dir"

# 1. The gate itself: every deletion step keeps every surviving
#    closed-world fact.
"$bench" openworld >out.txt
grep -q 'openworld: ok' out.txt || {
  echo "openworld_smoke.sh: gate did not report ok" >&2
  cat out.txt >&2
  exit 1
}

# 2. The gate must actually fail when havoc synthesis is skipped.
rc=0
"$bench" --inject openworld >inject.txt 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "openworld_smoke.sh: --inject exited $rc, want 1" >&2
  cat inject.txt >&2
  exit 1
fi
grep -q 'openworld: FAIL' inject.txt || {
  echo "openworld_smoke.sh: --inject exit 1 without a FAIL line" >&2
  cat inject.txt >&2
  exit 1
}

# 3. A misspelt section is a usage error (exit 2), not a silent no-op.
rc=0
"$bench" chaoss >usage.txt 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "openworld_smoke.sh: bench chaoss exited $rc, want 2" >&2
  cat usage.txt >&2
  exit 1
fi

echo "openworld_smoke.sh: ok"
