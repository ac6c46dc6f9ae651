#!/bin/sh
# Regenerate every golden file from the current code, so an intended
# model change is reviewed as one `git diff test/golden`:
#   test/golden/figures-quick/  the 13 quick-suite panels and CPI CSVs
#   test/golden/stats.jsonl     the full Stats of four small cells
#   test/golden/compress.txt    every quick-suite dictionary
# perfbench/reference.json belongs to the benchmark and is left alone.
#
# Usage, from anywhere in the repository: test/golden/regen.sh
set -eu
cd "$(dirname "$0")/../.."
golden=test/golden
actual=_build/default/test

dune build
rm -f "$golden"/figures-quick/*.csv
dune exec bin/disesim.exe -- figures --quick --no-cache --jobs 1 \
  --csv "$golden/figures-quick"

# The golden tests write compress.actual / stats.actual only when a
# pinned value moved; clear stale ones so only this run's are copied.
rm -f "$actual/compress.actual" "$actual/stats.actual"
if ! dune runtest; then
  # a failure that wrote no .actual file is not golden drift
  [ -f "$actual/compress.actual" ] || [ -f "$actual/stats.actual" ] || exit 1
  if [ -f "$actual/compress.actual" ]; then
    cp "$actual/compress.actual" "$golden/compress.txt"
  fi
  if [ -f "$actual/stats.actual" ]; then
    cp "$actual/stats.actual" "$golden/stats.jsonl"
  fi
  # with the new goldens in place, the suite must pass
  dune runtest
fi
git status --short "$golden"
