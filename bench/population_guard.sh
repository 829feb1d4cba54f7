#!/usr/bin/env bash
# CLI guard for undersized GA populations: --population below
# elite_count + 1 (the default elite_count is 2) must be rejected with
# exit 1 and a message naming both values, never end in a signal.
#
# Usage: population_guard.sh <synthesize_file> <system.mmsyn>
set -uo pipefail

BIN=${1:?usage: population_guard.sh <synthesize_file> <system.mmsyn>}
IN=${2:?usage: population_guard.sh <synthesize_file> <system.mmsyn>}
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT

for pop in 0 1 2; do
  "$BIN" --input "$IN" --quiet --population "$pop" --generations 5 \
    > /dev/null 2> "$ERR"
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "population_guard: --population $pop exited $code, expected 1" >&2
    cat "$ERR" >&2
    exit 1
  fi
  if ! grep -q -- "--population=$pop .*elite_count=2" "$ERR"; then
    echo "population_guard: --population $pop message lacks both values:" >&2
    cat "$ERR" >&2
    exit 1
  fi
done
echo "population_guard: ok"
