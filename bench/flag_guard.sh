#!/usr/bin/env bash
# CLI guard for malformed job flags: every bad value must exit 1 with a
# message naming the flag, in both synthesize_file and mmsyn_client,
# before any work (the client never reaches the socket).
#
# Usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>
set -uo pipefail

SF=${1:?usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>}
CL=${2:?usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>}
IN=${3:?usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>}
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT

status=0
check() {  # check <flag> <value>
  local bin
  for bin in "$SF --input $IN --quiet" "$CL --socket /nonexistent.sock --input $IN"; do
    $bin "--$1=$2" > /dev/null 2> "$ERR"
    code=$?
    if [ "$code" -ne 1 ]; then
      echo "flag_guard: ${bin%% *} --$1 '$2' exited $code, expected 1" >&2
      cat "$ERR" >&2
      status=1
    elif ! grep -q -- "--$1" "$ERR"; then
      echo "flag_guard: ${bin%% *} --$1 '$2' message does not name the flag:" >&2
      cat "$ERR" >&2
      status=1
    fi
  done
}

check threads abc
check threads -1
check seed 1x
check time-budget nan
check time-budget -1
check generations -5
check population 99999999999
check gantt maybe
[ "$status" -eq 0 ] && echo "flag_guard: ok"
exit "$status"
