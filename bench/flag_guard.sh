#!/usr/bin/env bash
# CLI guard for malformed job flags: every bad value must exit 1 with a
# message naming the flag, in both synthesize_file and mmsyn_client,
# before any work (the client never reaches the socket). The CLI-only
# integer flags of synthesize_file are range-checked the same way, so a
# value beyond their field never wraps into a different valid one.
#
# Usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>
set -uo pipefail

SF=${1:?usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>}
CL=${2:?usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>}
IN=${3:?usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn>}
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT

status=0
expect_rejected() {  # expect_rejected <command> <flag> <value>
  $1 "--$2=$3" > /dev/null 2> "$ERR"
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "flag_guard: ${1%% *} --$2 '$3' exited $code, expected 1" >&2
    cat "$ERR" >&2
    status=1
  elif ! grep -q -- "--$2" "$ERR"; then
    echo "flag_guard: ${1%% *} --$2 '$3' message does not name the flag:" >&2
    cat "$ERR" >&2
    status=1
  fi
}
check() {  # check <flag> <value>: both CLIs
  expect_rejected "$SF --input $IN --quiet" "$1" "$2"
  expect_rejected "$CL --socket /nonexistent.sock --input $IN" "$1" "$2"
}
check_sf() {  # check_sf <flag> <value>: synthesize_file-only flags
  expect_rejected "$SF --input $IN --quiet" "$1" "$2"
}

check threads abc
check threads -1
check seed 1x
check time-budget nan
check time-budget -1
check generations -5
check population 99999999999
check gantt maybe

check_sf islands 4294967297
check_sf islands 0
check_sf migrants -4294967294
check_sf migration-interval -4294967276
check_sf export-mul 4294967304
check_sf export-mul 13
check_sf mode-cache-capacity -1
check_sf exhaustive-budget -1
check_sf checkpoint-every -1
check_sf checkpoint-every 4294967321
check_sf checkpoint-keep 0
check_sf checkpoint-keep 4294967299
[ "$status" -eq 0 ] && echo "flag_guard: ok"
exit "$status"
