#!/usr/bin/env bash
# CLI guard for malformed job flags: every bad value must exit 1 with a
# message naming the flag, in both synthesize_file and mmsyn_client,
# before any work (the client never reaches the socket). The CLI-only
# integer flags of synthesize_file are range-checked the same way, so a
# value beyond their field never wraps into a different valid one; so are
# mmsyn_serve's integer flags, before the server starts.
#
# Usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn> \
#                      <mmsyn_serve>
set -uo pipefail

USAGE="usage: flag_guard.sh <synthesize_file> <mmsyn_client> <system.mmsyn> <mmsyn_serve>"
SF=${1:?$USAGE}
CL=${2:?$USAGE}
IN=${3:?$USAGE}
SV=${4:?$USAGE}
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
check_serve() {  # check_serve <flag> <value>: mmsyn_serve flags
  # A missing state directory makes a wrongly accepted value fail at
  # start-up (exit 1, flag not named) instead of serving forever.
  expect_rejected "$SV --socket /nonexistent/s.sock --state-dir /nonexistent" \
    "$1" "$2"
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

check_serve workers 4294967296
check_serve workers -1
check_serve workers 1025
check_serve queue-limit -1
check_serve queue-limit 4294967296
check_serve max-transient-retries -1
check_serve max-deterministic-failures -4294967294
check_serve max-crash-attempts -1
check_serve checkpoint-every -1
check_serve checkpoint-every 4294967321
check_serve checkpoint-keep 0
check_serve checkpoint-keep 1001
[ "$status" -eq 0 ] && echo "flag_guard: ok"
exit "$status"
