#!/usr/bin/env bash
# Crash-torture harness: run a checkpointed synthesis under a deterministic
# failpoint schedule that injects transient I/O faults, corrupts a
# checkpoint generation on disk, and finally kills the process mid-save —
# then resume (through more injected faults) and require the final audited
# report to be byte-identical to a fault-free run. This extends the
# bit-identical-resume contract of resume_smoke.sh to the faulty world:
# recovery must heal every injected fault without changing the trajectory.
#
# Fault schedule (see common/failpoint.hpp for the spec grammar):
#   io.read=fail@1            transient read fault on the system file
#                             (healed by bounded retry)
#   pool.task=fail@7          transient failure of one pooled work item
#                             (healed by per-item retry; --threads 2)
#   checkpoint.write=corrupt@4  save #4 lands bit-flipped on disk
#   checkpoint.rename=kill@5    save #5 dies between rotation and rename
#
# After the kill: the base checkpoint name is *missing* (rotation already
# shifted it), generation .1 is the corrupted save #4, generation .2 is
# the good save #3. The resume must skip the hole and the corruption and
# fall back to .2 — exercised with one more transient read fault armed.
#
# A last leg writes a hostile count into an otherwise valid checkpoint:
# the newest generation's genome_length becomes 2^61 and its CRC is
# recomputed, so only the decoder's count bound can reject it. The resume
# must skip it with a note and finish from .1, byte-identically.
#
# Usage: crash_torture.sh [path-to-synthesize_file]
set -euo pipefail

BIN=${1:-build/examples/synthesize_file}
if [ ! -x "$BIN" ]; then
  echo "crash_torture: synthesize_file binary not found at '$BIN'" >&2
  exit 1
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

FLAGS=(--seed 7 --population 48 --generations 60 --threads 2
       --audit --gantt=false --report-timing=false)
KILL_SPEC='io.read=fail@1;pool.task=fail@7;checkpoint.write=corrupt@4;checkpoint.rename=kill@5'
RESUME_SPEC='io.read=fail@1'

"$BIN" --export-mul 9 --output "$WORK/sys.mmsyn" > /dev/null

# Fault-free reference run.
"$BIN" --input "$WORK/sys.mmsyn" "${FLAGS[@]}" > "$WORK/reference.txt"

# Tortured run: must die with the injected-kill exit code (137) at save #5.
set +e
"$BIN" --input "$WORK/sys.mmsyn" "${FLAGS[@]}" \
  --checkpoint "$WORK/run.ckpt" --checkpoint-every 1 --checkpoint-keep 3 \
  --failpoints "$KILL_SPEC" > /dev/null 2> "$WORK/tortured.err"
STATUS=$?
set -e
if [ "$STATUS" -ne 137 ]; then
  echo "crash_torture: FAIL — tortured run exited $STATUS, expected the" \
       "injected kill (137)" >&2
  cat "$WORK/tortured.err" >&2
  exit 1
fi

# The kill between rotation and rename leaves the base name missing, the
# corrupted save #4 as generation .1, and the good save #3 as .2.
if [ -e "$WORK/run.ckpt" ]; then
  echo "crash_torture: FAIL — base checkpoint exists; kill@5 never fired" >&2
  exit 1
fi
for gen in "$WORK/run.ckpt.1" "$WORK/run.ckpt.2"; do
  if [ ! -s "$gen" ]; then
    echo "crash_torture: FAIL — expected generation file $gen is missing" >&2
    exit 1
  fi
done

# Resume through the generation fallback, with a transient read fault
# armed on top; the run must finish cleanly (audit included, exit 0).
"$BIN" --input "$WORK/sys.mmsyn" "${FLAGS[@]}" \
  --resume "$WORK/run.ckpt" --checkpoint-keep 3 \
  --failpoints "$RESUME_SPEC" \
  > "$WORK/recovered.txt" 2> "$WORK/recovered.err"

# The recovery log must show the fallback actually happened: the missing
# newest generation and the corrupted .1 skipped, .2 loaded.
if ! grep -q 'skipped checkpoint generation.*cannot open' "$WORK/recovered.err"; then
  echo "crash_torture: FAIL — no skip note for the missing generation" >&2
  cat "$WORK/recovered.err" >&2
  exit 1
fi
if ! grep -q 'skipped checkpoint generation.*CRC mismatch' "$WORK/recovered.err"; then
  echo "crash_torture: FAIL — no skip note for the corrupted generation" >&2
  cat "$WORK/recovered.err" >&2
  exit 1
fi
if ! grep -q 'resumed from older generation .*run\.ckpt\.2' "$WORK/recovered.err"; then
  echo "crash_torture: FAIL — resume did not fall back to generation .2" >&2
  cat "$WORK/recovered.err" >&2
  exit 1
fi

if ! diff -u "$WORK/reference.txt" "$WORK/recovered.txt"; then
  echo "crash_torture: FAIL — recovered report differs from the fault-free" \
       "run" >&2
  exit 1
fi

# Hostile-count leg: a fault-free checkpointed run, then the newest
# generation's genome_length (file offset 64: 20-byte file header,
# 28-byte island container header, the island's u64 length and u64
# fingerprint) set to 2^61 with the payload CRC recomputed.
"$BIN" --input "$WORK/sys.mmsyn" "${FLAGS[@]}" \
  --checkpoint "$WORK/hostile.ckpt" --checkpoint-every 7 \
  --checkpoint-keep 3 > /dev/null
python3 - "$WORK/hostile.ckpt" <<'PY'
import struct, sys, zlib
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[64:72] = struct.pack("<Q", 1 << 61)
data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[20:-4])) & 0xFFFFFFFF)
open(path, "wb").write(data)
PY
set +e
"$BIN" --input "$WORK/sys.mmsyn" "${FLAGS[@]}" \
  --resume "$WORK/hostile.ckpt" --checkpoint-keep 3 \
  > "$WORK/hostile.txt" 2> "$WORK/hostile.err"
STATUS=$?
set -e
if [ "$STATUS" -ne 0 ]; then
  echo "crash_torture: FAIL — resume of the hostile-count checkpoint" \
       "exited $STATUS" >&2
  cat "$WORK/hostile.err" >&2
  exit 1
fi
if ! grep -q 'skipped checkpoint generation.*item count' "$WORK/hostile.err"; then
  echo "crash_torture: FAIL — no skip note for the hostile count" >&2
  cat "$WORK/hostile.err" >&2
  exit 1
fi
if ! diff -u "$WORK/reference.txt" "$WORK/hostile.txt"; then
  echo "crash_torture: FAIL — report resumed past the hostile count differs" \
       "from the fault-free run" >&2
  exit 1
fi

echo "crash_torture: PASS — recovered reports are byte-identical to the" \
     "fault-free run"
