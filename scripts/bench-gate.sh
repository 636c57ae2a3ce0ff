#!/bin/sh
# bench-gate: the pull-request tier's benchmark check.
#
# Runs `make bench-compare BASE=<ref> SCALE=$SCALE` (the repository
# benchmark on <ref> and on this tree, then `benchmark -compare`; SCALE
# defaults to full, what CI runs) and sorts the FAIL lines of the
# comparison:
#   hard  scenario.digest, any counter, ops_failed, seed/scale, alloc_mb,
#         delivery_pct, ctrl_per_delivered: one seed's simulated outcome
#         is exact on any host, and its allocation total moves under 2 %
#         from run to run;
#   soft  setup_s, wall_s, cell_s_p50, cell_s_p75, peak_rss_mb: clocks
#         and the host's memory, printed with the table and passed.
# A digest or counter difference is a declared behaviour change, and
# passes, when a line added to CHANGES.md since <ref> contains
# "Behaviour change:".
#
# At SCALE=tiny the runs take milliseconds, so only the hard lines mean
# anything: a seconds-long check that a refactor kept the behaviour.
#
#   sh scripts/bench-gate.sh <ref>      # or: make bench-gate BASE=<ref> [SCALE=tiny]
set -eu

base=${1:?usage: bench-gate.sh <ref>}
make=${MAKE:-make}
scale=${SCALE:-full}
out=$(mktemp)
trap 'rm -f "$out"' EXIT

# bench-compare exits 1 on any FAIL line; the lines decide here. A
# failure that printed none (a build or run error) is passed through.
status=0
$make --no-print-directory -s bench-compare BASE="$base" SCALE="$scale" >"$out" || status=$?
cat "$out"
if [ "$status" -ne 0 ] && ! grep -q '^  FAIL' "$out"; then
    echo "bench-gate: bench-compare failed before comparing (exit $status)" >&2
    exit "$status"
fi

# Each FAIL line, prefixed with its workload.
fails=$(awk '/^workload /{w = $2} /^  FAIL/{print w ":" $0}' "$out")
soft=':  FAIL +(setup_s|wall_s|cell_s_p50|cell_s_p75|peak_rss_mb) '
moved=':  FAIL +(scenario\.digest|counter) '
hard=$(printf '%s\n' "$fails" | grep -Ev "$soft|$moved" | sed '/^$/d' || true)
behaviour=$(printf '%s\n' "$fails" | grep -E "$moved" || true)

if [ -n "$behaviour" ] &&
    git diff "$base" -- CHANGES.md | sed -n -e '/^+++/d' -e 's/^+//p' | grep -q 'Behaviour change:'; then
    echo "bench-gate: digest or counters moved, declared by a \"Behaviour change:\" line in CHANGES.md"
    behaviour=
fi
if [ -n "$hard$behaviour" ]; then
    echo "bench-gate: FAIL" >&2
    printf '%s\n' "$hard" "$behaviour" | sed '/^$/d' >&2
    [ -z "$behaviour" ] ||
        echo "bench-gate: a deliberate change adds a CHANGES.md line containing \"Behaviour change:\"" >&2
    exit 1
fi
if printf '%s\n' "$fails" | grep -Eq "$soft"; then
    echo "bench-gate: pass; the FAIL lines above are clocks or RSS, which do not gate"
else
    echo "bench-gate: pass"
fi
