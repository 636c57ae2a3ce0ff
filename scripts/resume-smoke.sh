#!/bin/sh
# resume-smoke: crash-safety acceptance for journaled sweeps.
#
# Runs the chaos suite (ldrbench -exp chaos) once uninterrupted as the
# reference, then again with a journal, SIGKILLs it mid-flight (no chance
# to clean up), resumes from the journal, and requires the resumed output
# to be byte-identical to the uninterrupted run. Also checks the
# stale-journal guard: a non-empty journal without -resume must be
# rejected.
set -eu

go=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# Heavy enough that SIGKILL lands mid-sweep at 2 workers, small enough
# to finish in well under a minute: 2 profiles x 2 pauses x 2 protocols
# x 2 trials = 16 cells.
flags="-exp chaos -profiles reboot,flap -protocols ldr,aodv -trials 2 -simtime 20s -workers 2"

$go build -o "$dir/ldrbench" ./cmd/ldrbench

"$dir/ldrbench" $flags >"$dir/ref.txt"

"$dir/ldrbench" $flags -journal "$dir/journal" >"$dir/killed.txt" 2>/dev/null &
pid=$!
sleep 2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

n=$(ls "$dir/journal" 2>/dev/null | wc -l)
echo "resume-smoke: SIGKILL left $n durable cell record(s)"

if [ "$n" -gt 0 ]; then
    if "$dir/ldrbench" $flags -journal "$dir/journal" >/dev/null 2>&1; then
        echo "resume-smoke: FAIL — non-empty journal accepted without -resume" >&2
        exit 1
    fi
fi

"$dir/ldrbench" $flags -journal "$dir/journal" -resume >"$dir/resumed.txt"

if ! cmp -s "$dir/ref.txt" "$dir/resumed.txt"; then
    echo "resume-smoke: FAIL — resumed output differs from the uninterrupted run" >&2
    diff "$dir/ref.txt" "$dir/resumed.txt" >&2 || true
    exit 1
fi
echo "resume-smoke: OK — resumed output byte-identical to the uninterrupted run"
