#!/bin/sh
# flags: print every command's flag names, one "command -flag" per line,
# read from the command's own -h output. `make flags-check` diffs this
# against scripts/flags.golden, so a refactor of the flag plumbing that
# adds or loses a knob fails CI; names only, because a default may be
# respelled without changing what it means.
set -eu

go=${GO:-go}
for dir in cmd/*/; do
    cmd=$(basename "$dir")
    # -h exits 0 or 2 depending on the flag package's mood; only the text matters.
    { $go run "./$dir" -h 2>&1 || true; } |
        sed -n 's/^  -\([A-Za-z0-9-]*\).*/\1/p' | sort | sed "s/^/$cmd -/"
done
