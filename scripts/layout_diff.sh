#!/usr/bin/env sh
# layout_diff.sh — how many hot symbols of one binary sit at a different
# cache-line offset than in another.
#
# The linker lays out the analysis packages (internal/dag, cache, sim, core)
# before the runtime side (internal/runtime, deque, shard, telemetry), so a
# size change in the analysis code can move every runtime function by 32
# bytes, and a new or resized global can move the Go runtime's own globals.
# Either moves a benchmark that never runs the changed code. This script
# compares two builds of the same program (say the bench binary of a parent
# commit and of a change) symbol by symbol and prints:
#
#   text_moved     futurelocality/internal/{runtime,deque,shard,telemetry}
#                  text symbols present in both at a different address mod 64
#   globals_moved  writable globals (nm kinds D, d, B, b) of any package,
#                  present in both, at a different address mod 64
#
# followed by up to 20 of the moved names of each kind. Symbols present in
# only one binary are counted on the "only_in" line and not compared.
#
# Usage: scripts/layout_diff.sh <old-binary> <new-binary>
# Build both with the same flags, e.g. `go build -o /tmp/new ./bench`.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <old-binary> <new-binary>" >&2
    exit 2
fi

table() {
    # name kind offset-mod-64, one line per symbol, for the kinds compared.
    go tool nm -size -sort address "$1" | awk '
        $3 ~ /^[TtDdBb]$/ {
            name = $4
            for (i = 5; i <= NF; i++) name = name " " $i
            kind = ($3 ~ /^[Tt]$/) ? "text" : "data"
            if (kind == "text" && name !~ /^futurelocality\/internal\/(runtime|deque|shard|telemetry)\./) next
            # nm prints the address in hex.
            addr = 0
            hex = tolower($1)
            for (i = 1; i <= length(hex); i++) addr = addr * 16 + index("0123456789abcdef", substr(hex, i, 1)) - 1
            print kind "\t" name "\t" addr % 64
        }' | sort
}

old=$(mktemp)
new=$(mktemp)
trap 'rm -f "$old" "$new"' EXIT
table "$1" >"$old"
table "$2" >"$new"

awk -F '\t' '
    NR == FNR { off[$1 "\t" $2] = $3; next }
    {
        key = $1 "\t" $2
        if (!(key in off)) { only++; next }
        seen[key] = 1
        if (off[key] != $3) {
            moved[$1]++
            if (shown[$1]++ < 20) list[$1] = list[$1] sprintf("  %s %s: %d -> %d\n", $1, $2, off[key], $3)
        }
    }
    END {
        for (key in off) if (!(key in seen)) only++
        printf "text_moved %d\n", moved["text"] + 0
        printf "globals_moved %d\n", moved["data"] + 0
        printf "only_in_one %d\n", only + 0
        printf "%s%s", list["text"], list["data"]
    }' "$old" "$new"
