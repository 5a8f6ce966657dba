#!/usr/bin/env bash
# Counts the code lines of the flash-backed front-ends: per file, the
# non-blank lines that are not `//` comments, up to the file's first
# `#[cfg(test)]`, then their total. The files are the shared front-end
# (`flash_system.rs`, `lifecycle.rs`) and the four placements' data paths.
#
# Usage: scripts/front_end_lines.sh
set -euo pipefail

cd "$(dirname "$0")/../crates/system/src"
awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { lines[FILENAME]++ }
    END {
        for (i = 1; i < ARGC; i++) {
            printf "%6d  %s\n", lines[ARGV[i]], ARGV[i]
            total += lines[ARGV[i]]
        }
        printf "%6d  total\n", total
    }
' baseline.rs flash_system.rs software.rs hardware.rs lifecycle.rs oracle.rs
