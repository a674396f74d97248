#!/usr/bin/env bash
# Prints the four line counts ROADMAP.md quotes at every re-anchor, over
# the files git tracks outside vendor/:
#   tree           every tracked file;
#   rust           every tracked .rs file;
#   non-test rust  .rs files under src/ and crates/*/src, each counted up
#                  to (not including) its first #[cfg(test)] line;
#   test dirs      every tracked file under a tests/ directory.
# To count another commit, run it in a checkout of that commit.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files | grep -v '^vendor/' | awk '
  {
    path = $0
    rust = path ~ /\.rs$/
    src = rust && (path ~ /^src\// || path ~ /^crates\/[^\/]+\/src\//)
    test = path ~ /(^|\/)tests\//
    in_test = 0
    while ((getline line < path) > 0) {
      tree++
      if (rust) rs++
      if (test) tests++
      if (src && !in_test) {
        if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) in_test = 1
        else nontest++
      }
    }
    close(path)
  }
  END {
    printf "tree           %d\n", tree
    printf "rust           %d\n", rs
    printf "non-test rust  %d\n", nontest
    printf "test dirs      %d\n", tests
  }
'
