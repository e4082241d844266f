#!/usr/bin/env bash
# Lists the out-of-line library functions that no program reaches.
#
#   tools/unreached.sh [build-dir]        (default: build-unreached/)
#
# Builds the tree at -O0 with one section per function and links every
# example and bench program with --gc-sections, then builds bench/e2e's
# fcdpm_e2e against that build the way bench/e2e/run.sh does. A global
# text (`T`) symbol of a libfcdpm_*.a that no linked program defines is
# unreached. Inline and template code is weak (`W`) and escapes this scan.
# Prints "unreached: N of M" and the demangled list; exits 0 whatever the
# count, 2 when the build fails (its log is build-dir/unreached-build.log).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$root/build-unreached}"
jobs="$(nproc)"
if (( jobs > 4 )); then
  jobs=4
fi
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Every program target: one row per fcdpm_add_*example/bench call.
mapfile -t programs < <(sed -n \
  's/^fcdpm_add_\(perf_\)\{0,1\}\(bench\|example\)(\([a-z0-9_]*\))$/\3/p' \
  "$root/bench/bench.cmake" "$root/examples/CMakeLists.txt")

mkdir -p "$build"
log="$build/unreached-build.log"
: > "$log"
step() {
  if ! "$@" >> "$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "unreached.sh: build step failed: $*" >&2
    exit 2
  fi
}
step cmake -S "$root" -B "$build" "${flags[@]}"
step cmake --build "$build" -j "$jobs" --target "${programs[@]}"
step cmake -S "$root/bench/e2e" -B "$build/e2e" "${flags[@]}" \
  -DFCDPM_ROOT="$root" -DFCDPM_BUILD="$build"
step cmake --build "$build/e2e" -j "$jobs"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

nm --defined-only "$build"/src/*/libfcdpm_*.a 2> /dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "$scratch/library"
for p in "${programs[@]}"; do
  exe="$build/examples/$p"
  [[ -x "$exe" ]] || exe="$build/bench/$p"
  nm --defined-only "$exe"
done > "$scratch/linked"
nm --defined-only "$build/e2e/fcdpm_e2e" >> "$scratch/linked"
awk '{ print $NF }' "$scratch/linked" | sort -u > "$scratch/reached"

comm -23 "$scratch/library" "$scratch/reached" > "$scratch/unreached"
unreached="$(wc -l < "$scratch/unreached")"
total="$(wc -l < "$scratch/library")"
echo "unreached: $unreached of $total library functions" \
  "(${#programs[@]} programs + fcdpm_e2e)"
c++filt < "$scratch/unreached" | sort
