#!/usr/bin/env bash
# End-to-end benchmark of `fcdpm_cli sweep` (see bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed S] [--repeats N] [--out results.json] [--traced] [--smoke]
#   bench/e2e/run.sh --compare A.json B.json
#   bench/e2e/run.sh --workload NAME --seed S --seconds T --trace 0|1
#
# Builds the repository's top-level CMake project in Release into
# build-bench/ (target fcdpm_cli and the fcdpm_* libraries), builds the
# benchmark program from bench/e2e/CMakeLists.txt against them, then runs it
# with the arguments given. Build output goes to build-bench/e2e-build.log.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ||
      ! -f "$root/examples/fcdpm_cli.cpp" ]]; then
  echo "run.sh: no fcdpm source tree at $root" >&2
  exit 2
fi

jobs="$(nproc)"
if (( jobs > 4 )); then
  jobs=4
fi
mkdir -p "$build"
log="$build/e2e-build.log"
: >"$log"
step() {
  if ! "$@" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "run.sh: build step failed: $*" >&2
    exit 2
  fi
}
step cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release
step cmake --build "$build" --target fcdpm_cli -j "$jobs"
step cmake -S "$here" -B "$build/e2e" -DCMAKE_BUILD_TYPE=Release \
  -DFCDPM_ROOT="$root" -DFCDPM_BUILD="$build"
step cmake --build "$build/e2e" -j "$jobs"

commit=unknown
dirty=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    dirty=1
  else
    dirty=0
  fi
fi

exec "$build/e2e/fcdpm_e2e" --root "$root" --build "$build" \
  --git-commit "$commit" --git-dirty "$dirty" "$@"
