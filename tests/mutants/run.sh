#!/bin/sh
# Runs one test against one mutant of the shipped code.
#
#   tests/mutants/run.sh <patch> <cargo test arguments>...
#   tests/mutants/run.sh tests/mutants/sync-data-after-growth.patch -p mc-proto --test crash_states
#
# Each patch opens with a `Breaks:` line (what the mutant breaks) and a
# `Suite:` line (the arguments of the suite that kills it); CI runs
#   tests/mutants/run.sh "$m" $(sed -n 's/^Suite: //p' "$m")
#
# Copies the working tree to target/mutants/src (only files that differ
# are rewritten, so the build there stays incremental), applies the
# patch, builds the named test, runs it under a 600 s deadline, and
# prints one line: `<patch>: killed`, `survived` or `timed out`.
# Exits 0 when the mutant is killed, 1 when it survives or times out,
# and 2 when the patch does not apply or the mutant does not build.
set -eu
if [ $# -lt 2 ]; then
    echo "usage: $0 <patch> <cargo test arguments>..." >&2
    exit 2
fi
patch=$(realpath "$1")
shift
name=$(basename "$patch" .patch)
root=$(cd "$(dirname "$0")/../.." && pwd)
src="$root/target/mutants/src"
mkdir -p "$src"

cd "$root"
git ls-files -co --exclude-standard | while IFS= read -r f; do
    [ -f "$f" ] || continue
    if ! cmp -s "$f" "$src/$f"; then
        mkdir -p "$src/$(dirname "$f")"
        cp "$f" "$src/$f"
    fi
done

cd "$src"
apply() { patch -p1 --quiet --forward --no-backup-if-mismatch --reject-file=- "$@" < "$patch"; }
if ! apply --dry-run >/dev/null || ! apply; then
    echo "$name: does not apply" >&2
    exit 2
fi
export CARGO_TARGET_DIR="$root/target/mutants/target"
if ! cargo test --offline --quiet --no-run "$@" 2>/dev/null; then
    echo "$name: does not build" >&2
    exit 2
fi
status=0
timeout 600 cargo test --offline --quiet "$@" >/dev/null 2>&1 || status=$?
case $status in
    0) echo "$name: survived"; exit 1 ;;
    124) echo "$name: timed out"; exit 1 ;;
    *) echo "$name: killed" ;;
esac
