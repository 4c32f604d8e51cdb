#!/bin/sh
# Rewrite the golden corpus manifest (tests/golden/<compiler>.txt) from
# a built tree:
#
#   tools/bless_golden.sh [build-dir]     (default: build)
#
# Runs the tree's golden_test, which always writes the manifest it
# computed to <build-dir>/golden_work/<compiler>.txt, and copies that
# over the committed one.  Bless only for a deliberate output change
# (a schema bump, say), and record the reason in CHANGES.md.
set -eu
repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build}
case $build in
  /*) ;;
  *) build=$repo/$build ;;
esac
"$build/golden_test" --gtest_brief=1 || true
set -- "$build"/golden_work/*.txt
if [ ! -f "$1" ]; then
  echo "bless_golden: $build/golden_test wrote no manifest" >&2
  exit 1
fi
mkdir -p "$repo/tests/golden"
for manifest in "$@"; do
  cp "$manifest" "$repo/tests/golden/"
  echo "blessed tests/golden/$(basename "$manifest")"
done
