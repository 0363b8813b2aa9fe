#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload travel --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, data files, span dumps
# and result records.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=unknown
if [ -f .git/HEAD ] && command -v git >/dev/null; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

# A failed build (for example outside a full checkout) exits non-zero
# before anything is printed on standard output.
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --work "$out/work" --commit "$commit" "$@"
