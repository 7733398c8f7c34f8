#!/usr/bin/env bash
# Builds the benchmark runner (and, for a traced run, the workbench and
# sweepd binaries whose sizes it reports) from source, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), including the Go build
# cache.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

traced=0
prev=
for a in "$@"; do
	case $prev in --trace | -trace) traced=$a ;; esac
	case $a in --trace=* | -trace=*) traced=${a#*=} ;; esac
	prev=$a
done

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
if [ "$traced" = 1 ]; then
	go build -buildvcs=false -o "$build/bin/workbench" ./cmd/workbench
	go build -buildvcs=false -o "$build/bin/sweepd" ./cmd/sweepd
fi

# The revision is read only when the checkout itself is a git work tree.
rev=none
dirty=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null; then
	export GIT_CEILING_DIRECTORIES=$(dirname "$root")
	if rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
		if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then dirty=true; else dirty=false; fi
	else
		rev=none
	fi
fi

exec "$build/bin/perfbench" "$@" -root "$root" -state "$build" -bin "$build/bin" -rev "$rev" -dirty "$dirty"
