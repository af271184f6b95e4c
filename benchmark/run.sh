#!/usr/bin/env bash
# Builds aptserved from this tree and the benchmark driver, then runs the
# driver with the given arguments:
#
#   bash benchmark/run.sh --workload s33-warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything it builds or writes goes
# under .bench_build/ (the Go build cache included), so a run touches
# nothing outside the tree.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/aptserved" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root (need go.mod, cmd/aptserved and benchmark/)" >&2
	exit 2
fi
mkdir -p "$build/bin" "$build/out" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The Go tool keeps its telemetry and env files under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off

go build -o "$build/bin/aptserved" ./cmd/aptserved
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)

APTBENCH_COMMIT=unknown
if [[ -d "$root/.git" ]]; then
	APTBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export APTBENCH_COMMIT
exec "$build/bin/benchmark" -aptserved "$build/bin/aptserved" -root "$root" -out "$build/out" "$@"
