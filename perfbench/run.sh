#!/usr/bin/env bash
# Builds the benchmark and its model fixture from source, then runs one
# measurement. Run it from the repository root:
#
#   bash perfbench/run.sh --workload grab_cold --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes lives under .bench_build/ in the current
# directory: the Go build cache and temporary files, the two binaries, the
# fixture bundle that `prestroidd -train` produces (trained once per
# prestroidd build and reused), and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

build_log="$out/build.log"
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" . &&
	go build -o "$out/prestroidd" prestroid/cmd/prestroidd) >"$build_log" 2>&1; then
	cat "$build_log" >&2
	echo "perfbench: build failed" >&2
	exit 1
fi

# The fixture is the daemon's own default training run. Training is
# deterministic, so one bundle per prestroidd binary is enough.
tag=$(sha256sum "$out/prestroidd" | cut -c1-16)
fixture="$out/fixture-$tag.full"
if [ ! -s "$fixture" ]; then
	if ! "$out/prestroidd" -train -queries 600 -bundle "$fixture.tmp" >"$out/fixture.log" 2>&1; then
		cat "$out/fixture.log" >&2
		echo "perfbench: fixture training failed" >&2
		exit 1
	fi
	mv "$fixture.tmp" "$fixture"
fi

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null ||
	(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16 | sed 's/^/tree-/'))

exec "$out/perfbench" -bundle "$fixture" -workdir "$out" -commit "$commit" "$@"
