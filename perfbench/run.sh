#!/bin/sh
# Builds the benchmark from source on first use and runs it; every
# argument is passed through to perfbench/main.exe. Run from anywhere
# inside a checkout: the build stays in the checkout's _build and the
# shared dune cache is not used.
set -e
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display=quiet -- ./perfbench/main.exe "$@"
