#!/usr/bin/env bash
# Static gate: strato-lint (project rules, including the `lifetime`
# borrow-flow pass) + lint selftest, a GCC build of the whole tree with
# -Werror (build-werror/), then — when a clang++ is on PATH — a
# full configure/build with -Wthread-safety promoted to an error AND the
# STRATO_LIFETIME_SAFETY dangling-borrow diagnostics promoted to errors,
# so every STRATO_GUARDED_BY / STRATO_REQUIRES / STRATO_LIFETIME_BOUND
# annotation in src/ is machine-checked. A clang-tidy pass (root
# .clang-tidy: bugprone-*, clang-analyzer-*, concurrency-*,
# performance-*) rides along via check_tidy.sh. Under GCC-only containers
# the Clang legs are skipped with a note; the lint gate always runs.
#
# Usage: scripts/check_static.sh [--lint-only] [build-dir]
#   --lint-only   skip the GCC and Clang builds (fast presubmit gate)
#   build-dir     Clang build tree (default: build-threadsafety)
set -euo pipefail

cd "$(dirname "$0")/.."

LINT_ONLY=0
if [ "${1:-}" = "--lint-only" ]; then
  LINT_ONLY=1
  shift
fi
BUILD_DIR="${1:-build-threadsafety}"

PYTHON="${PYTHON:-python3}"
if ! command -v "$PYTHON" >/dev/null 2>&1; then
  echo "check_static: $PYTHON not found — cannot run strato-lint" >&2
  exit 1
fi

echo "== strato-lint: selftest =="
"$PYTHON" scripts/strato_lint.py --selftest

echo "== strato-lint: src/ =="
"$PYTHON" scripts/strato_lint.py

if [ "$LINT_ONLY" -eq 1 ]; then
  echo "check_static: lint gate clean (--lint-only, GCC and Clang builds skipped)."
  exit 0
fi

# GCC leg: the whole tree (src, tests, bench, examples) must build
# warning-free under the project's -Wall -Wextra -Wpedantic.
GXX="${GXX:-g++}"
if command -v "$GXX" >/dev/null 2>&1; then
  echo "== GCC -Werror build =="
  cmake -B build-werror -S . \
    -DCMAKE_CXX_COMPILER="$GXX" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-werror -j "$(nproc)"
else
  echo "check_static: $GXX not found — skipping the GCC -Werror build."
fi

CLANGXX="${CLANGXX:-clang++}"
if ! command -v "$CLANGXX" >/dev/null 2>&1; then
  echo "check_static: $CLANGXX not found — skipping -Wthread-safety /" \
       "lifetimebound build (both annotation families compile to nothing" \
       "under GCC; the lint gate is still binding)."
  # clang-tidy may still exist without a clang++ driver; it no-ops with a
  # note when absent.
  scripts/check_tidy.sh
  exit 0
fi

echo "== clang -Wthread-safety + lifetimebound -Werror build =="
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_CXX_COMPILER="$CLANGXX" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTRATO_THREAD_SAFETY=ON \
  -DSTRATO_LIFETIME_SAFETY=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# clang-tidy over the freshly exported compilation database (no-op with a
# note when clang-tidy is not installed).
scripts/check_tidy.sh "$BUILD_DIR"

echo "check_static: clean (lint + GCC -Werror + thread-safety + lifetime)."
