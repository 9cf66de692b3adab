#!/usr/bin/env bash
# Tier-1 verification flow: build, test, lint, format.
#
# Everything here must pass before a change lands. CI and local
# development run the same script so there is exactly one definition of
# "green".
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (root package: integration + doc tests)"
cargo test -q

echo "==> cargo test --workspace"
cargo test -q --workspace

# The serving soak tests (>=10k sessions, bounded queue, zero drift)
# are too slow for a debug build, so `--workspace` skips them as
# ignored; run them here in release.
echo "==> serve soak tests (release, ignored by default)"
t0=$(date +%s)
cargo test -q --release -p mealib-serve --test soak -- --ignored
echo "serve soak tests: $(( $(date +%s) - t0 )) s"

# The benchmark's serving traffic must keep its pinned fingerprints
# (every modeled bit of serve-heavy and serve-many at seeds 42 and 7),
# and a manifest of thousands of tenants must parse within its
# wall-time bound; both are full-size, so they run here in release.
echo "==> serve fingerprints and manifest parse bound (release, ignored by default)"
t0=$(date +%s)
cargo test -q --release -p mealib-serve --test fingerprints -- --ignored
cargo test -q --release -p mealib-verify --test manifest_robustness -- --ignored
echo "fingerprints and parse bound: $(( $(date +%s) - t0 )) s"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# The benchmark is its own cargo workspace with path dependencies on the
# crates: building it here makes an API change that breaks it (or its
# decision-log re-drive) fail verification, not the next benchmark run.
echo "==> perfbench: build against the workspace and run its self-tests"
t0=$(date +%s)
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
echo "perfbench self-tests: $(( $(date +%s) - t0 )) s"

MEALINT=(cargo run -q --release -p mealib-verify --bin mealint --)

echo "==> mealint: examples and clean corpus must be clean"
out=$("${MEALINT[@]}" examples/tdl/*.tdl crates/verify/corpus/clean/*.tdl 2>&1) || {
    echo "$out" >&2
    exit 1
}
if grep -qE "\[MEA[0-9]+\]" <<<"$out"; then
    echo "mealint flagged a file that must be clean:" >&2
    echo "$out" >&2
    exit 1
fi

echo "==> mealint: bad corpus must report the code its name promises"
for f in crates/verify/corpus/bad/*.tdl; do
    name=$(basename "$f" .tdl)        # mea103_missing_flush -> MEA103
    code="MEA${name:3:3}"
    out=$("${MEALINT[@]}" "$f" 2>&1) || true   # warnings exit 0, errors 1
    if ! grep -q "\[$code\]" <<<"$out"; then
        echo "mealint missed $code in $f:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "==> mealint: clean session-set manifests must be admitted"
out=$("${MEALINT[@]}" crates/verify/corpus/clean/*.set 2>&1) || {
    echo "$out" >&2
    exit 1
}
if grep -qE "\[MEA[0-9]+\]" <<<"$out"; then
    echo "mealint flagged a session set that must be clean:" >&2
    echo "$out" >&2
    exit 1
fi
if grep -qv "verdict ADMIT" <<<"$out"; then
    echo "a clean session set was not admitted:" >&2
    echo "$out" >&2
    exit 1
fi

echo "==> mealint: bad session sets must report the MEA3xx code their name promises"
for f in crates/verify/corpus/bad/*.set; do
    name=$(basename "$f" .set)        # mea301_oversubscribed -> MEA301
    code="MEA${name:3:3}"
    out=$("${MEALINT[@]}" "$f" 2>&1) || true   # warnings exit 0, errors 1
    if ! grep -q "\[$code\]" <<<"$out"; then
        echo "mealint missed $code in $f:" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! grep -q "verdict REJECT" <<<"$out"; then
        echo "bad session set $f was not rejected:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "==> interference corpus coverage: every MEA3xx code needs >=2 bad manifests + clean twins"
for code in 300 301 302 303; do
    bad=$(ls crates/verify/corpus/bad/mea${code}_*.set 2>/dev/null | wc -l)
    if (( bad < 2 )); then
        echo "interference corpus too thin: MEA$code has $bad bad manifests (need >=2)" >&2
        exit 1
    fi
    for f in crates/verify/corpus/bad/mea${code}_*.set; do
        twin="crates/verify/corpus/clean/$(basename "$f")"
        if [[ ! -f "$twin" ]]; then
            echo "interference corpus: $f has no clean twin at $twin" >&2
            exit 1
        fi
    done
done

echo "==> every workspace crate forbids unsafe code"
for f in src/lib.rs crates/*/src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$f"; then
        echo "crate root $f does not carry #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "==> bounds corpus coverage: every MEA2xx code needs >=2 bad programs + clean twins"
for code in 200 201 202 203; do
    bad=$(ls crates/verify/corpus/bad/mea${code}_*.tdl 2>/dev/null | wc -l)
    if (( bad < 2 )); then
        echo "bounds corpus too thin: MEA$code has $bad bad programs (need >=2)" >&2
        exit 1
    fi
    for f in crates/verify/corpus/bad/mea${code}_*.tdl; do
        twin="crates/verify/corpus/clean/$(basename "$f")"
        if [[ ! -f "$twin" ]]; then
            echo "bounds corpus: $f has no clean twin at $twin" >&2
            exit 1
        fi
    done
done

echo "verify: OK"
