# Developer entry points. Everything here is also runnable directly with
# cargo; the Makefile just names the standard bundles.

.PHONY: all build test check fmt clippy analyze sarif fix clean

all: build test check

build:
	cargo build --workspace --release

test:
	cargo test --workspace

# The full lint gate: formatting, clippy with the workspace deny set, the
# custom static-analysis pass (determinism + numerics + unit invariants,
# DESIGN.md §6a) with a SARIF artifact, then the test suite.
check: fmt clippy sarif test

fmt:
	cargo fmt --all -- --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

analyze:
	cargo run -p hyperpower-analyze

# Same gate as `analyze`, but also leaves a code-scanning artifact behind.
sarif:
	cargo run -p hyperpower-analyze -- --format sarif > analyze-results.sarif

# Mechanical cleanups: formatting, clippy's machine-applicable suggestions,
# and the analyzer's unit-suffix/allow-marker rewrites.
fix:
	cargo fmt --all
	cargo clippy --workspace --all-targets --fix --allow-dirty --allow-staged -- -D warnings
	cargo run -p hyperpower-analyze -- --fix

clean:
	cargo clean
