# Developer shortcuts; CI (.github/workflows/ci.yml) runs the same steps.

.PHONY: lint lint-baseline fmt clippy test audit doc check

# Project-specific static analysis (guarantee-soundness rules EF-L001..L008),
# gated by the per-rule budgets in lint-baseline.json.
lint:
	cargo run -q -p elasticflow-lint

# Regenerate the ratchet baseline from current findings. Review the diff:
# a raised budget is a newly tolerated defect class.
lint-baseline:
	cargo run -q -p elasticflow-lint -- --write-baseline

fmt:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets
	cargo clippy --workspace --all-targets --features audit

test:
	cargo test --workspace -q

# Full-simulation runs under the runtime invariant auditor.
audit:
	cargo test --features audit -q

# API docs with warnings promoted to errors (same gate as CI).
doc:
	RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps

check: fmt clippy lint test audit doc
