# Developer shortcuts; CI (.github/workflows/ci.yml) runs the same steps.

.PHONY: lint lint-baseline fmt clippy test audit doc digests check

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
	cargo test -q --features audit -p elasticflow-bench --test mega_cluster

# API docs with warnings promoted to errors (same gate as CI).
doc:
	RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps

# The gates a performance change must keep, as CI runs them: golden
# replay and crash recovery, the release allocation ceilings of warm
# planning rounds and declined gateway submissions, the release
# mega-cluster smoke digest, and the perfbench seed-0 digests on all four
# workloads (the serve ones traced too). perfbench exits nonzero when a
# pinned digest moves.
digests:
	cargo test -q --test golden_replay
	cargo test -q --test persist_recovery
	cargo test -q --release -p elasticflow-core --test round_allocations
	cargo test -q --release -p elasticflow-serve --test submit_allocations
	cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact mega_cluster_smoke_matches_golden_digest
	for w in serve_deadline serve_bulk sim_elasticflow sim_edf; do \
	  cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
	    --workload "$$w" --seed 0 --seconds 1 --trace 0 || exit 1; \
	done
	for w in serve_deadline serve_bulk; do \
	  cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
	    --workload "$$w" --seed 0 --seconds 1 --trace 1 || exit 1; \
	done

check: fmt clippy lint test audit doc digests
