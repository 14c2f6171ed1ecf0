# Developer shortcuts; CI (.github/workflows/ci.yml) runs the same steps.

.PHONY: lint fmt clippy test doc digests check

# The guarantee-soundness checks the compiler and clippy cannot make
# (EF-L000, L002, L005, L008, L009): any finding fails unless a justified
# `allow` comment covers it. EF-L001, L003, L004 and L007 fail `make
# clippy` instead, and EF-L006 fails `cargo build`. `make test` runs
# these checks too (tests/lint.rs); this target is for interactive use.
lint:
	cargo run -q -p elasticflow-lint

fmt:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# A debug build, so every simulation runs under both invariant auditors.
test:
	cargo test --workspace -q

# API docs with warnings promoted to errors (same gate as CI).
doc:
	RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps

# The gates a performance change must keep, as CI runs them: golden
# replay and crash recovery, the evaluation's tables at seed 2023 against
# their committed golden, the release allocation ceilings of warm
# planning rounds and declined gateway submissions, the release memory
# ceiling of a daemon resuming over 16 MiB logs, the release
# mega-cluster digests (the EDF smoke, and ElasticFlow on 16,384 GPUs),
# and the perfbench seed-0 digests on all four
# workloads (the serve ones traced too). perfbench exits nonzero when a
# pinned digest moves.
digests:
	cargo test -q --test golden_replay
	cargo test -q --test persist_recovery
	cargo run -q --release -p elasticflow-bench --bin experiments -- all --json --seed 2023 > target/experiments-all-2023.json
	diff target/experiments-all-2023.json crates/bench/tests/fixtures/experiments-all-2023.json
	cargo test -q --release -p elasticflow-core --test round_allocations
	cargo test -q --release -p elasticflow-serve --test submit_allocations
	cargo test -q --release -p elasticflow-serve --test recovery_memory
	cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact mega_cluster_smoke_matches_golden_digest
	cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact elasticflow_at_paper_scale_shape_matches_golden_digest
	for w in serve_deadline serve_bulk sim_elasticflow sim_edf; do \
	  cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
	    --workload "$$w" --seed 0 --seconds 1 --trace 0 || exit 1; \
	done
	for w in serve_deadline serve_bulk; do \
	  cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
	    --workload "$$w" --seed 0 --seconds 1 --trace 1 || exit 1; \
	done

check: fmt clippy test doc digests
