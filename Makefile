# Developer shortcuts; CI (.github/workflows/ci.yml) runs the same steps.

.PHONY: lint fmt clippy test doc digests check ab

# The guarantee-soundness checks the compiler and clippy cannot make
# (EF-L000, L002, L005, L008, L009): any finding fails unless a justified
# `allow` comment covers it. EF-L001, L003, L004 and L007 fail `make
# clippy` instead, and EF-L006 fails `cargo build`. This runs the one
# test that gates them (tests/lint.rs), which `make test` includes.
lint:
	cargo test -q --test lint

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
# their committed golden (at the default worker count, at --jobs 1, and
# at --jobs 3, which divides no batch evenly), the fig11 and failures
# persistence smokes (a fresh run with --state-dir, then --resume, which
# must print the same tables and no warning, with one run directory per
# run holding only snapshot files), the release allocation ceilings of warm
# planning rounds, declined gateway submissions and the simulator's trace
# fingerprint, the release memory
# ceiling of a daemon resuming over 16 MiB logs, the float writer's
# 100,000,000-pattern differential test against `{:?}`, the release
# mega-cluster digests (the EDF smoke, and ElasticFlow on 16,384 GPUs),
# and the perfbench seed-0 digests on all four
# workloads (the serve ones traced too). perfbench exits nonzero when a
# pinned digest moves.
digests:
	cargo test -q --test golden_replay
	cargo test -q --test persist_recovery
	cargo run -q --release -p elasticflow-bench --bin experiments -- all --json --seed 2023 > target/experiments-all-2023.json
	diff target/experiments-all-2023.json crates/bench/tests/fixtures/experiments-all-2023.json
	for j in 1 3; do \
	  cargo run -q --release -p elasticflow-bench --bin experiments -- all --json --seed 2023 --jobs $$j > target/experiments-all-2023-jobs$$j.json || exit 1; \
	  diff target/experiments-all-2023-jobs$$j.json crates/bench/tests/fixtures/experiments-all-2023.json || exit 1; \
	done
	for smoke in "fig11 persist-smoke 18" "failures failures-smoke 8"; do \
	  set -- $$smoke; exp=$$1; d=target/$$2; runs=$$3; \
	  rm -rf $$d; \
	  cargo run -q --release -p elasticflow-bench --bin experiments -- $$exp --jobs 2 --state-dir $$d > $$d-1.out 2> $$d-1.err || exit 1; \
	  cargo run -q --release -p elasticflow-bench --bin experiments -- $$exp --jobs 2 --state-dir $$d --resume > $$d-2.out 2> $$d-2.err || exit 1; \
	  diff $$d-1.out $$d-2.out || exit 1; \
	  if grep 'warning:' $$d-1.err $$d-2.err; then exit 1; fi; \
	  found=$$(find $$d -mindepth 1 -maxdepth 1 -type d | wc -l); \
	  [ "$$found" -eq "$$runs" ] || { echo "$$exp: expected $$runs run directories, found $$found"; exit 1; }; \
	  extra=$$(find $$d -mindepth 2 ! -name 'snapshot-*.efsnap'); \
	  [ -z "$$extra" ] || { echo "$$exp: not a snapshot file: $$extra"; exit 1; }; \
	done
	cargo test -q --release -p elasticflow-core --test round_allocations
	cargo test -q --release -p elasticflow-serve --test submit_allocations
	cargo test -q --release -p elasticflow-bench --test fingerprint
	cargo test -q --release -p elasticflow-serve --test recovery_memory
	cargo test -q --release -p serde --lib -- --ignored --exact ryu::tests::matches_debug_on_100m_random_bit_patterns
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

# A/B of perfbench: BASE's perfbench (built from `git archive BASE` under
# target/ab/) against the working tree's, PAIRS alternating pairs of
# WORKLOAD at SEED, each run BENCHMARK.json's run_seconds long. Pairs
# accumulate per base, workload and seed; the summary gives each
# end-to-end metric's median, quartiles, win count and verdict over all of
# them. perfbench/Cargo.lock is left byte-identical. See scripts/ab.sh.
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 0
ab:
	@[ -n "$(WORKLOAD)" ] || { echo "usage: make ab BASE=<rev> WORKLOAD=<workload> PAIRS=<n> [SEED=<n>]"; exit 2; }
	sh scripts/ab.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"
