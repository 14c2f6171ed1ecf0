//! Offline, `std`-only stand-in for the subset of [rayon] the workspace
//! uses. The build environment has no registry access, so — like the
//! sibling `serde`/`proptest` shims — this crate provides an
//! API-compatible drop-in that a later `cargo add rayon` can replace
//! without touching call sites.
//!
//! Scope of the subset:
//!
//! - [`ThreadPoolBuilder`] with `num_threads`, `build_global`, and
//!   `build`; [`ThreadPool::install`] scopes a thread-count override to
//!   one closure (used by the bench crate's tests to run one batch on a
//!   pool of a fixed size inside one process, which real rayon also
//!   supports via per-pool `install`).
//! - [`current_num_threads`] resolving override → global → hardware.
//! - `prelude::*` with `par_iter()` on slices/`Vec` and `into_par_iter()`
//!   on `Vec`, each supporting `.map(..).collect::<Vec<_>>()`.
//!
//! Unlike real rayon the iterator adaptors here are *eager*: `map` fans
//! the closure across a scoped-thread worker pool immediately and
//! `collect` merely unwraps the already-computed, **index-ordered**
//! results. That keeps the implementation tiny while preserving the one
//! property the workspace depends on: results come back in input order
//! regardless of thread count or completion order.
//!
//! [rayon]: https://docs.rs/rayon

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker count configured by [`ThreadPoolBuilder::build_global`];
/// `0` means "not configured, use the hardware parallelism".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`]; `0`
    /// means "no override".
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The number of worker threads parallel iterators will use on this
/// thread: an [`ThreadPool::install`] override if one is active, else
/// the [`build_global`](ThreadPoolBuilder::build_global) setting, else
/// the hardware parallelism (minimum 1).
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(Cell::get);
    if installed > 0 {
        return installed;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Error returned when the global pool is configured twice with
/// different sizes (mirrors rayon's `ThreadPoolBuildError`).
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    message: &'static str,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global worker-count setting or a scoped [`ThreadPool`].
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with every option at its default (thread count = cores).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; `0` keeps the hardware default.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Installs this configuration as the process-global default.
    /// Re-configuring with the *same* size is a no-op; a different size
    /// is an error, as with real rayon.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let wanted = if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        match GLOBAL_THREADS.compare_exchange(0, wanted, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => Ok(()),
            Err(existing) if existing == wanted => Ok(()),
            Err(_) => Err(ThreadPoolBuildError {
                message: "the global thread pool has already been initialized",
            }),
        }
    }

    /// Builds a standalone pool whose size applies only inside
    /// [`ThreadPool::install`].
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads > 0 {
                self.num_threads
            } else {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            },
        })
    }
}

/// A scoped worker-count setting. The shim spawns threads per `map`
/// call rather than keeping them warm, so a "pool" is just the size to
/// use while a closure runs under [`install`](Self::install).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

/// Restores the previous [`INSTALLED_THREADS`] override even if the
/// installed closure panics.
struct InstallGuard {
    previous: usize,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED_THREADS.with(|c| c.set(self.previous));
    }
}

impl ThreadPool {
    /// The worker count this pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with this pool's thread count as the active setting for
    /// any parallel iterators it creates.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let guard = InstallGuard {
            previous: INSTALLED_THREADS.with(Cell::get),
        };
        INSTALLED_THREADS.with(|c| c.set(self.num_threads));
        let result = op();
        drop(guard);
        result
    }
}

/// Fans `f(0..len)` across `current_num_threads()` scoped workers and
/// returns the results **in index order**. With one worker (or one item)
/// this degenerates to a plain sequential loop on the calling thread, so
/// `--jobs 1` reproduces single-threaded behaviour exactly — same
/// execution order, same thread, same output.
fn parallel_map_indexed<R: Send>(len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let result = f(i);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });
    // A worker panic propagates out of `scope` above, so every slot is
    // filled (and unpoisoned) by the time we get here.
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked while holding a result slot")
                .expect("every index below len was dispatched exactly once")
        })
        .collect()
}

/// An eager parallel iterator over borrowed slice items.
#[derive(Debug)]
pub struct ParSliceIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParSliceIter<'data, T> {
    /// Applies `f` to every item across the worker pool; results are
    /// index-ordered.
    pub fn map<R, F>(self, f: F) -> ParResults<R>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParResults {
            items: parallel_map_indexed(self.items.len(), |i| f(&self.items[i])),
        }
    }
}

/// An eager parallel iterator over owned items (also the result of any
/// `map`). Items are always in input order.
#[derive(Debug)]
pub struct ParResults<T> {
    items: Vec<T>,
}

impl<T: Send> ParResults<T> {
    /// Applies `f` to every item across the worker pool; results are
    /// index-ordered.
    pub fn map<R, F>(self, f: F) -> ParResults<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let inputs: Vec<Mutex<Option<T>>> = self
            .items
            .into_iter()
            .map(|x| Mutex::new(Some(x)))
            .collect();
        ParResults {
            items: parallel_map_indexed(inputs.len(), |i| {
                let item = inputs[i]
                    .lock()
                    .ok()
                    .and_then(|mut slot| slot.take())
                    .expect("each input index is consumed exactly once");
                f(item)
            }),
        }
    }

    /// Gathers the (already computed, index-ordered) results.
    pub fn collect<C: From<Vec<T>>>(self) -> C {
        C::from(self.items)
    }
}

/// `par_iter()` for borrowing containers (slices and `Vec`).
pub trait IntoParallelRefIterator<'data> {
    /// Borrowed item type.
    type Item: 'data;
    /// The parallel iterator produced.
    type Iter;
    /// A parallel iterator over `&self`'s items.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParSliceIter<'data, T>;
    fn par_iter(&'data self) -> ParSliceIter<'data, T> {
        ParSliceIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParSliceIter<'data, T>;
    fn par_iter(&'data self) -> ParSliceIter<'data, T> {
        ParSliceIter {
            items: self.as_slice(),
        }
    }
}

/// `into_par_iter()` for owning containers.
pub trait IntoParallelIterator {
    /// Owned item type.
    type Item: Send;
    /// The parallel iterator produced.
    type Iter;
    /// A parallel iterator that consumes `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParResults<T>;
    fn into_par_iter(self) -> ParResults<T> {
        ParResults { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParResults<usize>;
    fn into_par_iter(self) -> ParResults<usize> {
        ParResults {
            items: self.collect(),
        }
    }
}

/// The traits call sites import wholesale, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let input: Vec<usize> = (0..100).collect();
        let doubled: Vec<usize> = pool.install(|| input.par_iter().map(|x| x * 2).collect());
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_on_calling_thread() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..4)
                .collect::<Vec<usize>>()
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn install_override_is_scoped() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let before = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn owned_map_chain() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let out: Vec<String> = pool.install(|| {
            vec![1u32, 2, 3]
                .into_par_iter()
                .map(|x| x + 1)
                .map(|x| x.to_string())
                .collect()
        });
        assert_eq!(out, vec!["2", "3", "4"]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = Vec::<u32>::new().par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }
}
