//! Deterministic scoped worker-pool primitives for the threaded solver
//! kernels.
//!
//! The multigrid stencil path threads its hot kernels over disjoint
//! lateral row slabs (see `stencil.rs`), and the spectral tier threads
//! its transform stages the same way (see `spectral.rs`). Both are built
//! from the pieces in this module:
//!
//! * [`run`] — spawn a worker team inside one [`std::thread::scope`]
//!   and hand each worker its own moved-in context. The team is spawned
//!   **once per solve** and reused across every CG iteration; phases
//!   inside the solve synchronize through [`Board::sync`] barriers
//!   rather than respawning threads per kernel call.
//! * [`Board`] — a mailbox-and-barrier rendezvous: workers publish halo
//!   rows (or gathered slabs) into their own slot, synchronize, and
//!   read their neighbours' slots. Plain `Mutex<Vec<f64>>` slots keep
//!   the whole layer safe Rust — the workspace forbids `unsafe`.
//! * [`Partials`] — fixed-shape reduction slots. Every global sum in
//!   the threaded solver (dot products, the border-row bottom sum) is
//!   computed as per-row partial sums folded in a fixed sequential
//!   order, so the grouping of floating-point additions depends only on
//!   the problem shape — **never** on the thread count.
//! * [`dot_wide`] / [`chunked_dot`] — the canonical fixed-shape dot
//!   kernels: an 8-accumulator inner loop the compiler can
//!   autovectorize, folded over fixed-width chunks.
//!
//! # Determinism contract
//!
//! Every kernel built on this module produces **bit-identical** results
//! at any thread count (including 1). This is load-bearing:
//! `Flow::content_key` and the coolserved disk cache assume bit-exact
//! reproducibility, so a result computed with 4 threads must hash to
//! the same key as the same solve on 1 thread. The property tests in
//! `stencil.rs` pin this at 1/2/4 threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Number of independent accumulators in [`dot_wide`]'s inner loop —
/// wide enough for the compiler to keep the reduction in vector
/// registers, fixed so the summation tree never changes shape.
const DOT_LANES: usize = 8;

/// Chunk width of [`chunked_dot`]: partial sums are taken over
/// fixed-width chunks of this many entries and folded sequentially, so
/// the reduction tree depends only on the vector length.
pub const DOT_CHUNK: usize = 4096;

/// Resolves a requested thread count to the effective worker count:
/// `0` and `1` both mean single-threaded; anything larger is honoured
/// as-is (capped at 64 — a slab split finer than that stops paying).
pub fn effective_threads(requested: usize) -> usize {
    requested.clamp(1, 64)
}

/// The fixed-shape dot product of two equal-length slices: `DOT_LANES`
/// independent accumulators over the `chunks_exact` body, combined in a
/// fixed binary tree, plus a sequential tail. The summation order is a
/// pure function of the slice length, so every caller — scalar or
/// threaded — gets the same bits.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_wide(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    let mut acc = [0.0f64; DOT_LANES];
    let a_body = a.chunks_exact(DOT_LANES);
    let b_body = b.chunks_exact(DOT_LANES);
    let a_tail = a_body.remainder();
    let b_tail = b_body.remainder();
    for (av, bv) in a_body.zip(b_body) {
        for ((acc, x), y) in acc.iter_mut().zip(av).zip(bv) {
            *acc += x * y;
        }
    }
    let pair01 = acc[0] + acc[1];
    let pair23 = acc[2] + acc[3];
    let pair45 = acc[4] + acc[5];
    let pair67 = acc[6] + acc[7];
    let mut total = (pair01 + pair23) + (pair45 + pair67);
    for (x, y) in a_tail.iter().zip(b_tail) {
        total += x * y;
    }
    total
}

/// The chunked-tree dot product: [`dot_wide`] partials over fixed
/// [`DOT_CHUNK`]-wide chunks, folded in sequence. This is the
/// deterministic replacement for `iter().zip().map().sum()` in the CG
/// loops — same shape whether the chunks are evaluated by one thread
/// or many.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn chunked_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    let mut total = 0.0;
    for (av, bv) in a.chunks(DOT_CHUNK).zip(b.chunks(DOT_CHUNK)) {
        total += dot_wide(av, bv);
    }
    total
}

/// Runs `ctxs.len()` workers inside one [`std::thread::scope`], moving
/// each context into its worker. Worker 0 runs on the calling thread;
/// results come back in worker order. The scope spans the whole call,
/// so a solver that enters here once keeps its team alive across every
/// iteration of its outer loop.
///
/// # Panics
///
/// Propagates the first worker panic after the scope joins.
pub fn run<C: Send, R: Send>(ctxs: Vec<C>, f: impl Fn(usize, C) -> R + Sync) -> Vec<R> {
    let mut ctxs = ctxs.into_iter();
    let Some(ctx0) = ctxs.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs
            .enumerate()
            .map(|(i, ctx)| scope.spawn(move || f(i + 1, ctx)))
            .collect();
        let first = f(0, ctx0);
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(first);
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

fn unpoison<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A poisoned slot only means a sibling worker panicked mid-publish;
    // the panic propagates through the scope join, so recovering the
    // guard here cannot launder a half-written exchange into a result.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Mailbox-and-barrier rendezvous for a worker team: one publishing
/// slot per worker plus the phase barrier the whole solve synchronizes
/// on. The publish → [`Board::sync`] → read → [`Board::sync`] cycle
/// makes every exchange race-free: writes happen strictly before the
/// first barrier, reads strictly between the two.
pub struct Board {
    slots: Vec<Mutex<Vec<f64>>>,
    barrier: Barrier,
}

impl Board {
    /// A board for `workers` participants, each slot empty.
    pub fn new(workers: usize) -> Board {
        Board {
            slots: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            barrier: Barrier::new(workers),
        }
    }

    /// Overwrites worker `w`'s slot through `fill` (the slot vector is
    /// cleared first; its capacity is retained across exchanges).
    pub fn publish(&self, w: usize, fill: impl FnOnce(&mut Vec<f64>)) {
        let mut slot = unpoison(self.slots[w].lock());
        slot.clear();
        fill(&mut slot);
    }

    /// Reads worker `s`'s slot.
    pub fn read<R>(&self, s: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        f(&unpoison(self.slots[s].lock()))
    }

    /// The team barrier: every worker must call this the same number of
    /// times in the same phase order.
    pub fn sync(&self) {
        self.barrier.wait();
    }
}

/// Fixed-shape reduction slots: one `f64` (stored as bits in an
/// `AtomicU64`) per partial sum. Workers store the partials for the
/// rows they own, synchronize on the team [`Board`], and every worker
/// folds **all** slots in the same fixed sequential order — the
/// reduction tree is a function of the slot count alone, never of the
/// thread count.
pub struct Partials {
    slots: Vec<AtomicU64>,
}

impl Partials {
    /// `n` zeroed slots.
    pub fn new(n: usize) -> Partials {
        Partials {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Stores partial `i` (relaxed — the phase barrier publishes it).
    pub fn set(&self, i: usize, v: f64) {
        self.slots[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Folds slots `0..len` sequentially. Call only after a barrier
    /// that orders it against every [`Partials::set`].
    pub fn fold(&self) -> f64 {
        let mut total = 0.0;
        for s in &self.slots {
            total += f64::from_bits(s.load(Ordering::Relaxed));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_kernels_are_exact_on_integers_and_shape_stable() {
        let a: Vec<f64> = (0..10_000).map(|i| (i % 37) as f64).collect();
        let b: Vec<f64> = (0..10_000).map(|i| (i % 11) as f64).collect();
        // Integer-valued data keeps every f64 sum exact, so the chunked
        // kernels must agree with the naive sum to the last bit.
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_wide(&a, &b), naive);
        assert_eq!(chunked_dot(&a, &b), naive);
        // And the chunked shape is stable under slicing boundaries that
        // are not multiples of the lane width.
        let odd = 4097;
        let naive_odd: f64 = a[..odd].iter().zip(&b[..odd]).map(|(x, y)| x * y).sum();
        assert_eq!(chunked_dot(&a[..odd], &b[..odd]), naive_odd);
    }

    #[test]
    fn run_moves_contexts_and_orders_results() {
        let ctxs: Vec<usize> = (0..4).collect();
        let out = run(ctxs, |w, c| {
            assert_eq!(w, c);
            w * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(run(Vec::<usize>::new(), |_, c| c), Vec::<usize>::new());
    }

    #[test]
    fn board_exchange_and_partials_roundtrip() {
        let board = Board::new(1);
        board.publish(0, |v| v.extend_from_slice(&[1.0, 2.0]));
        board.sync();
        let got = board.read(0, |s| s.to_vec());
        assert_eq!(got, vec![1.0, 2.0]);
        let p = Partials::new(3);
        p.set(0, 1.5);
        p.set(2, 2.5);
        assert_eq!(p.fold(), 4.0);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(0), 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(4), 4);
        assert_eq!(effective_threads(1000), 64);
    }
}
