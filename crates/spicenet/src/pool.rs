//! Deterministic scoped worker-pool primitives for the threaded solver
//! kernels.
//!
//! The spectral tier threads its transform stages over disjoint row,
//! plane and mode ranges (see `spectral.rs`), and the CSR conjugate
//! gradient reduces through the fixed-shape dot kernels. Both are built
//! from the pieces in this module:
//!
//! * [`run`] — spawn a worker team inside one [`std::thread::scope`]
//!   and hand each worker its own moved-in context.
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
//! the same key as the same solve on 1 thread. The spectral and stencil
//! tests pin this at 1/2/4 threads.

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
/// results come back in worker order.
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
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(0), 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(4), 4);
        assert_eq!(effective_threads(1000), 64);
    }
}
