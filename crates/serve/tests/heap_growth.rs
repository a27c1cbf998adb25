//! A server worker's heap does not grow with the number of distinct
//! budgets it has served.
//!
//! Callers choose ε freely, so a cache keyed by ε (or by a noise rate
//! derived from it) anywhere on the call path grows without bound under a
//! spray of distinct budgets, and a linear-scan cache also gets slower with
//! every entry. This test counts live heap bytes with a counting global
//! allocator and holds them flat across 10⁴ calls through
//! `QueryServer::handle`, over all ten mechanisms, each call at an ε no
//! earlier call used, on one `WorkerScratch`. It counts bytes and never
//! times anything, so it is deterministic on any machine. It is the only
//! test in this binary, so no other test allocates while it counts.

use free_gap_core::api::{AnyMechanism, ExponentialTopK};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_serve::{MechanismRequest, QueryServer, RequestBody, WorkerScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting the bytes it hands out and takes back.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TENANT: u64 = 1;
const MECHANISMS: usize = 10;
const CALLS: usize = 10_000;

/// Mechanism `which` of the ten at budget `eps`.
fn mechanism(which: usize, eps: f64) -> AnyMechanism {
    let (k, threshold) = (3, 50.0);
    match which {
        0 => NoisyTopKWithGap::new(k, eps, true).unwrap().into(),
        1 => ClassicNoisyTopK::new(k, eps, true).unwrap().into(),
        2 => DiscreteNoisyTopKWithGap::new(k, eps, true).unwrap().into(),
        3 => ExponentialTopK::new(ExponentialMechanism::new(eps, true).unwrap(), k)
            .unwrap()
            .into(),
        4 => StaircaseMechanism::new(eps).unwrap().into(),
        5 => SparseVectorWithGap::new(k, eps, threshold, true)
            .unwrap()
            .into(),
        6 => ClassicSparseVector::new(k, eps, threshold, true)
            .unwrap()
            .into(),
        7 => AdaptiveSparseVector::new(k, eps, threshold, true)
            .unwrap()
            .into(),
        8 => MultiBranchAdaptiveSparseVector::new(k, eps, threshold, true, 3)
            .unwrap()
            .into(),
        _ => DiscreteSparseVectorWithGap::new(k, eps, threshold, true)
            .unwrap()
            .into(),
    }
}

/// Serves calls `from..to`: call `i` runs mechanism `i % 10` at its own ε
/// over `queries`, and its response is dropped at once.
fn serve(
    server: &QueryServer,
    worker: &mut WorkerScratch,
    queries: &[f64],
    from: usize,
    to: usize,
) {
    for i in from..to {
        let req = MechanismRequest {
            tenant: TENANT,
            body: RequestBody::Call {
                // A fresh ε per call.
                mechanism: mechanism(i % MECHANISMS, 0.1 + i as f64 * 1.3e-7),
                queries: queries.to_vec(),
            },
        };
        let response = server.handle(&req, worker);
        assert!(!response.is_rejected(), "call {i}: {response:?}");
    }
}

#[test]
fn distinct_epsilon_calls_do_not_grow_the_heap() {
    let server = QueryServer::new(7);
    server.register_tenant(TENANT, 1e9).unwrap();
    let mut worker = WorkerScratch::new();
    // Warm-up on answers far below the threshold: every SVT scans all 64,
    // so the noise tape's blocks reach the largest size any later call of
    // this length asks for.
    let warm_up = 20 * MECHANISMS;
    serve(&server, &mut worker, &[-1e6; 64], 0, warm_up);
    let before = LIVE.load(Ordering::Relaxed);
    let queries: Vec<f64> = (0..64).map(|i| ((i * 37) % 101) as f64).collect();
    serve(&server, &mut worker, &queries, warm_up, warm_up + CALLS);
    let grown = LIVE.load(Ordering::Relaxed) - before;
    // Both readings follow a whole round of the ten mechanisms, so the
    // worker holds the same output variant; its capacity is sized from the
    // previous call's draws, at most 64 decisions of 16 bytes. So the
    // steady state moves by at most about 1 KiB either way. A 4 KiB bound
    // leaves room for that, and is far below what any per-ε cache holds
    // after 10⁴ distinct budgets: one byte per call is already 10 KB.
    assert!(
        grown < 4096,
        "live heap grew by {grown} bytes over {CALLS} distinct-ε calls"
    );
}
