//! A fallback recompute must not hold two `listDP`s at once.
//!
//! This binary installs a counting global allocator, so it holds a single
//! test: the heap peak of a length walk whose lengths fall back must stay
//! within a fraction of one `listDP` of the peak of its anchor pass alone.
//! If a fallback harvested its new partial profiles while the old ones were
//! still alive, the walk would peak a whole `listDP` higher.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use valmod_core::profile::{DpEntry, PartialProfile};
use valmod_core::{LengthMethod, Valmod};
use valmod_data::generators::{random_walk, sine_mixture};
use valmod_mp::ProfiledSeries;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts bytes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the heap peaked above its level before `f` ran.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

#[test]
fn a_fallback_never_holds_two_list_dps() {
    // Random walk with a noisy sine tail: reaches the fallback branch.
    let mut values = random_walk(600, 1);
    values.extend_from_slice(&sine_mixture(200, &[(0.1, 3.0)], 0.4, 2));
    let ps = ProfiledSeries::from_values(&values).unwrap();
    let (lo, hi, p) = (16usize, 48usize, 16usize);

    let (anchor_peak, _) = peak_growth(|| Valmod::new(lo, lo).p(p).run_on(&ps).unwrap());
    let (walk_peak, out) = peak_growth(|| Valmod::new(lo, hi).p(p).run_on(&ps).unwrap());
    assert!(
        out.per_length.iter().any(|r| r.method == LengthMethod::Fallback),
        "construction no longer reaches the fallback branch"
    );

    let ndp = ps.num_subsequences(lo);
    let list_dp =
        ndp * (std::mem::size_of::<PartialProfile>() + p * std::mem::size_of::<DpEntry>());
    assert!(
        walk_peak < anchor_peak + list_dp / 2,
        "walk peaked {walk_peak} B against {anchor_peak} B for the anchor alone \
         (one listDP is {list_dp} B)"
    );
}
