//! Deterministic randomness and a tiny property-test harness.
//!
//! The workspace must stay offline-buildable, so it cannot depend on
//! `rand` or `proptest`. This crate provides the narrow slice of both
//! that the simulator actually needs:
//!
//! * [`Rng`] — a SplitMix64 generator with `gen_range`/`gen_bool`
//!   conveniences mirroring the `rand` call sites it replaced. Seeded
//!   explicitly, never from the OS, so every workload and test is
//!   replayable from its seed alone.
//! * [`check`] — a property runner that drives a closure with many
//!   independently-seeded generators and, on failure, reports the case
//!   index and exact seed needed to reproduce it.
//!
//! Determinism is not a nicety here: the paper's tables are produced by
//! differential runs of the same instruction stream through different
//! machine configurations, and any hidden entropy (hash seeds, OS
//! randomness) would make those comparisons unrepeatable.
//!
//! The crate also hosts [`CountingAlloc`], the test-only allocator the
//! zero-allocation steady-state tests install to prove the hot loop
//! stays off the heap. It is the single place the workspace touches
//! `unsafe` (implementing [`std::alloc::GlobalAlloc`] requires it), so
//! the crate-level lint is `deny` with one scoped, justified allow
//! rather than `forbid`.

#![deny(unsafe_code)]

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64: tiny, fast, and passes BigCrush — more than enough for
/// workload synthesis and test-case generation.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from an explicit seed. Equal seeds yield
    /// identical streams on every platform.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from a half-open or inclusive integer range.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.gen_f64() < p
    }

    /// Full-range `i32` draw (replacement for `rng.gen::<i32>()`).
    pub fn gen_i32(&mut self) -> i32 {
        self.next_u64() as i32
    }

    /// Full-range `u64` draw (replacement for `rng.gen::<u64>()`).
    pub fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// Uniform draw in `[0, 1)` (replacement for `rng.gen::<f64>()`).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Integer types [`Rng::gen_range`] can draw.
///
/// The blanket [`SampleRange`] impls below are generic over this trait
/// so that type inference flows from the call site into the range
/// literal (`arr[rng.gen_range(0..3)]` infers `usize`), exactly as the
/// `rand` call sites this replaced relied on.
pub trait SampleUniform: Copy {
    fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self;
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(rng: &mut Rng, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 as u64;
                let off = rng.next_u64() % span;
                (lo as i128 + off as i128) as $t
            }
            fn sample_inclusive(rng: &mut Rng, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 as u64;
                if span == u64::MAX {
                    // Full 64-bit domain: every output is in range.
                    return rng.next_u64() as $t;
                }
                let off = rng.next_u64() % (span + 1);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl<T: SampleUniform> SampleRange for Range<T> {
    type Output = T;
    fn sample(self, rng: &mut Rng) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange for RangeInclusive<T> {
    type Output = T;
    fn sample(self, rng: &mut Rng) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Runs `cases` independently-seeded executions of a property.
///
/// Each case gets a fresh [`Rng`]; the closure draws whatever inputs it
/// needs and asserts its property. On panic, the harness prints the
/// case index and seed (rerun with [`check_seed`] to reproduce) and
/// re-raises so the test still fails loudly.
pub fn check<F>(name: &str, cases: u64, f: F)
where
    F: Fn(&mut Rng),
{
    for case in 0..cases {
        let seed = derive_seed(name, case);
        run_case(name, case, seed, &f);
    }
}

/// Re-runs a single property case from a seed printed by [`check`].
pub fn check_seed<F>(name: &str, seed: u64, f: F)
where
    F: Fn(&mut Rng),
{
    run_case(name, u64::MAX, seed, &f);
}

fn run_case<F>(name: &str, case: u64, seed: u64, f: &F)
where
    F: Fn(&mut Rng),
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = Rng::new(seed);
        f(&mut rng);
    }));
    if let Err(payload) = result {
        eprintln!("property `{name}` failed at case {case} (seed {seed:#018x})");
        eprintln!("reproduce with: vpir_testkit::check_seed(\"{name}\", {seed:#018x}, ..)");
        resume_unwind(payload);
    }
}

/// A counting wrapper around the system allocator for zero-allocation
/// assertions.
///
/// Install it as the test binary's `#[global_allocator]`, snapshot
/// [`CountingAlloc::allocations`] around the region under test, and
/// assert the delta. Counters are monotonic (snapshot-and-subtract, no
/// reset) so concurrent tests in one binary can't clobber each other's
/// zero point.
///
/// # Examples
///
/// ```
/// use vpir_testkit::CountingAlloc;
///
/// #[global_allocator]
/// static ALLOC: CountingAlloc = CountingAlloc::new();
///
/// let before = ALLOC.allocations();
/// let sum: u64 = (0u64..64).sum(); // pure arithmetic: no heap traffic
/// assert_eq!(sum, 2016);
/// assert_eq!(ALLOC.allocations() - before, 0);
/// ```
#[derive(Debug)]
pub struct CountingAlloc {
    allocations: core::sync::atomic::AtomicU64,
    deallocations: core::sync::atomic::AtomicU64,
    allocated_bytes: core::sync::atomic::AtomicU64,
}

impl CountingAlloc {
    /// Creates a zeroed counter (const, so it can be a `static`).
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            allocations: core::sync::atomic::AtomicU64::new(0),
            deallocations: core::sync::atomic::AtomicU64::new(0),
            allocated_bytes: core::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Heap allocations observed so far (`alloc`, `alloc_zeroed`, and
    /// growing `realloc` calls each count once).
    pub fn allocations(&self) -> u64 {
        self.allocations.load(core::sync::atomic::Ordering::Relaxed)
    }

    /// Deallocations observed so far.
    pub fn deallocations(&self) -> u64 {
        self.deallocations
            .load(core::sync::atomic::Ordering::Relaxed)
    }

    /// Total bytes requested across all counted allocations.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
            .load(core::sync::atomic::Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// The one unsafe impl in the workspace: `GlobalAlloc` is an unsafe
// trait by definition. The implementation adds only relaxed atomic
// increments around direct calls to `std::alloc::System`, upholding
// the trait contract by pure delegation.
#[allow(unsafe_code)]
mod counting_alloc_impl {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::Ordering;

    use super::CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.allocated_bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            self.deallocations.fetch_add(1, Ordering::Relaxed);
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.allocated_bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A realloc moves or resizes an existing block: count it as
            // fresh heap traffic (one allocation, the new size in
            // bytes) — for a zero-allocation assertion any realloc is
            // just as disqualifying as a malloc.
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.allocated_bytes
                .fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }
}

/// Stable per-property seed derivation (FNV-1a over the name, mixed
/// with the case index). Independent of HashMap seeding and platform.
fn derive_seed(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-100i64..100);
            assert!((-100..100).contains(&w));
            let x = rng.gen_range(b'a'..=b'c');
            assert!((b'a'..=b'c').contains(&x));
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = Rng::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::new(3);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "p=0.5 near half: {heads}");
    }

    #[test]
    fn full_inclusive_range_is_total() {
        let mut rng = Rng::new(5);
        // Must not divide by zero on the span.
        let _ = rng.gen_range(0u64..=u64::MAX);
        let _ = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn check_runs_every_case() {
        use std::cell::Cell;
        let count = Cell::new(0u64);
        check("counting", 25, |_rng| count.set(count.get() + 1));
        assert_eq!(count.get(), 25);
    }

    #[test]
    fn check_reports_failures() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("always-fails", 3, |_rng| panic!("boom"));
        }));
        assert!(result.is_err());
    }
}
