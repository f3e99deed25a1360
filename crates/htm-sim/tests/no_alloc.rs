//! A warm HTM attempt allocates nothing: the read set, write set,
//! written-lines list and commit stripe list are per-thread buffers that
//! every attempt takes and hands back.
//!
//! A counting global allocator counts the allocations of the calling
//! thread only, so tests running in parallel do not see each other's.

use htm_sim::{AbortCause, FallbackLock, Htm, HtmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicU64;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `op` once to warm up, then 1,000 times, and returns how many
/// allocations the 1,000 made on this thread.
fn allocs_of(mut op: impl FnMut()) -> u64 {
    op();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..1000 {
        op();
    }
    ALLOCS.with(Cell::get) - before
}

fn cells(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

#[test]
fn an_empty_attempt_allocates_nothing() {
    let htm = Htm::new(HtmConfig::for_tests());
    let n = allocs_of(|| htm.attempt(|_| Ok(())).unwrap());
    assert_eq!(n, 0);
}

#[test]
fn a_read_only_run_allocates_nothing() {
    let htm = Htm::new(HtmConfig::for_tests());
    let lock = FallbackLock::new();
    let c = cells(16);
    let n = allocs_of(|| {
        let sum = htm
            .run(&lock, |m| {
                let mut sum = 0;
                for cell in &c {
                    sum += m.load(cell)?;
                }
                Ok(sum)
            })
            .unwrap();
        assert_eq!(sum, 0);
    });
    assert_eq!(n, 0);
}

#[test]
fn an_8_read_8_write_run_allocates_nothing() {
    let htm = Htm::new(HtmConfig::for_tests());
    let lock = FallbackLock::new();
    let c = cells(16);
    let n = allocs_of(|| {
        htm.run(&lock, |m| {
            for i in 0..8 {
                let v = m.load(&c[i])?;
                m.store(&c[8 + i], v + 1)?;
            }
            Ok(())
        })
        .unwrap();
    });
    assert_eq!(n, 0);
    assert_eq!(htm.stats().snapshot().commits, 1001);
}

#[test]
fn an_explicit_abort_allocates_nothing() {
    let htm = Htm::new(HtmConfig::for_tests());
    let c = cells(1);
    let n = allocs_of(|| {
        let r: Result<(), AbortCause> = htm.attempt(|t| {
            t.store(&c[0], 1)?;
            Err(t.abort_explicit(7))
        });
        assert_eq!(r.unwrap_err(), AbortCause::Explicit(7));
    });
    assert_eq!(n, 0);
}

#[test]
fn a_run_completed_on_the_fallback_path_allocates_nothing() {
    let htm = Htm::new(HtmConfig::for_tests().with_spurious(1.0));
    let lock = FallbackLock::new();
    let c = cells(2);
    let n = allocs_of(|| {
        htm.run(&lock, |m| {
            let v = m.load(&c[0])?;
            m.store(&c[1], v + 1)?;
            Ok(())
        })
        .unwrap();
    });
    assert_eq!(n, 0);
    assert_eq!(htm.stats().snapshot().fallbacks, 1001);
}
