//! What an epoch system costs before it runs an operation: the bytes
//! `EpochSys::format` allocates on a heap that already exists.
//!
//! Harnesses such as the crash-point sweep build thousands of
//! short-lived systems, so this setup cost multiplies. Most of it is
//! per-thread slot arrays, one 128-byte slot per possible thread id
//! (256) each: the observability bundle holds one such array, with one
//! shard per thread for its flight ring, lag bins and histograms, and
//! measures 197,760 bytes here. When each of its six histograms, its
//! lag tracker and its flight recorder held an array of its own, eight
//! in all, `format` allocated 427,264 bytes.
//!
//! A counting global allocator counts the bytes the calling thread
//! allocates, so tests running in parallel do not see each other's.

use bdhtm_core::{EpochConfig, EpochSys};
use nvm_sim::{NvmConfig, NvmHeap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Between the two measurements above: two more per-thread arrays
/// (32 KiB each) cross it.
const FORMAT_BYTES_BOUND: u64 = 256 << 10;

#[test]
fn format_allocates_a_bounded_footprint() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(1 << 20)));
    // Warm any process-wide state first.
    drop(EpochSys::format(Arc::clone(&heap), EpochConfig::default()));
    let before = BYTES.with(Cell::get);
    let esys = EpochSys::format(heap, EpochConfig::default());
    let bytes = BYTES.with(Cell::get) - before;
    drop(esys);
    assert!(
        bytes <= FORMAT_BYTES_BOUND,
        "EpochSys::format allocated {bytes} bytes, bound {FORMAT_BYTES_BOUND}"
    );
}
