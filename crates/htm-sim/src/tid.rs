//! Dense thread ids, recycled when their threads exit, and
//! [`PerThread`], the one per-thread slot array indexed by them.
//!
//! A thread takes an id on its first [`PerThread::mine`] and returns it
//! when it exits, so [`MAX_THREADS`] bounds the threads alive at once,
//! not the threads a process creates. A number that must never repeat (a
//! tower RNG seed, a schedule label) is [`thread_serial`] instead.

use crate::sync::{CachePadded, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Upper bound on the ids held at once: over ten times the most threads
/// a harness here runs (20), with room for parallel tests. Every
/// [`PerThread`] holds this many padded slots.
pub(crate) const MAX_THREADS: usize = 256;

const UNASSIGNED: usize = usize::MAX;

/// One past the highest id ever handed out.
static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(0);
/// Ids of exited threads. The predecessor's push (unlock, Release) and
/// the successor's pop (lock, Acquire) order the predecessor's slot
/// writes before the successor's.
static FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

thread_local! {
    static TID: Cell<usize> = const { Cell::new(UNASSIGNED) };
    static SERIAL: Cell<u64> = const { Cell::new(0) };
    /// Touched only when the thread takes its id; its destructor
    /// returns the id.
    static RELEASE: Release = const { Release };
}

struct Release;

impl Drop for Release {
    fn drop(&mut self) {
        // Poison the cached id first: a later thread-local destructor
        // that calls `thread_id` takes an id that is never returned,
        // instead of this one, which a successor may hold.
        let id = TID.replace(UNASSIGNED);
        FREE.lock().push(id);
    }
}

/// The calling thread's dense id, taken on first call: a recycled one
/// if any, else the next. Panics past [`MAX_THREADS`] ids held at once.
#[inline]
pub(crate) fn thread_id() -> usize {
    let id = TID.with(Cell::get);
    if id != UNASSIGNED {
        return id;
    }
    take_id()
}

#[cold]
fn take_id() -> usize {
    let id = FREE.lock().pop().unwrap_or_else(|| {
        let id = NEXT_ID.fetch_add(1, Ordering::SeqCst);
        assert!(
            id < MAX_THREADS,
            "htm-sim: more than {MAX_THREADS} threads alive at once"
        );
        id
    });
    TID.set(id);
    SERIAL.set(NEXT_SERIAL.fetch_add(1, Ordering::Relaxed));
    // Fails only after `Release` ran: the id then stays taken.
    let _ = RELEASE.try_with(|_| ());
    id
}

/// The number of threads that took an id before the calling thread did.
/// Unlike its id, never reused.
pub fn thread_serial() -> u64 {
    thread_id();
    SERIAL.with(Cell::get)
}

/// One cache-padded `T` per dense thread id: the calling thread's slot
/// is [`mine`](Self::mine); every slot that can have been used is
/// [`iter`](Self::iter).
///
/// Ids are recycled, so a slot serves a run of threads, one after
/// another. Every `T` in the workspace meets one of two contracts:
///
/// * **Quiescent at exit.** The slot holds its initial value whenever
///   its owner is between uses: an epoch announcement reads
///   `EMPTY_EPOCH`, an EBR slot `UNPINNED`. Both `debug_assert` it where
///   an owner starts to use the slot.
/// * **Safe to inherit.** Counter shards and observability shards
///   (histogram counts, lag bins, flight rings) accumulate, so a
///   successor adding to its predecessor's counts changes no total, and
///   its events follow its predecessor's in one ring.
///   Allocator caches, preallocated blocks, MwCAS descriptors, logs and
///   spare nodes hold only free blocks or blocks the slot owns. An epoch
///   buffer generation is written only while its owner announces that
///   epoch, as across one thread's operations. The free list's
///   Release/Acquire orders the predecessor's writes before the
///   successor's.
pub struct PerThread<T> {
    slots: Box<[CachePadded<T>]>,
}

impl<T> PerThread<T> {
    /// One slot per possible id, each initialised by `init`.
    pub fn new(mut init: impl FnMut() -> T) -> Self {
        PerThread {
            slots: (0..MAX_THREADS).map(|_| CachePadded::new(init())).collect(),
        }
    }

    /// The calling thread's slot.
    #[inline]
    pub fn mine(&self) -> &T {
        &self.slots[thread_id()]
    }

    /// The slots below the id high-water mark (one past the highest id
    /// ever handed out), in id order: every slot a thread can have used.
    ///
    /// The id bump and the mark load are both SeqCst, so a Dekker scan may
    /// walk these instead of every slot: an id not below the mark was
    /// handed out after the load, so its owner's first store to any slot
    /// follows the load in the SeqCst order, and the scan may read the
    /// slot's initial value there. A recycled id is below the mark.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mark = NEXT_ID.load(Ordering::SeqCst).min(MAX_THREADS);
        self.slots[..mark].iter().map(|s| &**s)
    }
}

impl<T: Default> Default for PerThread<T> {
    fn default() -> Self {
        Self::new(T::default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_within_a_thread() {
        let a = thread_id();
        let b = thread_id();
        assert_eq!(a, b);
    }

    #[test]
    fn ids_are_distinct_across_threads() {
        let mine = thread_id();
        let theirs = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn high_water_covers_every_assigned_id() {
        let mine = thread_id();
        let theirs = std::thread::spawn(thread_id).join().unwrap();
        let mark = NEXT_ID.load(Ordering::SeqCst);
        assert!(mine < mark && theirs < mark);
        assert!(mark <= MAX_THREADS);
    }

    #[test]
    fn exited_threads_return_their_ids() {
        // Sibling tests take and return ids concurrently, so the mark
        // may move a little; 3 x MAX_THREADS threads must not move it
        // past MAX_THREADS, which a never-reused id would.
        for _ in 0..3 * MAX_THREADS {
            std::thread::spawn(thread_id).join().unwrap();
        }
        assert!(NEXT_ID.load(Ordering::SeqCst) <= MAX_THREADS);
    }

    #[test]
    fn serials_are_never_reused() {
        let serials: Vec<u64> = (0..8)
            .map(|_| std::thread::spawn(thread_serial).join().unwrap())
            .collect();
        assert!(serials.windows(2).all(|w| w[0] < w[1]), "{serials:?}");
    }

    #[test]
    fn iter_walks_the_slots_below_the_mark() {
        let slots = PerThread::new(|| AtomicUsize::new(0));
        slots.mine().fetch_add(1, Ordering::Relaxed);
        std::thread::scope(|s| {
            s.spawn(|| slots.mine().fetch_add(2, Ordering::Relaxed));
        });
        let total: usize = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 3);
    }
}
