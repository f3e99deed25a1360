//! Rebuilding a BDL-Skiplist after a crash (§5.2), and the structural
//! check that recovery, the fault sweeps and the tests run on the result.

use super::{BdlSkiplist, Tower, LEVEL_SALT, SKIP_KV_TAG, TOMB};
use crate::{next_level, MAX_LEVEL};
use bdhtm_core::{kv_block_key, live_keys_sorted, EpochSys, LiveBlock};
use htm_sim::Htm;
use nvm_sim::NvmAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl BdlSkiplist {
    /// Rebuilds a skiplist from recovered live blocks (§5.2): towers are
    /// regenerated in DRAM for every block tagged [`SKIP_KV_TAG`].
    ///
    /// The list is a local here — nobody else can reach it before this
    /// returns — so it is built with plain stores, from the blocks sorted
    /// by key. `threads` cuts them into contiguous runs. Each run's worker
    /// appends every tower to the last tower it linked at each of the
    /// tower's levels, starting from a head of its own; run 0 is this
    /// thread's, starts from the list's head, and only the others spawn.
    /// After the join, each later run's per-level chains are stitched
    /// onto the ends of the ones before it, in key order. With one run it
    /// is one left-to-right pass.
    pub fn recover(
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
        threads: usize,
    ) -> BdlSkiplist {
        let list = BdlSkiplist::new(esys, htm);
        let mine = live_keys_sorted(list.esys.heap(), live, SKIP_KV_TAG);
        assert!(
            mine.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate key in recovered heap"
        );
        let mut runs = mine.chunks(mine.len().div_ceil(threads.max(1)).max(1));
        let mut tails = [list.head as u64; MAX_LEVEL];
        let later: Vec<(Box<Tower>, [u64; MAX_LEVEL])> = std::thread::scope(|s| {
            let first = runs.next().unwrap_or_default();
            let spawned: Vec<_> = runs
                .map(|run| {
                    s.spawn(move || {
                        let head = Tower::boxed(0, MAX_LEVEL, 0);
                        let tails = append_run([&*head as *const Tower as u64; MAX_LEVEL], run);
                        (head, tails)
                    })
                })
                .collect();
            tails = append_run(tails, first);
            spawned
                .into_iter()
                .map(|w| w.join().expect("rebuild worker panicked"))
                .collect()
        });
        for (head, run_tails) in later {
            for (lvl, tail) in tails.iter_mut().enumerate() {
                let first = head.next[lvl].load(Ordering::Relaxed);
                if first != 0 {
                    // SAFETY: `tail` is the list's head or a tower an
                    // earlier run linked; every worker has been joined,
                    // so this thread is the only one holding any of them.
                    unsafe { list.tower(*tail) }.next[lvl].store(first, Ordering::Relaxed);
                    *tail = run_tails[lvl];
                }
            }
        }
        list
    }

    /// Structural invariant check for the fault-injection harness. Call
    /// while quiescent (e.g. right after recovery); verifies:
    ///
    /// * the level-0 list is strictly increasing with no reachable
    ///   tombstones, and every tower's KV block is allocated, tagged
    ///   [`SKIP_KV_TAG`], carries a valid epoch, and holds the tower's
    ///   key;
    /// * every level-`l` list is a subsequence of level 0 containing
    ///   exactly towers taller than `l`, in the same order;
    /// * no two towers share a KV block.
    pub fn validate(&self) -> Result<(), String> {
        let heap = self.esys.heap();
        let clock = self.esys.current_epoch();
        let head = self.head as u64;

        let mut blocks: Vec<u64> = Vec::new();
        let mut prev_key: Option<u64> = None;
        let mut cur = unsafe { self.tower(head) }.next[0].load(Ordering::Acquire);
        while cur != 0 {
            if cur == TOMB {
                return Err("validate: tombstone reachable at level 0".into());
            }
            let t = unsafe { self.tower(cur) };
            if prev_key.is_some_and(|p| t.key <= p) {
                return Err(format!("validate: level-0 order violated at key {}", t.key));
            }
            if t.level == 0 || t.level > MAX_LEVEL {
                return Err(format!("validate: tower {} has height {}", t.key, t.level));
            }
            let blk = NvmAddr(t.blk.load(Ordering::Acquire));
            let k = kv_block_key(heap, blk, SKIP_KV_TAG, clock)
                .map_err(|e| format!("key {}: {e}", t.key))?;
            if k != t.key {
                return Err(format!("tower {} points at block holding key {k}", t.key));
            }
            blocks.push(blk.0);
            prev_key = Some(t.key);
            cur = t.next[0].load(Ordering::Acquire);
        }
        blocks.sort_unstable();
        if let Some(w) = blocks.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("block {:?} shared by two towers", NvmAddr(w[0])));
        }

        // Level 0 is strictly increasing, hence acyclic. Each higher
        // level is walked in step with the one below it: `below` only
        // moves forward, past each match, so finding every level-`lvl`
        // tower on it shows the level is a subsequence of the lower one
        // — by induction of level 0 — in the same order, and a tower met
        // twice (a cycle) is not found the second time.
        for lvl in 1..MAX_LEVEL {
            let mut below = unsafe { self.tower(head) }.next[lvl - 1].load(Ordering::Acquire);
            let mut cur = unsafe { self.tower(head) }.next[lvl].load(Ordering::Acquire);
            while cur != 0 {
                if cur == TOMB {
                    return Err(format!("validate: tombstone reachable at level {lvl}"));
                }
                let t = unsafe { self.tower(cur) };
                if t.level <= lvl {
                    return Err(format!(
                        "tower {} (height {}) linked at level {lvl}",
                        t.key, t.level
                    ));
                }
                while below != 0 && below != cur {
                    below = unsafe { self.tower(below) }.next[lvl - 1].load(Ordering::Acquire);
                }
                if below == 0 {
                    return Err(format!(
                        "level {lvl} is not a subsequence of level {} at key {}",
                        lvl - 1,
                        t.key
                    ));
                }
                below = t.next[lvl - 1].load(Ordering::Acquire);
                cur = t.next[lvl].load(Ordering::Acquire);
            }
        }
        Ok(())
    }
}

/// Appends a tower for each `(key, block)` of `run`, in order, to the
/// per-level chains that end at `tails`, and returns their new ends.
fn append_run(mut tails: [u64; MAX_LEVEL], run: &[(u64, u64)]) -> [u64; MAX_LEVEL] {
    for &(key, blk) in run {
        let t = Tower::boxed(key, next_level(LEVEL_SALT), blk);
        let level = t.level;
        let t_ptr = Box::into_raw(t) as u64;
        for (lvl, tail) in tails.iter_mut().enumerate().take(level) {
            // SAFETY: `tail` is the head this run started from or a tower
            // boxed just above; no other thread holds a pointer to either.
            unsafe { &*(*tail as *const Tower) }.next[lvl].store(t_ptr, Ordering::Relaxed);
            *tail = t_ptr;
        }
    }
    tails
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::EpochConfig;
    use htm_sim::HtmConfig;
    use nvm_sim::{NvmConfig, NvmHeap};

    /// Crashes a list holding `keys` (all durable), rebuilds it at one
    /// worker and at `threads`, and checks that neither rebuild runs a
    /// transaction, both validate, and both hold exactly `keys`.
    fn rebuilds_agree(keys: &[u64], threads: usize) {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        let l = BdlSkiplist::new(esys, Arc::new(Htm::new(HtmConfig::for_tests())));
        for &k in keys {
            l.insert(k, k + 1);
        }
        l.epoch_sys().advance();
        l.epoch_sys().advance();
        let heap = Arc::new(NvmHeap::from_image(l.epoch_sys().heap().crash()));
        let (esys, live) = EpochSys::recover(heap, EpochConfig::manual(), 1);
        let rebuild = |threads: usize| {
            let htm = Arc::new(Htm::new(HtmConfig::for_tests()));
            let l = BdlSkiplist::recover(Arc::clone(&esys), Arc::clone(&htm), &live, threads);
            assert_eq!(htm.stats().snapshot().attempts(), 0, "{threads} workers");
            l.validate()
                .unwrap_or_else(|e| panic!("{threads} workers: {e}"));
            l.range(0, u64::MAX)
        };
        let mut want: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 1)).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(rebuild(1), want, "1 worker");
        assert_eq!(rebuild(threads), want, "{threads} workers");
    }

    #[test]
    fn split_rebuild_edge_cases() {
        // Fewer records than workers, down to none.
        for n in 0..4u64 {
            let keys: Vec<u64> = (0..n).map(|i| i * 20_011 + 5).collect();
            rebuilds_agree(&keys, 4);
        }
        rebuilds_agree(&[1, 300, 600, 900, 1200], 8);
        rebuilds_agree(&(1..3000).collect::<Vec<_>>(), 4);
        let scattered: Vec<u64> = (1..2000u64).map(|i| (i * 7919) % (1 << 16)).collect();
        for threads in [2, 3, 7] {
            rebuilds_agree(&scattered, threads);
        }
    }
}
