//! Rebuilding a BD-Spash table after a crash, and the structural check
//! that recovery, the fault sweeps and the tests run on the result.

use super::{
    bucket_of, fingerprint_matches, slot_blk, slot_word, BdSpash, Segment, ADDR_BITS,
    BDSPASH_KV_TAG,
};
use crate::hash64;
use crate::segtable::Directory;
use bdhtm_core::{kv_block_key, payload, EpochSys, LiveBlock, KV_KEY};
use htm_sim::Htm;
use nvm_sim::NvmAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl BdSpash {
    /// Rebuilds a table from recovered live blocks: each block's slot
    /// word goes into the first empty slot of its bucket, splitting a
    /// full one, with plain stores on one thread.
    pub fn recover(esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock]) -> BdSpash {
        let t = BdSpash::new(esys, htm);
        let heap = Arc::clone(t.esys.heap());
        for b in live.iter().filter(|b| b.tag == BDSPASH_KV_TAG) {
            let key = heap.word(payload(b.addr, KV_KEY)).load(Ordering::Acquire);
            let h = hash64(key);
            loop {
                let placed = {
                    let dir = t.dir.read();
                    let free = dir
                        .bucket(h)
                        .iter()
                        .find(|slot| slot.load(Ordering::Relaxed) == 0);
                    free.inspect(|slot| slot.store(slot_word(b.addr, h), Ordering::Release))
                        .is_some()
                };
                if placed {
                    break;
                }
                t.split(h);
            }
        }
        t
    }

    /// Structural invariant check for the fault-injection harness. Call
    /// while quiescent (e.g. right after recovery); verifies:
    ///
    /// * the directory holds `2^global_depth` entries, every segment's
    ///   local depth is at most the global depth, and all entries
    ///   sharing a segment agree with its canonical (low-bits) entry;
    /// * every bucket's occupied slots form a prefix;
    /// * every occupied slot holds an allocated block tagged
    ///   [`BDSPASH_KV_TAG`] with a valid (claimed, not-from-the-future)
    ///   epoch, whose key hashes back to exactly that segment and
    ///   bucket, and whose hash carries the slot's fingerprint;
    /// * no key and no block appears twice.
    pub fn validate(&self) -> Result<(), String> {
        let clock = self.esys.current_epoch();
        let dir = self.dir.read();
        if dir.segments.len() != 1usize << dir.global_depth {
            return Err(format!(
                "validate: {} directory entries for global depth {}",
                dir.segments.len(),
                dir.global_depth
            ));
        }
        let mut entries: Vec<(u64, u64)> = Vec::new(); // (key, block)
        for (e, seg) in dir.segments.iter().enumerate() {
            if seg.local_depth > dir.global_depth {
                return Err(format!(
                    "validate: entry {e} has local depth {} > global {}",
                    seg.local_depth, dir.global_depth
                ));
            }
            let canon = e & ((1usize << seg.local_depth) - 1);
            if !Arc::ptr_eq(seg, &dir.segments[canon]) {
                return Err(format!(
                    "validate: entries {e} and {canon} disagree on a depth-{} segment",
                    seg.local_depth
                ));
            }
            if e != canon {
                continue; // scan each segment once, at its canonical entry
            }
            for (bucket, slots) in seg.buckets.iter().enumerate() {
                let mut empty = None;
                for (i, slot) in slots.iter().enumerate() {
                    let raw = slot.load(Ordering::Acquire);
                    if raw == 0 {
                        empty.get_or_insert(i);
                        continue;
                    }
                    if let Some(j) = empty {
                        return Err(format!(
                            "entry {e} bucket {bucket}: slot {i} occupied after empty slot {j}"
                        ));
                    }
                    let key = self
                        .check_slot(&dir, seg, bucket, raw, clock)
                        .map_err(|m| format!("entry {e} bucket {bucket} slot {i}: {m}"))?;
                    entries.push((key, slot_blk(raw).0));
                }
            }
        }
        // Duplicates, by sorting: equal keys end up adjacent, and since a
        // block holds one key so do two references to one block.
        entries.sort_unstable();
        for w in entries.windows(2) {
            if w[0].1 == w[1].1 {
                return Err(format!("block {:?} referenced twice", NvmAddr(w[0].1)));
            }
            if w[0].0 == w[1].0 {
                return Err(format!("key {} present twice", w[0].0));
            }
        }
        Ok(())
    }

    /// The key behind slot word `raw` of `bucket` in `seg`, once its
    /// block is an allocated KV block claimed by an epoch no later than
    /// `clock`, and the key's hash selects that segment and bucket and
    /// carries the slot's fingerprint.
    fn check_slot(
        &self,
        dir: &Directory<Arc<Segment>>,
        seg: &Arc<Segment>,
        bucket: usize,
        raw: u64,
        clock: u64,
    ) -> Result<u64, String> {
        let key = kv_block_key(self.esys.heap(), slot_blk(raw), BDSPASH_KV_TAG, clock)?;
        let h = hash64(key);
        if !Arc::ptr_eq(dir.segment(h), seg) {
            return Err(format!(
                "key {key} stored in a segment its hash does not select"
            ));
        }
        if bucket_of(h) != bucket {
            return Err(format!("key {key} hashes to bucket {}", bucket_of(h)));
        }
        if !fingerprint_matches(raw, h) {
            return Err(format!(
                "fingerprint {:#06x} disagrees with key {key}'s hash {h:#x}",
                raw >> ADDR_BITS
            ));
        }
        Ok(key)
    }
}
