//! Metamorphic check of the persist pipeline (DESIGN.md §3.4.2): the
//! durable heap image a crash exposes must be *bit-identical* with and
//! without a live persister, because the background persister only
//! moves the seal and the write-back off the advancing thread — the
//! fence, the frontier publish and reclamation still happen once per
//! batch, in epoch order. Any divergence (a lost range, a publish that
//! jumped a batch) shows up as a digest mismatch against fully
//! synchronous inline persistence.

use bd_htm::bdhtm_core::Persister;
use bd_htm::prelude::*;
use std::sync::Arc;

/// FNV-1a over the full crash image.
fn image_digest(img: &nvm_sim::CrashImage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..img.len_words() {
        let w = img.word(nvm_sim::NvmAddr(i as u64));
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Insert-only workload (no reclamation, so allocation stays
/// deterministic under concurrent write-back) against a live persister,
/// or with synchronous inline persistence. Returns the post-crash image
/// digest.
fn live_pipeline_digest(live_persister: bool) -> u64 {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(16 << 20)));
    let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::manual());
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let map = BdhtHashMap::new(1 << 9, Arc::clone(&esys), htm);
    let persister = live_persister.then(|| Persister::spawn(Arc::clone(&esys)));
    for k in 0..300u64 {
        assert!(map.insert(k, k + 7));
        if k % 25 == 24 {
            esys.advance();
        }
    }
    esys.flush_all();
    if let Some(p) = persister {
        p.stop();
    }
    assert_eq!(esys.buffered_words(), 0);
    assert_eq!(esys.persisted_frontier(), esys.current_epoch() - 2);
    image_digest(&heap.crash())
}

/// A live persister must produce the same durable image as fully
/// synchronous inline persistence.
#[test]
fn live_pipeline_image_matches_synchronous_baseline() {
    assert_eq!(
        live_pipeline_digest(true),
        live_pipeline_digest(false),
        "the live persister diverged from the sync baseline"
    );
}
