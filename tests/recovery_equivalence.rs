//! Recovery's fast path against its two other forms.
//!
//! With one thread `recover` builds the index without transactions (the
//! index is unreachable until it returns), from blocks sorted by key;
//! with several it links them through HTM as `insert` does. For every
//! BDL structure, on crashed seeded workloads that leave all of
//! recovery's cases in the heap — durable records, inserts no epoch ever
//! persisted, a deletion no epoch ever persisted, lines evicted at
//! random — the two must build the same map over the same blocks, and
//! both must agree with a reference built by calling the public `insert`
//! for every live block. `validate()`, which now walks without
//! transactions too, must accept all three and must still reject an
//! index whose blocks were corrupted under it.
//!
//! (A skiplist level out of order needs the towers themselves, which are
//! private: that case is the unit test `validate_rejects_an_unsorted_level`
//! in `crates/skiplist/src/bdl.rs`.)

use bd_htm::prelude::*;
use htm_sim::SplitMix64;
use persist_alloc::Header;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// KV blocks of all three structures hold `[key, value]`.
const P_KEY: u64 = 0;
const P_VAL: u64 = 1;
const KEYS: u64 = (1 << KV_UNIVERSE_BITS) - 1;

fn htm() -> Arc<Htm> {
    Arc::new(Htm::new(HtmConfig::default()))
}

/// Runs the crash scenario on a fresh `T` and returns the crashed image
/// with one key whose insert and one whose deletion were not durable.
fn crashed_workload<T: BdlKv>(seed: u64) -> (CrashImage, u64, u64) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
    let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::default());
    let t = T::new(Arc::clone(&esys), htm());
    let mut rng = SplitMix64::new(seed);
    for _ in 0..4000 {
        if rng.next_below(211) == 0 {
            esys.advance();
        }
        if rng.next_below(53) == 0 {
            heap.evict_random_lines(8, rng.next_u64());
        }
        let key = 1 + rng.next_below(KEYS);
        if rng.next_below(4) == 0 {
            t.remove(key);
        } else {
            t.insert(key, rng.next_u64());
        }
    }
    // Everything so far becomes durable; what follows does not.
    esys.advance();
    esys.advance();
    let resurrected = (1..=KEYS)
        .find(|&k| t.get(k).is_some())
        .expect("a live key");
    let lost = (1..=KEYS)
        .find(|&k| t.get(k).is_none())
        .expect("a free key");
    assert!(t.remove(resurrected));
    assert!(t.insert(lost, 0xDEAD));
    for _ in 0..200 {
        t.insert(1 + rng.next_below(KEYS), rng.next_u64());
        heap.evict_random_lines(2, rng.next_u64());
    }
    (heap.crash(), resurrected, lost)
}

fn equivalence<T: BdlKv>(recover: impl Fn(Arc<EpochSys>, Arc<Htm>, &[LiveBlock], usize) -> T) {
    for seed in [0xE0_0001u64, 0xE0_0002, 0xE0_0003] {
        let (image, resurrected, lost) = crashed_workload::<T>(seed);
        let ctx = format!("{} seed {seed:#x}", T::NAME);

        // The fused scan/classify pass yields the same blocks in the same
        // order however many scanners ran.
        let id = |live: &[LiveBlock]| -> Vec<_> {
            live.iter().map(|b| (b.addr, b.epoch, b.tag)).collect()
        };
        let heap4 = Arc::new(NvmHeap::from_image(image.duplicate()));
        let (_, live4) = EpochSys::recover(heap4, EpochConfig::default(), 4);
        let heap = Arc::new(NvmHeap::from_image(image));
        let (esys, live) = EpochSys::recover(Arc::clone(&heap), EpochConfig::default(), 1);
        assert_eq!(
            id(&live),
            id(&live4),
            "{ctx}: scan order depends on threads"
        );
        let mine: Vec<&LiveBlock> = live.iter().filter(|b| b.tag == T::TAG).collect();
        assert!(
            mine.len() >= 128,
            "{ctx}: too few records for the HTM rebuild"
        );
        let word = |b: &LiveBlock, i: u64| esys.payload_word(b.addr, i);

        // Three indexes over one recovered heap: the plain rebuild, the
        // HTM rebuild, and a reference that re-inserts every record (into
        // blocks of its own) through the public path.
        let plain = recover(Arc::clone(&esys), htm(), &live, 1);
        let shared = recover(Arc::clone(&esys), htm(), &live, 4);
        let reference = T::new(Arc::clone(&esys), htm());
        for b in &mine {
            let (k, v) = (word(b, P_KEY), word(b, P_VAL));
            assert!(
                reference.insert(k.load(Ordering::Relaxed), v.load(Ordering::Relaxed)),
                "{ctx}: two live blocks hold one key"
            );
        }
        for (name, t) in [
            ("plain", &plain),
            ("htm", &shared),
            ("reference", &reference),
        ] {
            t.validate()
                .unwrap_or_else(|e| panic!("{ctx}: validate() of the {name} rebuild: {e}"));
        }

        // Key for key.
        let mut present = 0;
        for key in 1..=KEYS {
            let want = reference.get(key);
            assert_eq!(plain.get(key), want, "{ctx}: plain rebuild, key {key}");
            assert_eq!(shared.get(key), want, "{ctx}: HTM rebuild, key {key}");
            present += want.is_some() as usize;
        }
        assert_eq!(present, mine.len(), "{ctx}: records without a key");
        assert!(plain.get(resurrected).is_some(), "{ctx}: deletion survived");
        assert_eq!(plain.get(lost), None, "{ctx}: undurable insert survived");

        // Block for block: stamp every live block's value with its own
        // address; a lookup then names the block the index holds.
        for b in &mine {
            word(b, P_VAL).store(b.addr.0, Ordering::Relaxed);
        }
        for b in &mine {
            let key = word(b, P_KEY).load(Ordering::Relaxed);
            assert_eq!(plain.get(key), Some(b.addr.0), "{ctx}: plain, key {key}");
            assert_eq!(shared.get(key), Some(b.addr.0), "{ctx}: HTM, key {key}");
        }

        // The transaction-free validate() kept its checks.
        let (a, b) = (mine[mine.len() / 3], mine[mine.len() / 2]);
        let expect_err = |what: &str, needle: &str| {
            for (name, t) in [("plain", &plain), ("htm", &shared)] {
                let err = t
                    .validate()
                    .expect_err(&format!("{ctx}: {name} accepts {what}"));
                assert!(err.contains(needle), "{ctx}: {name}, {what}: {err}");
            }
        };
        Header::set_tag(&heap, a.addr, 0xBAD);
        expect_err("a foreign tag", "foreign tag");
        Header::set_tag(&heap, a.addr, T::TAG);
        let key_a = word(a, P_KEY).swap(word(b, P_KEY).load(Ordering::Relaxed), Ordering::Relaxed);
        expect_err("a block holding another record's key", "key");
        word(a, P_KEY).store(key_a, Ordering::Relaxed);
        plain.validate().expect("restored");
        shared.validate().expect("restored");
    }
}

#[test]
fn phtm_veb_rebuilds_agree() {
    equivalence(|e, h, live, threads| PhtmVeb::recover(KV_UNIVERSE_BITS, e, h, live, threads));
}

#[test]
fn bdl_skiplist_rebuilds_agree() {
    equivalence(BdlSkiplist::recover);
}

#[test]
fn bd_spash_rebuilds_agree() {
    // One rebuild path (direct placement): the two must still be equal.
    equivalence(|e, h, live, _threads| BdSpash::recover(e, h, live));
}
