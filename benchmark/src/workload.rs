//! The four workloads and their seeded operation streams.
//!
//! Every workload is a closed loop of one client. Keys are `1..=keys`
//! (key 0 is left out: it is the skiplist's head sentinel). The stream is
//! generated in set-up from `--seed` alone, so the program under test
//! receives only the generated operations.

use ycsb_gen::{KeyDist, Rng64, ScrambledZipfian, Uniform, Zipfian};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Structure {
    /// PHTM-vEB over `[0, 2^universe_bits)`.
    Veb { universe_bits: u32 },
    /// BDL-Skiplist.
    Skiplist,
    /// BD-Spash.
    Spash,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyOrder {
    Uniform,
    /// Zipfian 0.99 by rank: hot keys are neighbours in key order.
    Zipfian,
    /// Zipfian 0.99 with ranks hashed over the key space.
    ScrambledZipfian,
    /// Keys `1, 2, 3, …`, each once: the stream ends when they run out.
    Sequential,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Prefill {
    Empty,
    EveryOtherKey,
    EveryKey,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    Get = 0,
    Insert = 1,
    Remove = 2,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Get, Kind::Insert, Kind::Remove];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Insert => "insert",
            Kind::Remove => "remove",
        }
    }
}

/// One workload. Why each exists is said at its entry in [`WORKLOADS`]
/// (and in BENCHMARK.json).
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub structure: Structure,
    /// Size of the key space; for [`KeyOrder::Sequential`] also the
    /// number of records the structure holds when it is crashed.
    pub keys: u64,
    pub prefill: Prefill,
    pub order: KeyOrder,
    /// Shares of gets and inserts in 1/1000; the rest are removes.
    pub get_pm: u64,
    pub insert_pm: u64,
    /// `NvmConfig::optane` (true) or the zero-latency `for_tests`.
    pub optane: bool,
    pub heap_bytes: usize,
    /// Recoveries of the crash image whose median is `recovery_ms`.
    pub recoveries: usize,
    /// Length of the pre-generated stream, which the timed window
    /// cycles through (unused for `Sequential`).
    pub ring_ops: u64,
    /// Untimed operations from the head of the stream, run in set-up.
    pub warmup_ops: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "veb-write-optane",
        // PHTM-vEB, uniform 20/40/40 get/insert/remove on Optane: every write
        // allocates and retires a block, so persist-alloc fences and scattered
        // write-back dominate
        structure: Structure::Veb { universe_bits: 20 },
        keys: (1 << 20) - 1,
        prefill: Prefill::EveryOtherKey,
        order: KeyOrder::Uniform,
        get_pm: 200,
        insert_pm: 400,
        optane: true,
        heap_bytes: 64 << 20,
        recoveries: 5,
        ring_ops: 4 << 20,
        warmup_ops: 400_000,
    },
    Spec {
        name: "spash-read-dram",
        // BD-Spash, scrambled Zipfian 95% gets on zero-latency NVM: fixed per-
        // op costs (htm-sim, run_op, obs) dominate; allocator and persister
        // changes predict no movement
        structure: Structure::Spash,
        keys: 1 << 20,
        prefill: Prefill::EveryOtherKey,
        order: KeyOrder::ScrambledZipfian,
        get_pm: 950,
        insert_pm: 25,
        optane: false,
        heap_bytes: 64 << 20,
        recoveries: 5,
        ring_ops: 4 << 20,
        warmup_ops: 1_600_000,
    },
    Spec {
        name: "skiplist-update-optane",
        // BDL-Skiplist, Zipfian 50/50 get/update on Optane: hot keys updated
        // in place and copied once per epoch through MwCAS/EBR; shows a
        // cheaper allocator bought with dearer in-place update
        structure: Structure::Skiplist,
        keys: 1 << 18,
        prefill: Prefill::EveryKey,
        order: KeyOrder::Zipfian,
        get_pm: 500,
        insert_pm: 500,
        optane: true,
        heap_bytes: 64 << 20,
        recoveries: 5,
        ring_ops: 4 << 20,
        warmup_ops: 400_000,
    },
    Spec {
        name: "veb-load-recover",
        // PHTM-vEB, sequential insert-only load on Optane: fresh extents and
        // contiguous blocks, so flush coalescing carries write-back; millions
        // of live records make recovery long enough to resolve
        structure: Structure::Veb { universe_bits: 23 },
        keys: 4_400_000,
        prefill: Prefill::Empty,
        order: KeyOrder::Sequential,
        get_pm: 0,
        insert_pm: 1000,
        optane: true,
        heap_bytes: 320 << 20,
        recoveries: 3,
        ring_ops: 0,
        warmup_ops: 400_000,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().find(|s| s.name == name).cloned()
    }

    /// The same workload with 1/`div` of the operation counts (and, for
    /// the load, of the records): `--smoke`.
    pub fn scaled_down(mut self, div: u64) -> Spec {
        self.ring_ops /= div;
        self.warmup_ops /= div;
        if self.order == KeyOrder::Sequential {
            self.keys /= div;
        }
        self
    }

    pub fn prefill_keys(&self) -> Box<dyn Iterator<Item = u64>> {
        match self.prefill {
            Prefill::Empty => Box::new(std::iter::empty()),
            Prefill::EveryOtherKey => Box::new((1..=self.keys).step_by(2)),
            Prefill::EveryKey => Box::new(1..=self.keys),
        }
    }
}

/// A seeded operation stream: `next` yields `(key, kind)`.
pub enum OpStream {
    /// Pre-generated ops packed as `key << 2 | kind`, replayed in a cycle.
    Ring { ops: Vec<u32>, pos: usize },
    /// Insert `next`, `next + 1`, … up to and including `last`.
    Sequential { next: u64, last: u64 },
}

impl OpStream {
    /// Generates the stream of `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> OpStream {
        assert!(spec.keys < 1 << 30, "keys must pack into 30 bits");
        let dist: Box<dyn KeyDist> = match spec.order {
            KeyOrder::Sequential => {
                return OpStream::Sequential {
                    next: 1,
                    last: spec.keys,
                }
            }
            KeyOrder::Uniform => Box::new(Uniform::new(spec.keys)),
            KeyOrder::Zipfian => Box::new(Zipfian::new(spec.keys, 0.99)),
            KeyOrder::ScrambledZipfian => Box::new(ScrambledZipfian::new(spec.keys, 0.99)),
        };
        let mut rng = Rng64::new(seed);
        let ops = (0..spec.ring_ops)
            .map(|_| {
                let key = dist.next_key(&mut rng) + 1;
                let r = rng.next_below(1000);
                let kind = if r < spec.get_pm {
                    Kind::Get
                } else if r < spec.get_pm + spec.insert_pm {
                    Kind::Insert
                } else {
                    Kind::Remove
                };
                (key << 2 | kind as u64) as u32
            })
            .collect();
        OpStream::Ring { ops, pos: 0 }
    }

    #[inline]
    pub fn next(&mut self) -> Option<(u64, Kind)> {
        match self {
            OpStream::Ring { ops, pos } => {
                let packed = ops[*pos];
                *pos += 1;
                if *pos == ops.len() {
                    *pos = 0;
                }
                let kind = match packed & 3 {
                    0 => Kind::Get,
                    1 => Kind::Insert,
                    _ => Kind::Remove,
                };
                Some((packed as u64 >> 2, kind))
            }
            OpStream::Sequential { next, last } => {
                if *next > *last {
                    return None;
                }
                *next += 1;
                Some((*next - 1, Kind::Insert))
            }
        }
    }

    #[cfg(test)]
    /// FNV-1a over the first `n` operations from the stream's current
    /// position (consumes them): the determinism fingerprint.
    pub fn fingerprint(&mut self, n: u64) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for _ in 0..n {
            let Some((key, kind)) = self.next() else {
                break;
            };
            for word in [key, kind as u64] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// The value the `index`-th operation of a run writes under `key`:
/// never 0 (the oracle's "absent") and with bit 63 clear.
#[inline]
pub fn value_for(key: u64, index: u64) -> u64 {
    let mut z = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 31;
    (z >> 1) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in WORKLOADS {
            let spec = spec.scaled_down(20);
            let n = spec.ring_ops.max(1000);
            let a = OpStream::generate(&spec, 7).fingerprint(n);
            let b = OpStream::generate(&spec, 7).fingerprint(n);
            assert_eq!(a, b, "{}", spec.name);
            if spec.order != KeyOrder::Sequential {
                let c = OpStream::generate(&spec, 8).fingerprint(n);
                assert_ne!(a, c, "{}", spec.name);
            }
        }
    }

    #[test]
    fn mixes_match_the_spec_and_keys_stay_in_range() {
        for spec in WORKLOADS {
            let spec = spec.scaled_down(20);
            let mut s = OpStream::generate(&spec, 1);
            let n = 100_000;
            let mut counts = [0u64; 3];
            for _ in 0..n {
                let (key, kind) = s.next().unwrap();
                assert!((1..=spec.keys).contains(&key));
                counts[kind as usize] += 1;
            }
            let want_get = spec.get_pm as f64 / 1000.0;
            let want_ins = spec.insert_pm as f64 / 1000.0;
            assert!((counts[0] as f64 / n as f64 - want_get).abs() < 0.01);
            assert!((counts[1] as f64 / n as f64 - want_ins).abs() < 0.01);
        }
    }

    #[test]
    fn sequential_stream_ends_at_the_last_key() {
        let mut s = OpStream::Sequential { next: 1, last: 3 };
        let keys: Vec<u64> = std::iter::from_fn(|| s.next()).map(|(k, _)| k).collect();
        assert_eq!(keys, [1, 2, 3]);
    }

    #[test]
    fn values_are_never_the_absent_marker() {
        for i in 0..1000 {
            let v = value_for(i, i * 7);
            assert!(v != 0 && v >> 63 == 0);
        }
    }
}
