//! Table 3: DRAM and NVM space consumption of the five trees, filled
//! with half the keys of the universe. The paper's trends: the vEB trees
//! pay ~16x the DRAM of LB+Tree; the (a,b)-trees use no DRAM; PHTM-vEB's
//! NVM footprint exceeds the strictly-persistent trees' because of
//! buffered duplicate copies and recovery metadata.
//!
//! ```sh
//! cargo run --release -p bench --bin table3_space
//! ```

use bench::{scale_down_bits, substrate, MetricsSink, EPOCH_LEN, HEAP_BYTES};
use btree::{ElimAbTree, LbTree, OccAbTree};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;
use veb::{HtmVeb, PhtmVeb};

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn main() {
    let ubits = 26 - scale_down_bits();
    let nkeys = 1u64 << (ubits - 1);
    println!(
        "# Table 3: space of trees with 2^{} keys of a 2^{ubits} universe (MiB)",
        ubits - 1
    );
    println!("{:<12} {:>10} {:>10}", "tree", "DRAM", "NVM");
    // --metrics-json captures the PHTM-vEB fill (the only buffered-
    // durable configuration in this table).
    let mut sink = MetricsSink::from_args();

    // HTM-vEB: all DRAM.
    {
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let t = HtmVeb::new(ubits, htm);
        for k in 0..nkeys {
            t.insert(k * 2, k);
        }
        println!(
            "{:<12} {:>10.1} {:>10.1}",
            "HTM-vEB",
            mib(t.dram_bytes()),
            0.0
        );
    }

    // PHTM-vEB: DRAM index + NVM KV blocks (with buffered duplicates).
    {
        let (esys, htm) = substrate(NvmConfig::for_tests(HEAP_BYTES), EPOCH_LEN, Some(&mut sink));
        let t = PhtmVeb::new(ubits, Arc::clone(&esys), htm);
        for k in 0..nkeys {
            t.insert(k * 2, k);
            // Periodic epoch churn so retired copies accumulate as they
            // would under the 50 ms clock.
            if k % (nkeys / 8).max(1) == 0 {
                esys.advance();
            }
        }
        println!(
            "{:<12} {:>10.1} {:>10.1}",
            "PHTM-vEB",
            mib(t.dram_bytes()),
            mib(t.nvm_bytes())
        );
    }

    // LB+Tree: small DRAM inner tree, NVM leaves.
    {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(HEAP_BYTES)));
        let t = LbTree::new(heap);
        for k in 0..nkeys {
            t.insert(k * 2, k);
        }
        println!(
            "{:<12} {:>10.1} {:>10.1}",
            "LB+Tree",
            mib(t.dram_bytes()),
            mib(t.nvm_bytes())
        );
    }

    // Elim-ABTree / OCC-ABTree: zero DRAM, everything in NVM.
    {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(HEAP_BYTES)));
        let t = ElimAbTree::new(heap);
        for k in 0..nkeys {
            t.insert(k * 2, k);
        }
        println!(
            "{:<12} {:>10.1} {:>10.1}",
            "Elim-Tree",
            mib(t.dram_bytes()),
            mib(t.nvm_bytes())
        );
    }
    {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(HEAP_BYTES)));
        let t = OccAbTree::new(heap);
        for k in 0..nkeys {
            t.insert(k * 2, k);
        }
        println!(
            "{:<12} {:>10.1} {:>10.1}",
            "OCC-Tree",
            mib(t.dram_bytes()),
            mib(t.nvm_bytes())
        );
    }
    sink.write();
}
