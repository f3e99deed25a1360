//! Persistent block headers: layout, states, and accessors.

use nvm_sim::{NvmAddr, NvmHeap};

/// Words occupied by the block header.
pub const HDR_WORDS: u64 = 4;
/// Header word holding `MAGIC | state | class`.
pub const HDR_STATE: u64 = 0;
/// Header word holding the allocation / tracking epoch.
pub const HDR_EPOCH: u64 = 1;
/// Header word holding the delete epoch.
pub const HDR_DEL_EPOCH: u64 = 2;
/// Header word holding the user tag (block type for recovery).
pub const HDR_TAG: u64 = 3;

/// Epoch value meaning "not yet assigned to any epoch". Preallocated
/// blocks carry this value, and so does every free block on media;
/// recovery reclaims them unconditionally.
pub const INVALID_EPOCH: u64 = u64::MAX;

/// Total block sizes (header included) of each size class, in words:
/// 64 B, 128 B, 256 B, 1 KiB, 4 KiB.
pub const CLASS_WORDS: [u64; 5] = [8, 16, 32, 128, 512];
/// Number of size classes.
pub const NUM_CLASSES: usize = CLASS_WORDS.len();

const MAGIC: u64 = 0xB1D0_C0DE;
const MAGIC_SHIFT: u32 = 16;

/// Lifecycle state of a persistent block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockState {
    /// On a free list (or never carved).
    Free = 0,
    /// Live, owned by a data structure.
    Allocated = 1,
    /// Retired in some epoch; awaiting confirmation of the delete epoch.
    Deleted = 2,
}

impl BlockState {
    fn from_bits(bits: u64) -> Option<BlockState> {
        match bits {
            0 => Some(BlockState::Free),
            1 => Some(BlockState::Allocated),
            2 => Some(BlockState::Deleted),
            _ => None,
        }
    }
}

/// Packs a header state word.
pub(crate) fn pack_state(state: BlockState, class: usize) -> u64 {
    (MAGIC << MAGIC_SHIFT) | ((state as u64) << 8) | class as u64
}

/// Unpacks a header state word; `None` if the magic is absent (garbage —
/// an extent region never formatted, or media corruption).
pub(crate) fn unpack_state(word: u64) -> Option<(BlockState, usize)> {
    if word >> MAGIC_SHIFT != MAGIC {
        return None;
    }
    let class = (word & 0xFF) as usize;
    if class >= NUM_CLASSES {
        return None;
    }
    BlockState::from_bits((word >> 8) & 0xFF).map(|s| (s, class))
}

/// Smallest size class whose payload (class size minus header) holds
/// `payload_words`; `None` if it exceeds the largest class.
pub fn class_for_payload(payload_words: u64) -> Option<usize> {
    CLASS_WORDS
        .iter()
        .position(|&w| w - HDR_WORDS >= payload_words)
}

/// Marks a block `DELETED` with the given delete epoch, using coherent
/// (transaction-visible) stores. Called by the epoch system's `pRetire`;
/// nothing is flushed — the deletion record becomes durable when the
/// retiring epoch's buffer is persisted.
pub fn mark_deleted(heap: &NvmHeap, blk: NvmAddr, class: usize, del_epoch: u64) {
    set_state_and_del_epoch(heap, blk, pack_state(BlockState::Deleted, class), del_epoch);
}

/// Re-marks a `DELETED` block `ALLOCATED` (recovery resurrection of
/// deletions that never became durable).
pub fn mark_allocated(heap: &NvmHeap, blk: NvmAddr, class: usize) {
    set_state_and_del_epoch(
        heap,
        blk,
        pack_state(BlockState::Allocated, class),
        INVALID_EPOCH,
    );
}

/// Writes a header's state and delete-epoch words in one coherent pass
/// over the header line, leaving the epoch word between them as it is.
/// The delete epoch lands first, the state word last.
fn set_state_and_del_epoch(heap: &NvmHeap, blk: NvmAddr, state: u64, del_epoch: u64) {
    heap.write_coherent_words(blk, HDR_DEL_EPOCH + 1, |w| match w {
        HDR_STATE => Some(state),
        HDR_DEL_EPOCH => Some(del_epoch),
        _ => None,
    });
}

/// Convenience non-transactional header accessors (used off the critical
/// path: allocation, epoch flushing, recovery). Transactional access to
/// the epoch word goes through `heap.word(addr.offset(HDR_EPOCH))`.
///
/// The plain setters write without versioning; use them only on blocks
/// not yet published to transactional readers (fresh allocations, test
/// fixtures, single-threaded recovery).
pub struct Header;

impl Header {
    pub fn state(heap: &NvmHeap, blk: NvmAddr) -> Option<(BlockState, usize)> {
        unpack_state(
            heap.word(blk.offset(HDR_STATE))
                .load(std::sync::atomic::Ordering::Acquire),
        )
    }

    pub fn set_state(heap: &NvmHeap, blk: NvmAddr, state: BlockState, class: usize) {
        heap.write(blk.offset(HDR_STATE), pack_state(state, class));
    }

    pub fn epoch(heap: &NvmHeap, blk: NvmAddr) -> u64 {
        heap.word(blk.offset(HDR_EPOCH))
            .load(std::sync::atomic::Ordering::Acquire)
    }

    pub fn set_epoch(heap: &NvmHeap, blk: NvmAddr, e: u64) {
        heap.write(blk.offset(HDR_EPOCH), e);
    }

    pub fn del_epoch(heap: &NvmHeap, blk: NvmAddr) -> u64 {
        heap.word(blk.offset(HDR_DEL_EPOCH))
            .load(std::sync::atomic::Ordering::Acquire)
    }

    pub fn set_del_epoch(heap: &NvmHeap, blk: NvmAddr, e: u64) {
        heap.write(blk.offset(HDR_DEL_EPOCH), e);
    }

    pub fn tag(heap: &NvmHeap, blk: NvmAddr) -> u64 {
        heap.word(blk.offset(HDR_TAG))
            .load(std::sync::atomic::Ordering::Acquire)
    }

    pub fn set_tag(heap: &NvmHeap, blk: NvmAddr, tag: u64) {
        heap.write(blk.offset(HDR_TAG), tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for class in 0..NUM_CLASSES {
            for state in [BlockState::Free, BlockState::Allocated, BlockState::Deleted] {
                let w = pack_state(state, class);
                assert_eq!(unpack_state(w), Some((state, class)));
            }
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(unpack_state(0), None);
        assert_eq!(unpack_state(u64::MAX), None);
        assert_eq!(unpack_state(12345), None);
    }

    #[test]
    fn class_selection() {
        assert_eq!(class_for_payload(0), Some(0));
        assert_eq!(class_for_payload(4), Some(0)); // 8 - 4 header
        assert_eq!(class_for_payload(5), Some(1));
        assert_eq!(class_for_payload(12), Some(1));
        assert_eq!(class_for_payload(28), Some(2));
        assert_eq!(class_for_payload(124), Some(3));
        assert_eq!(class_for_payload(508), Some(4));
        assert_eq!(class_for_payload(509), None);
    }
}
