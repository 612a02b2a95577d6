//! The counting allocator, alone in its process so nothing else
//! allocates on purpose while it is armed.

use apobench::alloc::{arm, disarm};

#[test]
fn counts_only_while_armed() {
    arm();
    let block = std::hint::black_box(vec![0u8; 1 << 20]);
    let grown = std::hint::black_box(vec![1u32; 16]);
    drop(block);
    let counted = disarm();
    assert!(counted.allocs >= 2, "{counted:?}");
    assert!(counted.peak_bytes >= (1 << 20) + 64, "peak is a high-water mark: {counted:?}");
    assert!(counted.peak_bytes < 2 << 20, "{counted:?}");

    // Disarmed, nothing moves.
    let unseen = std::hint::black_box(vec![0u8; 1 << 20]);
    assert_eq!(disarm(), counted);
    drop((unseen, grown));

    // Arming starts from zero; frees of older memory never push the
    // reported peak below it.
    let old = std::hint::black_box(vec![0u8; 1 << 16]);
    arm();
    drop(old);
    let after = disarm();
    assert_eq!(after.peak_bytes, 0, "{after:?}");
}
