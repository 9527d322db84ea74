//! What decoding a hostile compressed instruction may allocate, counted.
//!
//! A compressed instruction declares the length of the plain form it
//! stands for, and the decoder allocates that much before it reads the
//! block. It refuses a declared length above 255 times the block's, the
//! most an LZ block can expand, and the decoded buffer becomes the
//! instruction's diff in place. So a compressed instruction of `n` bytes
//! costs at most 255 · `n` bytes of heap, plus a little, whatever it
//! claims and whether or not it decodes.
//!
//! Its own test binary, because a `#[global_allocator]` is per binary.
//! The counter is thread-local, so the harness running these tests on
//! parallel threads does not mix their counts.

use mosh_ssp::instruction::{Instruction, PROTOCOL_VERSION};
use mosh_wire::put_varint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Adds one request of `size` bytes to this thread's total.
fn count(size: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + size));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a thread-local `Cell` with a constant
// initialiser and no destructor, so touching it allocates nothing and is
// valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: the caller's contract is `System.dealloc`'s, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's contract is `System.alloc_zeroed`'s, passed through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's contract is `System.realloc`'s, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread requests while decoding `wire`, with whether it
/// decoded. The copy the decoder takes by value is made before the count
/// starts.
fn bytes_to_decode(wire: &[u8]) -> (usize, bool) {
    let wire = wire.to_vec();
    let before = BYTES.with(Cell::get);
    let ok = Instruction::decode(wire).is_ok();
    (BYTES.with(Cell::get) - before, ok)
}

/// The bound: 255 bytes per byte received, and 1 KiB.
fn bound(wire: &[u8]) -> usize {
    255 * wire.len() + 1024
}

/// The compressed tag, `declared`, then `block`.
fn compressed(declared: u64, block: &[u8]) -> Vec<u8> {
    let mut out = vec![0];
    put_varint(&mut out, declared);
    out.extend_from_slice(block);
    out
}

/// Seeded xorshift bytes.
fn noise(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

#[test]
fn a_block_claiming_the_largest_expansion_costs_at_most_that() {
    for (seed, n) in [(1, 1), (2, 16), (3, 200), (4, 4000)] {
        let block = noise(seed, n);
        for declared in [255 * n as u64, 255 * n as u64 + 1, u64::MAX] {
            let wire = compressed(declared, &block);
            let (bytes, ok) = bytes_to_decode(&wire);
            assert!(!ok);
            assert!(
                bytes <= bound(&wire),
                "{n}-byte block claiming {declared}: {bytes} B"
            );
        }
    }
}

#[test]
fn a_block_that_expands_as_far_as_it_may_is_the_diff_in_place() {
    // A plain form of a diff of zeros: the fields and the diff's length
    // as literals, the diff one match with an offset of 1 and a run of
    // 255s for its length, then the chaff's length 0 as the last literal.
    let diff_len = 4 + 15 + 255 * 4000 + 1;
    let mut head = Vec::new();
    for field in [PROTOCOL_VERSION, 0, 0, 0, 0] {
        put_varint(&mut head, field);
    }
    put_varint(&mut head, diff_len as u64);
    head.push(0); // the diff's first byte; the match copies it onward
    let mut block = vec![((head.len() as u8) << 4) | 15];
    block.extend_from_slice(&head);
    block.extend_from_slice(&1u16.to_le_bytes());
    block.extend(std::iter::repeat_n(255, 4000));
    block.push(0);
    block.extend_from_slice(&[0x10, 0]);
    let wire = compressed((head.len() - 1 + diff_len + 1) as u64, &block);

    let (bytes, ok) = bytes_to_decode(&wire);
    assert!(ok, "the block decodes");
    let decoded = Instruction::decode(wire.clone()).unwrap();
    assert_eq!(decoded.diff.len(), diff_len);
    assert!(decoded.diff.iter().all(|&b| b == 0));
    assert!(bytes <= bound(&wire), "{} B for {} B", bytes, wire.len());
    assert!(bytes < 2 * diff_len, "the decoded buffer is the diff");
}

#[test]
fn noise_behind_the_tag_stays_in_proportion() {
    for seed in 1..200u64 {
        let mut wire = noise(seed, 1 + (seed as usize * 37) % 300);
        wire[0] = 0;
        let (bytes, _) = bytes_to_decode(&wire);
        assert!(
            bytes <= bound(&wire),
            "seed {seed}: {bytes} B for {} B",
            wire.len()
        );
    }
}
