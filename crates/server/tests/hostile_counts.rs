//! A response whose element count claims more elements than its bytes
//! can hold is refused before the decoder reserves room for them.
//!
//! Every count on the wire is a `u32`, and the decoder reserves a vector
//! for the count it reads. A frame may be up to 16 MiB, so a count
//! bounded only by the bytes left (one element per byte) would let a
//! hostile server make a client reserve the in-memory size of a whole
//! frame's worth of answers — about 160 bytes each — before the payload
//! runs out. The bound must be the least encoded size of one element.
//! This test counts the bytes the decoding thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smoqe_server::proto::{op, Response};

struct CountingBytes;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`,
// which itself never allocates.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingBytes = CountingBytes;

/// Bytes the calling thread allocated while decoding `payload` as `op`,
/// and whether the decode failed.
fn decode_cost(op: u8, payload: &[u8]) -> (usize, bool) {
    let before = BYTES.with(Cell::get);
    let failed = Response::decode(op, payload).is_err();
    (BYTES.with(Cell::get) - before, failed)
}

/// `prefix`, then a `u32` count of `claimed`, then `body` zero bytes.
fn payload(prefix: usize, claimed: u32, body: usize) -> Vec<u8> {
    let mut out = vec![0; prefix];
    out.extend_from_slice(&claimed.to_le_bytes());
    out.resize(prefix + 4 + body, 0);
    out
}

#[test]
fn counts_past_what_the_bytes_can_hold_are_refused_before_reserving() {
    const BODY: usize = 100_000;
    // A batch of answers: the count leads the payload, and every byte
    // after it could be an answer if an answer could be one byte.
    let batch = payload(0, BODY as u32, BODY);
    // Stats: eighteen counters, then the tenant count.
    let stats = payload(18 * 8, BODY as u32, BODY);
    for (name, op, payload) in [
        ("BATCH_OK", op::BATCH_OK, batch),
        ("STATS_OK", op::STATS_OK, stats),
    ] {
        let (allocated, failed) = decode_cost(op, &payload);
        assert!(failed, "{name}: a count past the payload decodes");
        assert!(
            allocated <= 2 * payload.len(),
            "{name}: decoding {} bytes allocated {allocated} bytes",
            payload.len()
        );
    }
}
