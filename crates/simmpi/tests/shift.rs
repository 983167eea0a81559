//! The neighbour shift and the block partition: the two primitives every
//! slab-decomposed proxy builds its halo exchange from.

use jubench_cluster::Machine;
use jubench_simmpi::{block_owner, block_range, World};

/// One rank per node, so a world of `p` nodes is a ring of `p` ranks.
fn ring(p: u32) -> World {
    World::per_node(Machine::juwels_booster().partition(p))
}

/// The buffers rank `r` offers its right and left neighbours.
fn high(r: u32) -> Vec<f64> {
    vec![r as f64, 0.5, r as f64]
}
fn low(r: u32) -> Vec<f64> {
    vec![-(r as f64), -0.5]
}

#[test]
fn a_shift_pair_delivers_each_neighbours_buffer() {
    for p in [1, 2, 3, 5] {
        let results = ring(p).run(|comm| {
            let (r, n) = (comm.rank(), comm.size());
            let (right, left) = ((r + 1) % n, (r + n - 1) % n);
            let from_left = comm.shift_f64(right, left, high(r)).unwrap();
            let from_right = comm.shift_f64(left, right, low(r)).unwrap();
            (from_left, from_right, comm.tally().messages)
        });
        assert_eq!(results.len(), p as usize);
        for res in &results {
            let r = res.rank;
            let (from_left, from_right, traffic) = &res.value;
            // At p = 2 both neighbours are the one peer: the two shifts
            // take its two messages in the order it sent them.
            assert_eq!(*from_left, high((r + p - 1) % p), "p = {p}, rank {r}");
            assert_eq!(*from_right, low((r + 1) % p), "p = {p}, rank {r}");
            let msgs = if p == 1 { 0 } else { 2 };
            assert_eq!((traffic.msgs_send, traffic.msgs_recv), (msgs, msgs));
            let bytes = if p == 1 { 0 } else { 5 * 8 };
            assert_eq!((traffic.bytes_send, traffic.bytes_recv), (bytes, bytes));
        }
    }
}

#[test]
fn only_a_rank_that_is_both_ends_keeps_its_buffer() {
    // Rank 0 sends to itself while receiving from rank 1, then receives
    // its own message while sending to rank 1: neither shift may skip
    // the wire just because one end is this rank.
    let results = ring(2).run(|comm| {
        if comm.rank() == 0 {
            let got = comm.shift_f64(0, 1, vec![1.0]).unwrap();
            assert_eq!(got, [2.0], "a shift to itself received from rank 1");
            let got = comm.shift_f64(1, 0, vec![3.0]).unwrap();
            assert_eq!(got, [1.0], "a shift from itself received its own message");
        } else {
            let got = comm.shift_f64(0, 0, vec![2.0]).unwrap();
            assert_eq!(got, [3.0]);
        }
        comm.tally().messages.msgs_recv
    });
    assert_eq!(results[0].value, 2);
    assert_eq!(results[1].value, 1);
}

#[test]
fn blocks_tile_the_range_and_the_owner_inverts_them() {
    for n in 1..=64 {
        for parts in 1..=n {
            let mut end = 0;
            for i in 0..parts {
                let block = block_range(n, parts, i);
                assert_eq!(block.start, end, "n = {n}, parts = {parts}, block {i}");
                let len = block.len();
                assert!(len == n / parts || len == n / parts + 1);
                assert_eq!(len > n / parts, i < n % parts, "longer blocks come first");
                for index in block.clone() {
                    assert_eq!(block_owner(n, parts, index), i, "n = {n}, parts = {parts}");
                }
                end = block.end;
            }
            assert_eq!(end, n);
        }
    }
}
