//! The block partition every slab-decomposed code and every ring
//! collective shares: `n` items split over `parts` ranks in contiguous,
//! near-equal blocks, the first `n % parts` blocks one item longer.

use std::ops::Range;

/// Block `i` of `n` items split over `parts` near-equal blocks.
pub fn block_range(n: usize, parts: usize, i: usize) -> Range<usize> {
    let base = n / parts;
    let rem = n % parts;
    let start = i * base + i.min(rem);
    start..start + base + usize::from(i < rem)
}

/// The block of [`block_range`]`(n, parts, ·)` that holds item `index`
/// (`index < n`).
pub fn block_owner(n: usize, parts: usize, index: usize) -> usize {
    debug_assert!(index < n, "item {index} outside 0..{n}");
    let base = n / parts;
    let rem = n % parts;
    let wide = rem * (base + 1);
    if index < wide {
        index / (base + 1)
    } else {
        rem + (index - wide) / base
    }
}
