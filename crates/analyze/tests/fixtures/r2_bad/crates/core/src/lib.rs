//! R2 bad twin: literal indexes encode a fixed-size assumption that
//! panics out of bounds on a short slice.

pub fn head(xs: &[u64], pairs: &[(u64, [u64; 2])]) -> u64 {
    let first = xs[0];
    first + pairs[1].1[0]
}
