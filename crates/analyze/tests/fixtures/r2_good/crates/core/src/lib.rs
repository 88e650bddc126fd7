//! R2 good twin: fallible reads return options, fixed-size values are
//! destructured, a vetted index carries a recorded justification, and
//! test-only indexing is exempt.

pub fn head(xs: &[u64], pairs: &[(u64, [u64; 2])]) -> Option<u64> {
    let first = xs.first().copied()?;
    let (_, [lo, _]) = pairs.get(1)?;
    Some(first + lo)
}

/// Loop-style indexing by a computed slot is outside R2's reach: the
/// index is derived from the collection's own length.
pub fn sum_every_other(xs: &[u64]) -> u64 {
    (0..xs.len()).step_by(2).map(|i| xs[i]).sum()
}

/// A table whose length is fixed at construction: the allow records
/// why the literal index cannot miss.
pub struct Ports {
    busy: Vec<bool>,
}

impl Ports {
    pub fn new() -> Ports {
        Ports {
            busy: vec![false; 4],
        }
    }

    pub fn load_port_busy(&self) -> bool {
        self.busy[0] // vpir: allow(panic, the constructor always allocates four ports)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn indexing_here_is_fine() {
        let xs = [1u64, 2];
        assert_eq!(xs[0], 1);
        assert_eq!(super::head(&xs, &[(0, [3, 4]), (0, [5, 6])]), Some(6));
    }
}
