//! Updates `hits`, but nothing touches `dead`.

use crate::stats::RunStats;

pub fn tick(stats: &mut RunStats) {
    stats.hits += 1;
}
