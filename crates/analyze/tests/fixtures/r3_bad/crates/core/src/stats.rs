//! R3 bad twin: `dead` is declared in the counter table but never
//! updated.

vpir_stats::counters! {
    #[derive(Default)]
    pub struct RunStats {
        pub hits: u64,
        pub dead: u64,
    }
}
