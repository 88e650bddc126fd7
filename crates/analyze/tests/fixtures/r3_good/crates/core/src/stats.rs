//! R3 good twin: every field of the counter table is updated.

vpir_stats::counters! {
    #[derive(Default)]
    pub struct RunStats {
        pub hits: u64,
        pub misses: u64,
    }
}
