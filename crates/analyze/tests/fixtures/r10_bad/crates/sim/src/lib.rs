//! R10 bad twin: two methods acquire the same pair of locks in
//! opposite orders — a classic ABBA deadlock. `promote` takes the
//! second lock inside a helper, so only the call graph sees the cycle.

use std::sync::Mutex;

pub struct Store {
    cache: Mutex<Vec<u64>>,
    pool: Mutex<Vec<u64>>,
}

impl Store {
    pub fn promote(&self) {
        let mut c = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = c.pop() {
            self.park(v);
        }
    }

    fn park(&self, v: u64) {
        let mut p = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        p.push(scrub(v));
    }

    pub fn demote(&self) {
        let mut p = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let mut c = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = p.pop() {
            c.push(v);
        }
    }
}

fn scrub(v: u64) -> u64 {
    v & !1
}
