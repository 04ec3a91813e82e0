//! Token-bucket rate limiting used to emulate link capacities.
//!
//! An emulated 1 Gbps NIC is a shared bucket refilled at 125 MB/s: every
//! byte a connection moves first acquires tokens, sleeping when the bucket
//! runs dry. Buckets are shared per endpoint, so concurrent connections of
//! one node contend for its NIC exactly as real flows would.
//!
//! `acquire(n)` models store-and-forward serialisation: it returns only
//! once `n` bytes' worth of tokens have actually been consumed, even when
//! `n` far exceeds the burst size — a 1 MB message on a 1 MB/s link takes
//! one second, not one burst.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State {
    tokens: f64,
    last_refill: Instant,
}

/// A thread-safe token bucket.
#[derive(Debug)]
pub struct TokenBucket {
    /// Refill rate, bytes per second.
    rate: f64,
    /// Maximum burst, bytes.
    burst: f64,
    state: Mutex<State>,
}

impl TokenBucket {
    /// `rate` in bytes/s; `burst` is the bucket depth in bytes.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && burst > 0.0);
        Self {
            rate,
            burst,
            state: Mutex::new(State {
                tokens: burst,
                last_refill: Instant::now(),
            }),
        }
    }

    /// Bucket with a burst sized to ~4 ms of line rate (a small NIC queue).
    pub fn for_link(rate_bytes_per_sec: f64) -> Self {
        let burst = (rate_bytes_per_sec * 0.004).max(64.0 * 1024.0);
        Self::new(rate_bytes_per_sec, burst)
    }

    /// Refill rate in bytes/s.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn refill(&self, s: &mut State) {
        let now = Instant::now();
        let dt = now.duration_since(s.last_refill).as_secs_f64();
        s.tokens = (s.tokens + dt * self.rate).min(self.burst);
        s.last_refill = now;
    }

    /// Try to take `n` tokens (`n` must be at most the burst) without
    /// blocking. Returns the time to wait before retrying if the bucket is
    /// too empty (`None` means acquired).
    pub fn try_acquire(&self, n: f64) -> Option<Duration> {
        debug_assert!(n <= self.burst + 1e-9);
        let mut s = self.state.lock();
        self.refill(&mut s);
        if s.tokens >= n {
            s.tokens -= n;
            None
        } else {
            let deficit = n - s.tokens;
            Some(Duration::from_secs_f64(deficit / self.rate))
        }
    }

    /// Acquire `n` tokens, sleeping as needed. Blocks for the full
    /// serialisation time of `n` bytes: amounts above the burst are taken
    /// in burst-sized instalments.
    pub fn acquire(&self, n: f64) {
        let mut remaining = n;
        while remaining > 0.0 {
            let take = remaining.min(self.burst);
            loop {
                match self.try_acquire(take) {
                    None => break,
                    Some(wait) => std::thread::sleep(wait.min(Duration::from_millis(50))),
                }
            }
            remaining -= take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_free_then_rate_limits() {
        let b = TokenBucket::new(1e6, 1e4); // 1 MB/s, 10 KB burst
        let t0 = Instant::now();
        b.acquire(1e4); // burst: immediate
        assert!(t0.elapsed() < Duration::from_millis(5));
        let t1 = Instant::now();
        b.acquire(2e4); // needs 20 KB of refill at 1 MB/s => >= ~20 ms
        assert!(
            t1.elapsed() >= Duration::from_millis(15),
            "elapsed {:?}",
            t1.elapsed()
        );
    }

    #[test]
    fn sustained_rate_is_respected() {
        let rate = 10e6; // 10 MB/s
        let b = TokenBucket::new(rate, 1e4);
        let total = 1e6; // 1 MB in 10 KB chunks
        let t0 = Instant::now();
        let mut sent = 0.0;
        while sent < total {
            b.acquire(1e4);
            sent += 1e4;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let expected = total / rate;
        assert!(
            elapsed >= 0.7 * expected && elapsed < 5.0 * expected,
            "elapsed {elapsed}, expected ~{expected}"
        );
    }

    #[test]
    fn oversized_acquire_blocks_for_full_serialisation() {
        let b = TokenBucket::new(1e6, 1e3); // 1 MB/s, 1 KB burst
        b.acquire(1e3); // drain the burst
        let t0 = Instant::now();
        // 50 KB at 1 MB/s: the call itself must take ~50 ms.
        b.acquire(50e3);
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(40),
            "oversized acquire returned after only {elapsed:?}"
        );
    }

    #[test]
    fn concurrent_acquirers_share_the_rate() {
        use std::sync::Arc;
        let b = Arc::new(TokenBucket::new(20e6, 1e4));
        let t0 = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "test contention threads; the bucket, not a scope, is under test"
        )]
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || {
                    let mut sent = 0.0;
                    while sent < 250e3 {
                        b.acquire(1e4);
                        sent += 1e4;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 x 250 KB = 1 MB at 20 MB/s ~ 50 ms.
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed > 0.03, "elapsed {elapsed}");
    }
}
