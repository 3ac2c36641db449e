//! Shared experiment drivers for the figure-regeneration benches.
//!
//! Each `benches/figN_*.rs` target is a thin `main` that calls into this
//! library at publication size and prints the series and tables the
//! corresponding figure plots.  The experiment logic lives here so
//! integration tests can exercise it at reduced scale:
//! `tests/figures_golden.rs` runs fig7–fig11 and the §5.2 code-size study at
//! CI size and pins every figure metric exactly against
//! `tests/figures_golden.txt`.  Fig12 measures wall-clock latency, so its
//! tests assert invariants instead (see [`memcached`]).
//!
//! These harnesses reproduce the paper's figures and tables; they do not
//! time the runtime's hot paths.  Stopwatch loops over translate, pin/unpin,
//! `halloc`/`hfree`, barriers and the defragmentation phases live in the
//! repository's `benchmark/` package, which reports them per layer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod memcached;
pub mod redis;

/// Read an `f64` scale factor from the environment (used to shrink or enlarge
/// experiments without recompiling), defaulting to `default`.
pub fn env_scale(var: &str, default: f64) -> f64 {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Deterministic value bytes for a key, shared by the Redis and memcached
/// experiments so both stores hold the same payloads.
pub(crate) fn value_bytes(key: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for b in v.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    v
}
