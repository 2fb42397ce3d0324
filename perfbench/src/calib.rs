//! A fixed reference computation that measures how fast the host runs
//! at the moment.
//!
//! The benchmark runs on shared machines whose speed drifts by a third
//! or more over tens of minutes, for causes outside the process (other
//! tenants on the same cores and caches). Host CPU time tracks wall time
//! there, so it cannot separate that drift from the program's own cost.
//! This work is benchmark code only: no change to the program can speed
//! it up, so scaling a host time by it removes the drift and keeps every
//! change the program makes. It runs rounds shaped like SHA-256
//! compression (32-bit adds, rotates and logic on a 64-word schedule),
//! the work that dominates every workload's set-up and most of its run.
//! It runs in a process of its own, so that it does not count in a
//! workload's `peak_rss_mb`.

use std::hint::black_box;
use std::time::Instant;

/// 64-byte blocks compressed per call.
const BLOCKS: usize = 100_000;

/// Host seconds the reference work takes now.
pub fn seconds() -> f64 {
    let start = Instant::now();
    black_box(work(black_box(BLOCKS)));
    start.elapsed().as_secs_f64()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn work(blocks: usize) -> u32 {
    let mut seed = 0x5eed_u64;
    let round_keys: [u32; 64] = std::array::from_fn(|_| {
        seed = splitmix(seed);
        seed as u32
    });
    let mut state: [u32; 8] = std::array::from_fn(|i| round_keys[i] ^ 0x6a09_e667);
    for block in 0..blocks {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = state[i % 8] ^ (block as u32).wrapping_mul(i as u32 + 1);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(round_keys[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
    state[0]
}
