//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Provides a streaming hasher ([`Sha256`]) and one-shot helpers
//! ([`sha256`], [`double_sha256`], [`sha256_concat`]), validated against
//! the FIPS 180-4 / NIST test vectors in the unit tests.
//!
//! The compression function has two kernels behind one private
//! `compress`, chosen at run time. `compress` is generic over a lane
//! count `N`: it runs `N` independent states, each over its own
//! blocks.
//!
//! * On x86-64 CPUs with the SHA extensions (`sha`, with SSSE3 and
//!   SSE4.1), a kernel built on the `sha256rnds2`/`sha256msg1`/
//!   `sha256msg2` instructions from `std::arch`. It is a safe
//!   `#[target_feature]` function: words enter and leave its vectors by
//!   value, with no pointer loads. With two lanes it interleaves their
//!   rounds, so one lane's `sha256rnds2` latency hides behind the
//!   other's.
//! * Everywhere else, the portable kernel in plain Rust, which
//!   compresses each lane in turn. Tests also use it as the reference
//!   the SHA-NI kernel must match.
//!
//! `is_x86_feature_detected!` picks the kernel on each call; std caches
//! the CPU query. Calling a `#[target_feature]` function is `unsafe`
//! only because the CPU must have those features, so that call, right
//! after the detection, is the one `unsafe` block in the workspace, for
//! every lane count. Both kernels compute the same function, so every
//! digest is the same on every host.
//!
//! The streaming hasher uses one lane. Messages of a fixed shape that
//! fit one block (the WOTS chain step and secret start) skip the
//! streaming buffer: the caller fills pre-padded blocks and one
//! crate-private call, `sha256_padded_blocks`, compresses one or two
//! of them through the same `compress`, one lane each.
//!
//! Blockchains conventionally use the *double* hash
//! `SHA-256(SHA-256(x))` for block and transaction identifiers; the DAG
//! side uses the single hash. Both are exposed here so each ledger can
//! match its reference implementation.

use crate::digest::Digest;

/// SHA-256 round constants: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 prime numbers (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use dlt_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest.to_hex(),
///     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes processed so far (excluding what is
    /// buffered).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        // Fill a partially-filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(std::array::from_mut(&mut self.state), [&self.buf]);
                self.len += 64;
                self.buf_len = 0;
            }
        }
        // Process whole blocks directly from the input.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress(std::array::from_mut(&mut self.state), [blocks]);
            self.len += blocks.len() as u64;
        }
        // Buffer the tail.
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes the hash computation and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let total_bits = (self.len + self.buf_len as u64).wrapping_mul(8);
        // The buffered tail, the 0x80 terminator, zeros until the length
        // is 56 mod 64, then the 64-bit big-endian bit length: one block
        // when the tail leaves room for the 9 bytes, else two.
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&total_bits.to_be_bytes());
        compress(std::array::from_mut(&mut self.state), [&pad[..end]]);
        digest_of(&self.state)
    }
}

/// The big-endian bytes of a final hash state.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest::from_bytes(out)
}

/// The one padded block of a `len`-byte message (`len` ≤ 55), message
/// bytes still zero: the caller writes them into `..len`, then hashes
/// the block with [`sha256_padded_blocks`].
pub(crate) fn padded_block(len: usize) -> [u8; 64] {
    debug_assert!(len <= 55, "{len} bytes do not fit one padded block");
    let mut block = [0u8; 64];
    block[len] = 0x80;
    block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    block
}

/// SHA-256 of each of `N` messages that fit one block, given those
/// blocks already padded (see [`padded_block`]): one compression from
/// `H0` per message on the same kernels as [`Sha256`], with no
/// buffering and no padding pass. The `N` compressions run as `N` lanes
/// of one kernel call.
pub(crate) fn sha256_padded_blocks<const N: usize>(blocks: &[[u8; 64]; N]) -> [Digest; N] {
    let mut states = [H0; N];
    compress(&mut states, blocks.each_ref().map(|block| block.as_slice()));
    states.map(|state| digest_of(&state))
}

/// Runs the compression function over each 64-byte block of
/// `blocks[l]` into `states[l]`, for each of the `N` lanes (every
/// lane's length the same multiple of 64), on the SHA-NI kernel when
/// the CPU has the SHA extensions and on the portable kernel otherwise.
fn compress<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    debug_assert!(
        blocks
            .iter()
            .all(|b| b.len() % 64 == 0 && b.len() == blocks[0].len()),
        "whole blocks only, the same count in every lane"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `compress_shani` is safe code whose only requirement
        // is that the CPU supports the features it enables: SHA,
        // SSSE3 and SSE4.1 were detected just above, and SSE2 is part
        // of the x86-64 baseline.
        #[allow(unsafe_code)]
        unsafe {
            shani::compress_shani(states, blocks)
        };
        return;
    }
    for (state, blocks) in states.iter_mut().zip(blocks) {
        compress_portable(state, blocks);
    }
}

/// The portable compression kernel: FIPS 180-4 §6.2.2, one block at a
/// time. It runs on every host without the SHA extensions, and tests
/// use it as the reference for the SHA-NI kernel.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
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

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The SHA-NI compression kernel (x86-64 SHA extensions).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32,
    };

    /// Four consecutive 32-bit words as one vector, first word in lane 0.
    #[target_feature(enable = "sse2")]
    fn words(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// The same function as [`super::compress_portable`], on each of
    /// `N` lanes. `sha256rnds2` runs two rounds on a state split as
    /// (A, B, E, F) and (C, D, G, H); `sha256msg1`/`sha256msg2` extend
    /// the message schedule four words at a time. Each group of four
    /// rounds is issued for every lane before the next group, so the
    /// lanes' dependency chains overlap in the pipeline.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_shani<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
        let mut abef = [_mm_setzero_si128(); N];
        let mut cdgh = [_mm_setzero_si128(); N];
        for lane in 0..N {
            let [a, b, c, d, e, f, g, h] = states[lane].map(|x| x as i32);
            abef[lane] = _mm_set_epi32(a, b, e, f);
            cdgh[lane] = _mm_set_epi32(c, d, g, h);
        }

        for offset in (0..blocks[0].len()).step_by(64) {
            // Each lane's W[t..t + 16] as four vectors, W[t] first.
            let mut w = [[_mm_setzero_si128(); 4]; N];
            for lane in 0..N {
                let block = &blocks[lane][offset..offset + 64];
                for (group, bytes) in w[lane].iter_mut().zip(block.chunks_exact(16)) {
                    let mut be = [0u32; 4];
                    for (word, chunk) in be.iter_mut().zip(bytes.chunks_exact(4)) {
                        *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                    }
                    *group = words(be);
                }
            }
            let (abef_in, cdgh_in) = (abef, cdgh);

            for (i, k) in K.chunks_exact(4).enumerate() {
                let k = words([k[0], k[1], k[2], k[3]]);
                for lane in 0..N {
                    let [w0, w1, w2, w3] = w[lane];
                    let wk = _mm_add_epi32(w0, k);
                    // Each double-round returns the new (A, B, E, F); the
                    // (A, B, E, F) it was given is the new (C, D, G, H).
                    cdgh[lane] = _mm_sha256rnds2_epu32(cdgh[lane], abef[lane], wk);
                    abef[lane] = _mm_sha256rnds2_epu32(
                        abef[lane],
                        cdgh[lane],
                        _mm_shuffle_epi32::<0x0E>(wk),
                    );
                    // W[t + 16..t + 20] from the sixteen before: msg1 adds
                    // σ0(W[t+1]) to W[t], the alignr picks W[t+9], and
                    // msg2 adds σ1(W[t+14]). The last four groups need no
                    // more words and only shift.
                    let next = if i < 12 {
                        let t = _mm_add_epi32(
                            _mm_sha256msg1_epu32(w0, w1),
                            _mm_alignr_epi8::<4>(w3, w2),
                        );
                        _mm_sha256msg2_epu32(t, w3)
                    } else {
                        w0
                    };
                    w[lane] = [w1, w2, w3, next];
                }
            }

            for lane in 0..N {
                abef[lane] = _mm_add_epi32(abef[lane], abef_in[lane]);
                cdgh[lane] = _mm_add_epi32(cdgh[lane], cdgh_in[lane]);
            }
        }

        for lane in 0..N {
            let (abef, cdgh) = (abef[lane], cdgh[lane]);
            states[lane] = [
                _mm_extract_epi32::<3>(abef),
                _mm_extract_epi32::<2>(abef),
                _mm_extract_epi32::<3>(cdgh),
                _mm_extract_epi32::<2>(cdgh),
                _mm_extract_epi32::<1>(abef),
                _mm_extract_epi32::<0>(abef),
                _mm_extract_epi32::<1>(cdgh),
                _mm_extract_epi32::<0>(cdgh),
            ]
            .map(|x| x as u32);
        }
    }
}

/// Computes `SHA-256(data)` in one shot.
///
/// # Example
///
/// ```
/// use dlt_crypto::sha256::sha256;
/// assert_eq!(
///     sha256(b"abc").to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes the blockchain-conventional double hash `SHA-256(SHA-256(data))`.
pub fn double_sha256(data: &[u8]) -> Digest {
    sha256(sha256(data).as_bytes())
}

/// Hashes the concatenation of two digests — the Merkle-tree parent rule.
pub fn sha256_concat(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // FIPS 180-4 test vector for a 448-bit message (forces padding
        // into a second block).
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// SHA-256 of `data` with the padding built independently of
    /// `finalize` and every block run on the portable kernel.
    fn portable_reference(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        compress_portable(&mut state, &msg);
        digest_of(&state)
    }

    #[test]
    fn kernels_agree() {
        // On a host with the SHA extensions `compress` runs the SHA-NI
        // kernel, elsewhere the portable one; either way it must match
        // the portable kernel on one call over many blocks.
        for blocks in 1..=40usize {
            let data: Vec<u8> = (0..blocks * 64).map(|i| (i * 131 + blocks) as u8).collect();
            let mut portable = H0;
            compress_portable(&mut portable, &data);
            let mut dispatched = [H0];
            compress(&mut dispatched, [&data]);
            assert_eq!(dispatched, [portable], "{blocks} blocks");
        }
    }

    dlt_testkit::prop! {
        /// Two lanes through the dispatched kernel (interleaved on
        /// SHA-NI hosts) against each lane's state and blocks run alone
        /// on the portable kernel: random start states, one to three
        /// random blocks per lane.
        fn two_lanes_match_two_portable_compressions(g, cases = 128) {
            let blocks = g.usize_in(1, 4);
            let mut state = || std::array::from_fn::<u32, 8, _>(|_| g.any_u64() as u32);
            let states = [state(), state()];
            let data = [g.bytes_in(64 * blocks, 64 * blocks + 1), g.bytes_in(64 * blocks, 64 * blocks + 1)];
            let mut lanes = states;
            compress(&mut lanes, [&data[0], &data[1]]);
            for lane in 0..2 {
                let mut alone = states[lane];
                compress_portable(&mut alone, &data[lane]);
                assert_eq!(lanes[lane], alone, "lane {lane} of {blocks}-block lanes");
            }
        }
    }

    #[test]
    fn padded_blocks_in_two_lanes_match_one_lane() {
        let data: Vec<u8> = (0u8..110).map(|i| i.wrapping_mul(73) ^ 0xc3).collect();
        let block = |bytes: &[u8]| {
            let mut block = padded_block(bytes.len());
            block[..bytes.len()].copy_from_slice(bytes);
            block
        };
        for len in 0..=55 {
            let pair = [block(&data[..len]), block(&data[55..55 + len])];
            let [first] = sha256_padded_blocks(&[pair[0]]);
            let [second] = sha256_padded_blocks(&[pair[1]]);
            assert_eq!(sha256_padded_blocks(&pair), [first, second], "len {len}");
        }
    }

    #[test]
    fn padded_block_matches_portable_reference() {
        // Every message length that fits one block, through the
        // dispatched kernel, against padding built independently and
        // run on the portable kernel.
        let data: Vec<u8> = (0u8..56).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=55 {
            let mut block = padded_block(len);
            block[..len].copy_from_slice(&data[..len]);
            let expect = portable_reference(&data[..len]);
            assert_eq!(sha256_padded_blocks(&[block]), [expect], "len {len}");
            assert_eq!(sha256(&data[..len]), expect, "streaming, len {len}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        // Every length up to 300 (both padding branches, up to five
        // whole blocks), split at every point, against the portable
        // kernel.
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        for len in 0..=data.len() {
            let data = &data[..len];
            let expect = portable_reference(data);
            assert_eq!(sha256(data), expect, "one-shot, len {len}");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expect, "len {len}, split at {split}");
            }
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn double_hash_is_hash_of_hash() {
        let d = double_sha256(b"block");
        assert_eq!(d, sha256(sha256(b"block").as_bytes()));
    }

    #[test]
    fn concat_matches_manual() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        let mut buf = Vec::new();
        buf.extend_from_slice(a.as_bytes());
        buf.extend_from_slice(b.as_bytes());
        assert_eq!(sha256_concat(&a, &b), sha256(&buf));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Known-answer computation via streaming consistency: lengths
        // 55, 56, 57, 63, 64, 65 hit every padding branch.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let one = sha256(&data);
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }
}
