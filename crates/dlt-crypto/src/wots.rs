//! Winternitz one-time signatures (WOTS).
//!
//! WOTS trades signing/verification hashing for small signatures: with
//! the Winternitz parameter `w = 16` a signature is 67 × 32 B ≈ 2.1 KiB,
//! where revealing one preimage per digest bit would take 16 KiB.
//!
//! The message digest is split into 64 base-16 digits; a checksum of
//! `Σ (15 − dᵢ)` (three more digits) prevents an attacker from bumping a
//! digit upward. For each digit `d`, the signature releases the `d`-th
//! element of a hash chain; the verifier completes the chain to its end
//! and recomputes the public-key commitment.
//!
//! WOTS is the leaf scheme of the many-time [`mss`](crate::mss)
//! signatures used by account chains.
//!
//! The 67 chains of a key are independent, so key generation, signing
//! and verification hash them two at a time: secret starts in pairs,
//! then one lane runner (`run_chains`) that keeps two chain jobs in two
//! lanes of the SHA-256 kernel and hands a lane the next job as soon as
//! its own ends, so sign and verify chains of different lengths still
//! fill both lanes. Only the last job left runs alone. Every key and
//! signature is the same as hashing the chains one by one.

use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;

use crate::codec::{write_varint, Decode, DecodeError, Encode};
use crate::digest::Digest;
use crate::sha256::{padded_block, sha256_padded_blocks, Sha256};

/// Winternitz parameter: digits are base-16 (4 bits).
pub const W: u32 = 16;
/// Number of message digits (256 bits / 4 bits per digit).
pub const LEN_1: usize = 64;
/// Number of checksum digits (max checksum 64 × 15 = 960 < 16³).
pub const LEN_2: usize = 3;
/// Total number of hash chains in a key.
pub const LEN: usize = LEN_1 + LEN_2;

const DOM_SECRET: &[u8] = b"wots-secret";
const DOM_CHAIN: &[u8] = b"wots-chain";
const DOM_COMMIT: &[u8] = b"wots-public";

/// Byte offsets in the chain-step message `DOM_CHAIN ‖ chain index ‖
/// position ‖ value` (48 bytes, so one padded SHA-256 block).
const STEP_INDEX: usize = DOM_CHAIN.len();
const STEP_POSITION: usize = STEP_INDEX + 2;
const STEP_VALUE: usize = STEP_POSITION + 4;
const STEP_LEN: usize = STEP_VALUE + 32;

/// The padded block of the chain-`i` secret start: `DOM_SECRET ‖ seed ‖
/// chain` (45 bytes).
fn secret_block(seed: &[u8; 32], chain: u16) -> [u8; 64] {
    const SEED: usize = DOM_SECRET.len();
    const CHAIN: usize = SEED + 32;
    let mut block = padded_block(CHAIN + 2);
    block[..SEED].copy_from_slice(DOM_SECRET);
    block[SEED..CHAIN].copy_from_slice(seed);
    block[CHAIN..CHAIN + 2].copy_from_slice(&chain.to_be_bytes());
    block
}

/// Derives every chain's secret start value from a seed, two chains
/// per kernel call: SHA-256 of the [`secret_block`] of each.
fn secret_starts(seed: &[u8; 32]) -> [Digest; LEN] {
    let mut starts = [Digest::ZERO; LEN];
    for i in (0..LEN).step_by(2) {
        let chain = i as u16;
        if i + 1 < LEN {
            let pair = [secret_block(seed, chain), secret_block(seed, chain + 1)];
            starts[i..i + 2].copy_from_slice(&sha256_padded_blocks(&pair));
        } else {
            [starts[i]] = sha256_padded_blocks(&[secret_block(seed, chain)]);
        }
    }
    starts
}

/// The padded chain-step block of chain `chain_index`, position and
/// value still zero.
fn step_block(chain_index: u16) -> [u8; 64] {
    let mut block = padded_block(STEP_LEN);
    block[..STEP_INDEX].copy_from_slice(DOM_CHAIN);
    block[STEP_INDEX..STEP_POSITION].copy_from_slice(&chain_index.to_be_bytes());
    block
}

/// Writes a step's position and input value into its block.
fn set_step(block: &mut [u8; 64], position: u32, value: &Digest) {
    block[STEP_POSITION..STEP_VALUE].copy_from_slice(&position.to_be_bytes());
    block[STEP_VALUE..STEP_LEN].copy_from_slice(value.as_bytes());
}

/// Applies the chaining function from position `from` to position `to`.
///
/// Each step is domain-separated by chain index and position, which
/// prevents cross-chain value reuse. The step message is one padded
/// block; each step rewrites only its position and value bytes.
fn chain(mut value: Digest, chain_index: u16, from: u32, to: u32) -> Digest {
    debug_assert!(from <= to && to < W);
    let mut block = step_block(chain_index);
    for position in from..to {
        set_step(&mut block, position, &value);
        [value] = sha256_padded_blocks(&[block]);
    }
    value
}

/// A chain job in a lane of [`run_chains`]: the job's chain index and
/// the position its value has reached.
#[derive(Clone, Copy)]
struct Lane {
    job: usize,
    position: u32,
}

/// Runs job `(value, from, to)` of every chain `i` (the value at
/// position `from`, advanced to position `to`) and returns each chain's
/// value at `to`: the same as [`chain`] on each job, two steps per
/// kernel call.
///
/// Two lanes each hold one job. After every paired step, a lane whose
/// job reached `to` takes the next non-empty job, so both lanes stay
/// busy until the jobs run out; the last job left finishes alone.
fn run_chains(jobs: [(Digest, u32, u32); LEN]) -> [Digest; LEN] {
    let mut values = jobs.map(|(value, _, _)| value);
    let mut pending = (0..LEN).filter(|&i| jobs[i].1 < jobs[i].2);
    let mut blocks = [[0u8; 64]; 2];
    let mut lanes: [Option<Lane>; 2] = [None; 2];
    loop {
        for (lane, block) in lanes.iter_mut().zip(&mut blocks) {
            if lane.is_none() {
                if let Some(job) = pending.next() {
                    *block = step_block(job as u16);
                    *lane = Some(Lane {
                        job,
                        position: jobs[job].1,
                    });
                }
            }
        }
        let [Some(a), Some(b)] = lanes else {
            // The jobs ran out: at most one lane still holds one.
            if let Some(Lane { job, position }) = lanes.into_iter().flatten().next() {
                values[job] = chain(values[job], job as u16, position, jobs[job].2);
            }
            return values;
        };
        set_step(&mut blocks[0], a.position, &values[a.job]);
        set_step(&mut blocks[1], b.position, &values[b.job]);
        [values[a.job], values[b.job]] = sha256_padded_blocks(&blocks);
        for lane in &mut lanes {
            if let Some(Lane { job, position }) = lane {
                *position += 1;
                if *position == jobs[*job].2 {
                    *lane = None;
                }
            }
        }
    }
}

/// Splits a digest into `LEN_1` base-16 digits plus `LEN_2` checksum
/// digits.
fn digits_with_checksum(msg: &Digest) -> [u8; LEN] {
    let mut digits = [0u8; LEN];
    for (i, byte) in msg.as_bytes().iter().enumerate() {
        digits[i * 2] = byte >> 4;
        digits[i * 2 + 1] = byte & 0x0f;
    }
    let checksum: u32 = digits[..LEN_1]
        .iter()
        .map(|&d| (W - 1) - u32::from(d))
        .sum();
    // Encode the checksum in LEN_2 base-16 digits, most significant
    // first.
    digits[LEN_1] = ((checksum >> 8) & 0x0f) as u8;
    digits[LEN_1 + 1] = ((checksum >> 4) & 0x0f) as u8;
    digits[LEN_1 + 2] = (checksum & 0x0f) as u8;
    digits
}

/// Commits to the full set of chain-end public values with one digest.
fn commit(chain_ends: &[Digest; LEN]) -> Digest {
    let mut h = Sha256::new();
    h.update(DOM_COMMIT);
    for end in chain_ends {
        h.update(end.as_bytes());
    }
    h.finalize()
}

/// A WOTS one-time keypair.
///
/// # Example
///
/// ```
/// use dlt_crypto::wots::WotsKeypair;
/// use dlt_crypto::sha256::sha256;
///
/// let kp = WotsKeypair::from_seed([3u8; 32]);
/// let msg = sha256(b"settle channel 7");
/// let sig = kp.sign(&msg);
/// assert!(sig.verify(&msg, &kp.public_digest()));
/// ```
#[derive(Debug, Clone)]
pub struct WotsKeypair {
    seed: [u8; 32],
    public_digest: Digest,
}

impl WotsKeypair {
    /// Derives a keypair deterministically from a seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let ends = run_chains(secret_starts(&seed).map(|start| (start, 0, W - 1)));
        WotsKeypair {
            seed,
            public_digest: commit(&ends),
        }
    }

    /// Generates a keypair from an RNG.
    pub fn generate<R: dlt_testkit::rng::RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(seed)
    }

    /// The compact commitment to the public key.
    pub fn public_digest(&self) -> Digest {
        self.public_digest
    }

    /// Signs a message digest.
    ///
    /// As with all one-time schemes, signing two different messages with
    /// the same key compromises it.
    pub fn sign(&self, msg: &Digest) -> WotsSignature {
        sign_from_seed(&self.seed, msg)
    }
}

/// Signs a message digest under the key derived from `seed`, without
/// deriving its public key: the chains only run up to each digit.
pub(crate) fn sign_from_seed(seed: &[u8; 32], msg: &Digest) -> WotsSignature {
    let digits = digits_with_checksum(msg);
    let starts = secret_starts(seed);
    let parts = run_chains(std::array::from_fn(|i| {
        (starts[i], 0, u32::from(digits[i]))
    }));
    WotsSignature::new(Arc::new(parts))
}

/// A WOTS signature: one intermediate chain value per digit (~2.1 KiB).
///
/// Its [`LEN`] parts sit behind one shared pointer and never change
/// after construction: a clone shares the parts allocation with its
/// original, so every holder of a copy (each node's ledger, a mempool,
/// a block) keeps one pointer, not ~2.1 KiB. A signature keeps the
/// result of its first
/// [recovery](WotsSignature::recover_public): the message and the
/// public-key commitment it gave. A later recovery under the same
/// message returns that commitment instead of running the chains
/// again, and clones share it, so every holder of a copy shares one
/// check. A recovery under any other message runs in full.
/// `==` and the codec look only at the parts, and a decoded signature
/// starts with fresh parts and no memo.
#[derive(Clone)]
pub struct WotsSignature {
    parts: Arc<[Digest; LEN]>,
    /// `(message, recovered commitment)` of the first recovery, behind
    /// a pointer so that an unverified signature pays one word, and
    /// shared so that clones of a verified one allocate nothing.
    recovered: OnceCell<Arc<(Digest, Digest)>>,
}

impl WotsSignature {
    fn new(parts: Arc<[Digest; LEN]>) -> Self {
        WotsSignature {
            parts,
            recovered: OnceCell::new(),
        }
    }

    /// Verifies against a message digest and public-key commitment by
    /// completing every chain and recomputing the commitment.
    pub fn verify(&self, msg: &Digest, public_digest: &Digest) -> bool {
        self.recover_public(msg) == *public_digest
    }

    /// Recomputes the public-key commitment this signature corresponds
    /// to for `msg`. Exposed for the [`mss`](crate::mss) scheme, whose
    /// verification continues up a Merkle tree from this value.
    ///
    /// The first call records its message and result; a later call
    /// under the same message returns the recorded result, which is
    /// what a fresh recovery of the same parts would give.
    pub fn recover_public(&self, msg: &Digest) -> Digest {
        let (first_msg, recovered) = **self
            .recovered
            .get_or_init(|| Arc::new((*msg, self.complete_chains(msg))));
        if first_msg == *msg {
            recovered
        } else {
            self.complete_chains(msg)
        }
    }

    /// Completes every chain from its digit for `msg` and commits to
    /// the chain ends.
    fn complete_chains(&self, msg: &Digest) -> Digest {
        let digits = digits_with_checksum(msg);
        let ends = run_chains(std::array::from_fn(|i| {
            (self.parts[i], u32::from(digits[i]), W - 1)
        }));
        commit(&ends)
    }

    /// Encoded size in bytes (for ledger-size accounting).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl PartialEq for WotsSignature {
    fn eq(&self, other: &Self) -> bool {
        self.parts == other.parts
    }
}

impl Eq for WotsSignature {}

impl fmt::Debug for WotsSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WotsSignature")
            .field("parts", &self.parts)
            .finish()
    }
}

/// Encoded as a `Vec<Digest>` of `LEN` parts.
impl Encode for WotsSignature {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(LEN as u64, out);
        for part in self.parts.iter() {
            part.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        LEN.encoded_len() + LEN * 32
    }
}

impl Decode for WotsSignature {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let parts: [Digest; LEN] = Vec::<Digest>::decode(input)?
            .try_into()
            .map_err(|_| DecodeError::Invalid("wots signature arity"))?;
        Ok(WotsSignature::new(Arc::new(parts)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_exact;
    use crate::sha256::sha256;
    use dlt_testkit::rng::{RngCore, Xoshiro256StarStar};

    /// The chain step and the secret start as the streaming hasher
    /// computes them, field by field.
    fn streaming_step(value: &Digest, chain_index: u16, position: u32) -> Digest {
        let mut h = Sha256::new();
        h.update(DOM_CHAIN);
        h.update(&chain_index.to_be_bytes());
        h.update(&position.to_be_bytes());
        h.update(value.as_bytes());
        h.finalize()
    }

    fn streaming_secret_start(seed: &[u8; 32], chain_index: u16) -> Digest {
        let mut h = Sha256::new();
        h.update(DOM_SECRET);
        h.update(seed);
        h.update(&chain_index.to_be_bytes());
        h.finalize()
    }

    #[test]
    fn one_block_hashes_match_streaming() {
        let seed = [0x3cu8; 32];
        let starts = secret_starts(&seed);
        for i in 0..LEN as u16 {
            let start = starts[usize::from(i)];
            assert_eq!(start, streaming_secret_start(&seed, i), "chain {i}");
            let mut value = start;
            for position in 0..W - 1 {
                let step = streaming_step(&value, i, position);
                assert_eq!(
                    chain(value, i, position, position + 1),
                    step,
                    "chain {i}, position {position}"
                );
                value = step;
            }
            // A multi-step call reuses one block across steps.
            assert_eq!(chain(start, i, 0, W - 1), value, "chain {i}, full");
        }
    }

    /// `run_chains` against [`chain`] on each job alone, signing and
    /// verifying for `digits`: sign jobs run each chain from its start up
    /// to the digit, verify jobs from the digit to the end.
    fn assert_runner_matches_per_chain(digits: [u8; LEN], label: &str) {
        let starts = secret_starts(&[0x5au8; 32]);
        let sign_jobs = std::array::from_fn(|i| (starts[i], 0, u32::from(digits[i])));
        let signed = run_chains(sign_jobs);
        let verify_jobs = std::array::from_fn(|i| (signed[i], u32::from(digits[i]), W - 1));
        let ends = run_chains(verify_jobs);
        for (stage, jobs, out) in [("sign", sign_jobs, signed), ("verify", verify_jobs, ends)] {
            for (i, (value, from, to)) in jobs.into_iter().enumerate() {
                let alone = chain(value, i as u16, from, to);
                assert_eq!(out[i], alone, "{label}: {stage} chain {i}");
            }
        }
    }

    #[test]
    fn lane_runner_matches_per_chain() {
        // All 0 and all 15 leave every sign or every verify job empty;
        // alternating 0/15 mixes empty and full jobs, so lanes refill at
        // different steps; with 67 chains one job always runs alone.
        assert_runner_matches_per_chain([0; LEN], "all 0");
        assert_runner_matches_per_chain([15; LEN], "all 15");
        assert_runner_matches_per_chain(
            std::array::from_fn(|i| if i % 2 == 0 { 0 } else { 15 }),
            "alternating 0/15",
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(14);
        for round in 0..8 {
            let digits = std::array::from_fn(|_| (rng.next_u64() % 16) as u8);
            assert_runner_matches_per_chain(digits, &format!("random round {round}"));
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = WotsKeypair::from_seed([1u8; 32]);
        let msg = sha256(b"message");
        assert!(kp.sign(&msg).verify(&msg, &kp.public_digest()));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = WotsKeypair::from_seed([2u8; 32]);
        let sig = kp.sign(&sha256(b"original"));
        assert!(!sig.verify(&sha256(b"forged"), &kp.public_digest()));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = WotsKeypair::from_seed([3u8; 32]);
        let kp2 = WotsKeypair::from_seed([4u8; 32]);
        let msg = sha256(b"message");
        assert!(!kp1.sign(&msg).verify(&msg, &kp2.public_digest()));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = WotsKeypair::from_seed([5u8; 32]);
        let msg = sha256(b"message");
        let mut sig = kp.sign(&msg);
        Arc::make_mut(&mut sig.parts)[30] = sha256(b"tamper");
        assert!(!sig.verify(&msg, &kp.public_digest()));
    }

    #[test]
    fn checksum_blocks_digit_increase() {
        // The classic WOTS attack without a checksum: advance a chain
        // value by hashing it once to sign a message whose digit is one
        // higher. The checksum digits must make that fail.
        let kp = WotsKeypair::from_seed([6u8; 32]);
        let msg = sha256(b"victim message");
        let sig = kp.sign(&msg);
        // Find another digest that differs in some digits; the forged
        // signature below simply replays the original parts.
        let other = sha256(b"attacker message");
        assert!(!sig.verify(&other, &kp.public_digest()));
    }

    #[test]
    fn digits_and_checksum_shape() {
        let msg = sha256(b"digits");
        let digits = digits_with_checksum(&msg);
        assert!(digits.iter().all(|&d| d < 16));
        let checksum: u32 = digits[..LEN_1].iter().map(|&d| 15 - u32::from(d)).sum();
        let encoded = (u32::from(digits[LEN_1]) << 8)
            | (u32::from(digits[LEN_1 + 1]) << 4)
            | u32::from(digits[LEN_1 + 2]);
        assert_eq!(checksum, encoded);
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        // Extreme digit patterns exercise chain endpoints (0 and w-1).
        let kp = WotsKeypair::from_seed([7u8; 32]);
        for msg in [Digest::ZERO, Digest::MAX] {
            let sig = kp.sign(&msg);
            assert!(sig.verify(&msg, &kp.public_digest()));
        }
    }

    #[test]
    fn deterministic_from_seed() {
        assert_eq!(
            WotsKeypair::from_seed([8u8; 32]).public_digest(),
            WotsKeypair::from_seed([8u8; 32]).public_digest()
        );
    }

    #[test]
    fn codec_round_trip() {
        let kp = WotsKeypair::from_seed([9u8; 32]);
        let msg = sha256(b"encode");
        let sig = kp.sign(&msg);
        let back: WotsSignature = decode_exact(&sig.encode_to_vec()).unwrap();
        assert_eq!(back, sig);
        assert!(back.verify(&msg, &kp.public_digest()));
    }

    #[test]
    fn decode_rejects_wrong_arity() {
        let bad = vec![Digest::ZERO; 5];
        assert!(decode_exact::<WotsSignature>(&bad.encode_to_vec()).is_err());
    }

    #[test]
    fn memo_follows_the_message() {
        let kp = WotsKeypair::from_seed([11u8; 32]);
        let (msg, other) = (sha256(b"right"), sha256(b"wrong"));
        let sig = kp.sign(&msg);
        assert!(sig.verify(&msg, &kp.public_digest()));
        assert!(!sig.verify(&other, &kp.public_digest()));
        assert!(sig.verify(&msg, &kp.public_digest()));
        assert!(!sig.verify(&msg, &WotsKeypair::from_seed([12u8; 32]).public_digest()));

        // Checked first under the wrong message, the memo holds that
        // message; the right one still recovers in full.
        let sig = kp.sign(&msg);
        assert!(!sig.verify(&other, &kp.public_digest()));
        assert!(sig.verify(&msg, &kp.public_digest()));
        assert!(!sig.verify(&other, &kp.public_digest()));
    }

    #[test]
    fn clones_keep_the_memo_and_decoding_drops_it() {
        let kp = WotsKeypair::from_seed([13u8; 32]);
        let msg = sha256(b"memo");
        let sig = kp.sign(&msg);
        assert!(sig.recovered.get().is_none());
        assert!(sig.verify(&msg, &kp.public_digest()));
        let memo = Some((msg, kp.public_digest()));
        assert_eq!(sig.recovered.get().map(|m| **m), memo);
        assert_eq!(sig.clone().recovered.get().map(|m| **m), memo);
        let decoded: WotsSignature = decode_exact(&sig.encode_to_vec()).unwrap();
        assert!(decoded.recovered.get().is_none());
    }

    #[test]
    fn verify_leaves_bytes_and_equality_unchanged() {
        let kp = WotsKeypair::from_seed([14u8; 32]);
        let msg = sha256(b"bytes");
        let sig = kp.sign(&msg);
        let unverified = sig.clone();
        let bytes = sig.encode_to_vec();
        assert!(sig.verify(&msg, &kp.public_digest()));
        assert_eq!(sig.encode_to_vec(), bytes);
        assert_eq!(sig, unverified);
        assert_eq!(unverified, sig);
        assert_eq!(decode_exact::<WotsSignature>(&bytes).unwrap(), sig);
        assert_eq!(format!("{sig:?}"), format!("{unverified:?}"));
    }

    #[test]
    fn clones_share_the_parts_and_decoding_does_not() {
        let kp = WotsKeypair::from_seed([15u8; 32]);
        let msg = sha256(b"shared");
        let sig = kp.sign(&msg);
        let clone = sig.clone();
        assert!(Arc::ptr_eq(&sig.parts, &clone.parts));
        let decoded: WotsSignature = decode_exact(&sig.encode_to_vec()).unwrap();
        assert!(!Arc::ptr_eq(&sig.parts, &decoded.parts));
        assert_eq!(Arc::strong_count(&sig.parts), 2);
        for copy in [&sig, &clone, &decoded] {
            assert_eq!(*copy, sig);
            assert!(copy.verify(&msg, &kp.public_digest()));
        }
    }

    /// A signature is two pointers: the shared parts and the memo.
    /// `chain-gossip` holds ~10k signature copies that are never
    /// verified. They are clones that share their parts, so each costs
    /// little more than this struct. With the memo inline (64 bytes or
    /// more), its `peak_rss_mb` rose 2.6%, against 0.35% for a memo
    /// behind a pointer (measured while each copy still owned its
    /// parts).
    #[test]
    fn signature_is_two_pointers() {
        assert_eq!(
            std::mem::size_of::<WotsSignature>(),
            2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn signature_is_under_3_kib() {
        let kp = WotsKeypair::from_seed([10u8; 32]);
        let sig = kp.sign(&sha256(b"size"));
        assert!(sig.size_bytes() < 3 * 1024, "size {}", sig.size_bytes());
    }
}
