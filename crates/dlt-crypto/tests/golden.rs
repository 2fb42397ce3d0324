//! Golden values pinned across the layers built on SHA-256: MSS keys,
//! WOTS keys, signatures and recovery, Merkle roots and the double hash of a transfer-sized
//! buffer. Every ledger id, signature and benchmark digest derives from
//! these functions, so a compression kernel that disagrees with FIPS
//! 180-4 on any input shape fails here instead of silently moving
//! experiment output.

use dlt_crypto::codec::Encode;
use dlt_crypto::merkle::MerkleTree;
use dlt_crypto::mss::MssKeypair;
use dlt_crypto::sha256::{double_sha256, sha256};
use dlt_crypto::wots::WotsKeypair;
use dlt_crypto::Digest;

#[test]
fn mss_public_digest_is_pinned() {
    assert_eq!(
        MssKeypair::from_seed([1; 32], 3).public_digest().to_hex(),
        "7a348b1b9a401bdf2b22aee9c0fae2bc48c0952fa722a661faad862d945cb883"
    );
}

#[test]
fn wots_recovered_public_is_pinned() {
    let msg = sha256(b"golden transfer");
    let sig = WotsKeypair::from_seed([2; 32]).sign(&msg);
    assert_eq!(
        sig.recover_public(&msg).to_hex(),
        "b698305c2a4a541e4ed3b44b2a0645addf160e796eba5bc5727988c8d988877a"
    );
}

#[test]
fn wots_public_digest_is_pinned() {
    // Key generation alone: every chain from its secret start to the
    // end, without going through MSS.
    assert_eq!(
        WotsKeypair::from_seed([3; 32]).public_digest().to_hex(),
        "8d5bac8e26dff13f377ce67e6eb080089e4a466338a7c52ddac0e661b1df664c"
    );
}

#[test]
fn wots_signatures_of_extreme_digests_are_pinned() {
    // All message digits 0 (every message chain's sign job is empty)
    // and all 15 (every message chain's verify job is empty).
    let kp = WotsKeypair::from_seed([3; 32]);
    let pinned = [
        (
            Digest::ZERO,
            "b484621a848df8d49763ccb757194a472249856ec4c0978910c6496625f01082",
        ),
        (
            Digest::MAX,
            "83faae715f01dd78cb82a1f6984b0952b9a79a1d82eda736402bbbf794b5ac2b",
        ),
    ];
    for (msg, hex) in pinned {
        let sig = kp.sign(&msg);
        assert_eq!(sha256(&sig.encode_to_vec()).to_hex(), hex, "{msg:?}");
        assert!(sig.verify(&msg, &kp.public_digest()), "{msg:?}");
    }
}

#[test]
fn merkle_root_is_pinned() {
    // Five leaves: the odd level exercises the duplicate-last rule.
    let leaves = (0..5)
        .map(|i| sha256(format!("tx{i}").as_bytes()))
        .collect();
    assert_eq!(
        MerkleTree::from_leaves(leaves).root().to_hex(),
        "16eef23ee6e2c2a9a42a944da0f25b543af1d834b60e594d60c417ed4e38cb1a"
    );
}

#[test]
fn double_sha256_of_transfer_sized_buffer_is_pinned() {
    // About the size of a WOTS-signed transfer (~2.3 KB), the input the
    // chain node hashes on every delivery.
    let buf: Vec<u8> = (0..2300u32).map(|i| (i * 31 % 251) as u8).collect();
    assert_eq!(
        double_sha256(&buf).to_hex(),
        "964ada6d767c1cc10865d7269530bc84fa60d68ce0c1d87c2f9e0f31398870dd"
    );
}

#[test]
fn mss_signatures_are_pinned() {
    // Leaf 0 and leaf 5 of one key: the WOTS chains under two leaf
    // seeds and two authentication paths.
    let mut kp = MssKeypair::from_seed([1; 32], 3);
    let sigs: Vec<_> = (0..6u32)
        .map(|i| {
            kp.sign(&sha256(format!("golden block {i}").as_bytes()))
                .expect("8 leaves")
        })
        .collect();
    assert_eq!(
        sha256(&sigs[0].encode_to_vec()).to_hex(),
        "cfaedf5192f4f571920bd068f027e1d303a605bded38d29a3b45b2e067a73f8b"
    );
    assert_eq!(
        sha256(&sigs[5].encode_to_vec()).to_hex(),
        "5a87a6a8b27f997e14ef564aab9afa4bdf04f6f4701c2b5d409e39b0a28d7762"
    );
}
