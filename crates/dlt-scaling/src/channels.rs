//! Off-chain payment channels (paper §VI-A).
//!
//! "The solution revolves around creating an off chain channel to which
//! a prepaid amount is locked in for the lifetime of the channel. The
//! involved parties are able to run micro transactions at high volume
//! and speed, avoiding the transaction cap of the network. Any party
//! may choose to leave the channel, after which the final account
//! balances are recorded on chain and the channel is closed."
//!
//! A [`Channel`] locks two deposits and tracks a sequence of *signed
//! balance updates* — each update is co-signed by both parties over the
//! `(channel id, sequence, balances)` tuple. Closing is either
//! cooperative (both sign the final state) or *forced*: one party posts
//! its newest signed state, a challenge window opens, and the
//! counterparty may override with a higher-sequence state; posting a
//! stale state is the Lightning-style cheat and forfeits the cheater's
//! balance.
//!
//! [`ChannelNetwork`] connects channels into a graph and routes
//! multi-hop payments along capacity-sufficient paths (the
//! Lightning/Raiden network shape).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dlt_crypto::keys::{Address, Keypair, PublicKey, Signature};
use dlt_crypto::sha256::Sha256;
use dlt_crypto::Digest;

/// Channel identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u64);

/// Why a channel operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// Unknown channel id.
    UnknownChannel,
    /// The channel is not open.
    NotOpen,
    /// Balances don't sum to the channel capacity.
    BalanceMismatch,
    /// The update's sequence number is not newer than the current one.
    StaleSequence,
    /// A signature failed verification.
    BadSignature,
    /// Payment exceeds the payer's channel balance.
    InsufficientBalance,
    /// Not a party to this channel.
    NotAParty,
    /// The challenge window has already elapsed.
    ChallengeExpired,
    /// No forced close is pending.
    NoPendingClose,
    /// No route with sufficient capacity exists.
    NoRoute,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            ChannelError::UnknownChannel => "unknown channel",
            ChannelError::NotOpen => "channel is not open",
            ChannelError::BalanceMismatch => "balances do not preserve capacity",
            ChannelError::StaleSequence => "update sequence is stale",
            ChannelError::BadSignature => "invalid update signature",
            ChannelError::InsufficientBalance => "insufficient channel balance",
            ChannelError::NotAParty => "not a channel party",
            ChannelError::ChallengeExpired => "challenge window expired",
            ChannelError::NoPendingClose => "no forced close pending",
            ChannelError::NoRoute => "no route with sufficient capacity",
        };
        f.write_str(text)
    }
}

impl std::error::Error for ChannelError {}

/// Channel lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Live; updates accepted.
    Open,
    /// A forced close was posted at the given sequence; the challenge
    /// window is open until `deadline_micros`.
    Closing {
        /// Sequence of the posted state.
        posted_seq: u64,
        /// Who posted it.
        poster: Address,
        /// Challenge deadline (simulated µs).
        deadline_micros: u64,
    },
    /// Settled; final balances recorded on chain.
    Closed,
}

/// A co-signed balance state.
#[derive(Debug, Clone)]
pub struct ChannelUpdate {
    /// The channel.
    pub channel: ChannelId,
    /// Monotone update counter (0 is the opening state).
    pub seq: u64,
    /// Party A's balance after the update.
    pub balance_a: u64,
    /// Party B's balance after the update.
    pub balance_b: u64,
    /// Party A's signature over [`update_digest`].
    pub sig_a: Signature,
    /// Party B's signature over [`update_digest`].
    pub sig_b: Signature,
}

/// The message both parties sign for an update.
pub fn update_digest(channel: ChannelId, seq: u64, balance_a: u64, balance_b: u64) -> Digest {
    let mut h = Sha256::new();
    h.update(b"channel-update");
    h.update(&channel.0.to_be_bytes());
    h.update(&seq.to_be_bytes());
    h.update(&balance_a.to_be_bytes());
    h.update(&balance_b.to_be_bytes());
    h.finalize()
}

/// A bidirectional payment channel.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Identifier.
    pub id: ChannelId,
    /// First party.
    pub party_a: Address,
    /// Second party.
    pub party_b: Address,
    /// A's verification key.
    pub key_a: PublicKey,
    /// B's verification key.
    pub key_b: PublicKey,
    /// Current (latest accepted) balances.
    pub balance_a: u64,
    /// Current balance of B.
    pub balance_b: u64,
    /// Latest accepted sequence.
    pub seq: u64,
    /// Lifecycle state.
    pub state: ChannelState,
    /// Count of accepted off-chain updates (the §VI-A payoff metric).
    pub update_count: u64,
}

impl Channel {
    /// The locked capacity (constant for the channel's lifetime).
    pub fn capacity(&self) -> u64 {
        // Capacity is fixed at open; balances always sum to it.
        self.balance_a + self.balance_b
    }

    /// The balance owned by `party`, if a party.
    pub fn balance_of(&self, party: &Address) -> Option<u64> {
        if *party == self.party_a {
            Some(self.balance_a)
        } else if *party == self.party_b {
            Some(self.balance_b)
        } else {
            None
        }
    }
}

/// Final balances recorded on chain when a channel closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settlement {
    /// The channel that closed.
    pub channel: ChannelId,
    /// Party A and its payout.
    pub payout_a: (Address, u64),
    /// Party B and its payout.
    pub payout_b: (Address, u64),
    /// On-chain transactions this lifecycle consumed (open + close).
    pub onchain_txs: u64,
}

/// The channel network: all channels plus routing.
#[derive(Debug, Default)]
pub struct ChannelNetwork {
    channels: BTreeMap<ChannelId, Channel>,
    /// Adjacency: party -> channels it participates in.
    by_party: BTreeMap<Address, Vec<ChannelId>>,
    next_id: u64,
    /// Total off-chain updates across all channels.
    pub total_updates: u64,
    /// Total on-chain transactions consumed (2 per channel lifecycle).
    pub total_onchain_txs: u64,
}

impl ChannelNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        ChannelNetwork::default()
    }

    /// A channel by id.
    pub fn channel(&self, id: ChannelId) -> Option<&Channel> {
        self.channels.get(&id)
    }

    /// Opens a channel between two parties with the given deposits
    /// (one on-chain transaction).
    pub fn open(
        &mut self,
        party_a: Address,
        key_a: PublicKey,
        deposit_a: u64,
        party_b: Address,
        key_b: PublicKey,
        deposit_b: u64,
    ) -> ChannelId {
        let id = ChannelId(self.next_id);
        self.next_id += 1;
        self.channels.insert(
            id,
            Channel {
                id,
                party_a,
                party_b,
                key_a,
                key_b,
                balance_a: deposit_a,
                balance_b: deposit_b,
                seq: 0,
                state: ChannelState::Open,
                update_count: 0,
            },
        );
        self.by_party.entry(party_a).or_default().push(id);
        self.by_party.entry(party_b).or_default().push(id);
        self.total_onchain_txs += 1;
        id
    }

    /// Applies a co-signed balance update to an open channel.
    ///
    /// # Errors
    ///
    /// Rejects stale sequences, capacity changes and bad signatures.
    pub fn apply_update(&mut self, update: &ChannelUpdate) -> Result<(), ChannelError> {
        let channel = self
            .channels
            .get_mut(&update.channel)
            .ok_or(ChannelError::UnknownChannel)?;
        if channel.state != ChannelState::Open {
            return Err(ChannelError::NotOpen);
        }
        if update.seq <= channel.seq {
            return Err(ChannelError::StaleSequence);
        }
        if update.balance_a + update.balance_b != channel.capacity() {
            return Err(ChannelError::BalanceMismatch);
        }
        let digest = update_digest(
            update.channel,
            update.seq,
            update.balance_a,
            update.balance_b,
        );
        if !update.sig_a.verify(&digest, &channel.key_a)
            || !update.sig_b.verify(&digest, &channel.key_b)
        {
            return Err(ChannelError::BadSignature);
        }
        channel.balance_a = update.balance_a;
        channel.balance_b = update.balance_b;
        channel.seq = update.seq;
        channel.update_count += 1;
        self.total_updates += 1;
        Ok(())
    }

    /// Cooperative close at the current state (one on-chain
    /// transaction). Returns the settlement to record on chain.
    pub fn close_cooperative(&mut self, id: ChannelId) -> Result<Settlement, ChannelError> {
        let channel = self
            .channels
            .get_mut(&id)
            .ok_or(ChannelError::UnknownChannel)?;
        if channel.state != ChannelState::Open {
            return Err(ChannelError::NotOpen);
        }
        channel.state = ChannelState::Closed;
        self.total_onchain_txs += 1;
        Ok(Settlement {
            channel: id,
            payout_a: (channel.party_a, channel.balance_a),
            payout_b: (channel.party_b, channel.balance_b),
            onchain_txs: 2,
        })
    }

    /// Unilateral (forced) close: `poster` records the channel's
    /// current state on chain and a challenge window opens until
    /// `deadline_micros`.
    pub fn close_forced(
        &mut self,
        id: ChannelId,
        poster: Address,
        posted: &ChannelUpdate,
        deadline_micros: u64,
    ) -> Result<(), ChannelError> {
        let channel = self
            .channels
            .get_mut(&id)
            .ok_or(ChannelError::UnknownChannel)?;
        if channel.state != ChannelState::Open {
            return Err(ChannelError::NotOpen);
        }
        if poster != channel.party_a && poster != channel.party_b {
            return Err(ChannelError::NotAParty);
        }
        let digest = update_digest(
            posted.channel,
            posted.seq,
            posted.balance_a,
            posted.balance_b,
        );
        if !posted.sig_a.verify(&digest, &channel.key_a)
            || !posted.sig_b.verify(&digest, &channel.key_b)
        {
            return Err(ChannelError::BadSignature);
        }
        // Install the posted state (it may be stale — that's the cheat
        // the challenge window exists to catch).
        channel.balance_a = posted.balance_a;
        channel.balance_b = posted.balance_b;
        channel.state = ChannelState::Closing {
            posted_seq: posted.seq,
            poster,
            deadline_micros,
        };
        self.total_onchain_txs += 1;
        Ok(())
    }

    /// Challenge a pending forced close with a strictly newer co-signed
    /// state (submitted before the deadline). If the challenged poster
    /// lied (posted stale state), their entire balance is forfeited to
    /// the challenger — the Lightning penalty.
    pub fn challenge(
        &mut self,
        id: ChannelId,
        newer: &ChannelUpdate,
        now_micros: u64,
    ) -> Result<Settlement, ChannelError> {
        let channel = self
            .channels
            .get_mut(&id)
            .ok_or(ChannelError::UnknownChannel)?;
        let ChannelState::Closing {
            posted_seq,
            poster,
            deadline_micros,
        } = channel.state
        else {
            return Err(ChannelError::NoPendingClose);
        };
        if now_micros > deadline_micros {
            return Err(ChannelError::ChallengeExpired);
        }
        if newer.seq <= posted_seq {
            return Err(ChannelError::StaleSequence);
        }
        let digest = update_digest(newer.channel, newer.seq, newer.balance_a, newer.balance_b);
        if !newer.sig_a.verify(&digest, &channel.key_a)
            || !newer.sig_b.verify(&digest, &channel.key_b)
        {
            return Err(ChannelError::BadSignature);
        }
        // Cheat proven: everything goes to the wronged party.
        let capacity = channel.capacity();
        let (payout_a, payout_b) = if poster == channel.party_a {
            (0, capacity)
        } else {
            (capacity, 0)
        };
        channel.balance_a = payout_a;
        channel.balance_b = payout_b;
        channel.state = ChannelState::Closed;
        self.total_onchain_txs += 1;
        Ok(Settlement {
            channel: id,
            payout_a: (channel.party_a, payout_a),
            payout_b: (channel.party_b, payout_b),
            onchain_txs: 3, // open + forced close + challenge
        })
    }

    /// Finalises an unchallenged forced close after its deadline.
    pub fn finalise_forced(
        &mut self,
        id: ChannelId,
        now_micros: u64,
    ) -> Result<Settlement, ChannelError> {
        let channel = self
            .channels
            .get_mut(&id)
            .ok_or(ChannelError::UnknownChannel)?;
        let ChannelState::Closing {
            deadline_micros, ..
        } = channel.state
        else {
            return Err(ChannelError::NoPendingClose);
        };
        if now_micros <= deadline_micros {
            return Err(ChannelError::ChallengeExpired);
        }
        channel.state = ChannelState::Closed;
        Ok(Settlement {
            channel: id,
            payout_a: (channel.party_a, channel.balance_a),
            payout_b: (channel.party_b, channel.balance_b),
            onchain_txs: 2,
        })
    }

    /// Finds a multi-hop route from `from` to `to` whose every hop can
    /// forward `amount` (BFS over channels with sufficient directional
    /// capacity).
    pub fn find_route(
        &self,
        from: Address,
        to: Address,
        amount: u64,
    ) -> Result<Vec<ChannelId>, ChannelError> {
        if from == to {
            return Ok(Vec::new());
        }
        let mut visited: BTreeSet<Address> = BTreeSet::from([from]);
        let mut queue: VecDeque<(Address, Vec<ChannelId>)> = VecDeque::from([(from, Vec::new())]);
        while let Some((here, path)) = queue.pop_front() {
            for id in self.by_party.get(&here).into_iter().flatten() {
                let channel = &self.channels[id];
                if channel.state != ChannelState::Open {
                    continue;
                }
                let Some(balance) = channel.balance_of(&here) else {
                    continue;
                };
                if balance < amount {
                    continue; // can't forward through this hop
                }
                let next = if channel.party_a == here {
                    channel.party_b
                } else {
                    channel.party_a
                };
                if !visited.insert(next) {
                    continue;
                }
                let mut next_path = path.clone();
                next_path.push(*id);
                if next == to {
                    return Ok(next_path);
                }
                queue.push_back((next, next_path));
            }
        }
        Err(ChannelError::NoRoute)
    }

    /// Shifts `amount` along a route (used by the routed-payment
    /// helper after both endpoints co-sign each hop's update). This
    /// low-level method adjusts balances directly and counts one
    /// off-chain update per hop; signature-verified updates go through
    /// [`ChannelNetwork::apply_update`].
    pub fn route_payment(
        &mut self,
        from: Address,
        route: &[ChannelId],
        amount: u64,
    ) -> Result<(), ChannelError> {
        // Validate first (atomicity).
        let mut payer = from;
        for id in route {
            let channel = self.channels.get(id).ok_or(ChannelError::UnknownChannel)?;
            if channel.state != ChannelState::Open {
                return Err(ChannelError::NotOpen);
            }
            let balance = channel.balance_of(&payer).ok_or(ChannelError::NotAParty)?;
            if balance < amount {
                return Err(ChannelError::InsufficientBalance);
            }
            payer = if channel.party_a == payer {
                channel.party_b
            } else {
                channel.party_a
            };
        }
        // Commit.
        let mut payer = from;
        for id in route {
            let channel = self.channels.get_mut(id).expect("validated");
            if channel.party_a == payer {
                channel.balance_a -= amount;
                channel.balance_b += amount;
                payer = channel.party_b;
            } else {
                channel.balance_b -= amount;
                channel.balance_a += amount;
                payer = channel.party_a;
            }
            channel.seq += 1;
            channel.update_count += 1;
            self.total_updates += 1;
        }
        Ok(())
    }
}

/// A convenience two-party channel driver that holds both keypairs and
/// co-signs updates — what tests, examples and the `e12` experiment use
/// to generate realistic signed traffic.
pub struct ChannelPair {
    /// The network the channel lives in.
    pub id: ChannelId,
    key_a: Keypair,
    key_b: Keypair,
    balance_a: u64,
    balance_b: u64,
    seq: u64,
}

impl ChannelPair {
    /// Opens a channel between two fresh identities with the default
    /// signature capacity (2¹⁰ = 1024 co-signed updates).
    pub fn open(network: &mut ChannelNetwork, seed: u64, deposit_a: u64, deposit_b: u64) -> Self {
        Self::open_with_capacity(network, seed, deposit_a, deposit_b, 10)
    }

    /// Opens a channel whose keys can co-sign up to `2^key_height`
    /// updates (key generation cost grows with the capacity).
    pub fn open_with_capacity(
        network: &mut ChannelNetwork,
        seed: u64,
        deposit_a: u64,
        deposit_b: u64,
        key_height: u32,
    ) -> Self {
        let mut seed_a = [0u8; 32];
        seed_a[..8].copy_from_slice(&seed.to_be_bytes());
        let mut seed_b = seed_a;
        seed_b[31] = 1;
        let key_a = Keypair::mss_from_seed(seed_a, key_height);
        let key_b = Keypair::mss_from_seed(seed_b, key_height);
        let id = network.open(
            key_a.address(),
            key_a.public_key(),
            deposit_a,
            key_b.address(),
            key_b.public_key(),
            deposit_b,
        );
        ChannelPair {
            id,
            key_a,
            key_b,
            balance_a: deposit_a,
            balance_b: deposit_b,
            seq: 0,
        }
    }

    /// Party A's address.
    pub fn party_a(&self) -> Address {
        self.key_a.address()
    }

    /// Party B's address.
    pub fn party_b(&self) -> Address {
        self.key_b.address()
    }

    /// Co-signs a payment of `amount` from A to B (negative direction
    /// via `pay_b_to_a`), returning the signed update.
    ///
    /// # Errors
    ///
    /// [`ChannelError::InsufficientBalance`] if A lacks funds.
    pub fn pay_a_to_b(&mut self, amount: u64) -> Result<ChannelUpdate, ChannelError> {
        if self.balance_a < amount {
            return Err(ChannelError::InsufficientBalance);
        }
        self.balance_a -= amount;
        self.balance_b += amount;
        self.seq += 1;
        Ok(self.sign_current())
    }

    /// Co-signs a payment of `amount` from B to A.
    ///
    /// # Errors
    ///
    /// [`ChannelError::InsufficientBalance`] if B lacks funds.
    pub fn pay_b_to_a(&mut self, amount: u64) -> Result<ChannelUpdate, ChannelError> {
        if self.balance_b < amount {
            return Err(ChannelError::InsufficientBalance);
        }
        self.balance_b -= amount;
        self.balance_a += amount;
        self.seq += 1;
        Ok(self.sign_current())
    }

    fn sign_current(&mut self) -> ChannelUpdate {
        let digest = update_digest(self.id, self.seq, self.balance_a, self.balance_b);
        ChannelUpdate {
            channel: self.id,
            seq: self.seq,
            balance_a: self.balance_a,
            balance_b: self.balance_b,
            sig_a: self
                .key_a
                .sign(&digest)
                .expect("key capacity sized for test traffic"),
            sig_b: self
                .key_b
                .sign(&digest)
                .expect("key capacity sized for test traffic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(net: &mut ChannelNetwork) -> ChannelPair {
        ChannelPair::open(net, 42, 100, 50)
    }

    #[test]
    fn open_locks_deposits_and_costs_one_onchain_tx() {
        let mut net = ChannelNetwork::new();
        let p = pair(&mut net);
        let channel = net.channel(p.id).unwrap();
        assert_eq!(channel.capacity(), 150);
        assert_eq!(channel.balance_a, 100);
        assert_eq!(channel.balance_b, 50);
        assert_eq!(net.total_onchain_txs, 1);
    }

    #[test]
    fn signed_updates_move_balance_off_chain() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        for _ in 0..10 {
            let update = p.pay_a_to_b(5).unwrap();
            net.apply_update(&update).unwrap();
        }
        let channel = net.channel(p.id).unwrap();
        assert_eq!(channel.balance_a, 50);
        assert_eq!(channel.balance_b, 100);
        assert_eq!(net.total_updates, 10);
        // Zero extra on-chain transactions.
        assert_eq!(net.total_onchain_txs, 1);
    }

    #[test]
    fn stale_update_rejected() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        let u1 = p.pay_a_to_b(5).unwrap();
        let u2 = p.pay_a_to_b(5).unwrap();
        net.apply_update(&u2).unwrap();
        assert_eq!(net.apply_update(&u1), Err(ChannelError::StaleSequence));
    }

    #[test]
    fn forged_update_rejected() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        let mut update = p.pay_a_to_b(5).unwrap();
        update.balance_b += 10;
        update.balance_a -= 10;
        assert_eq!(net.apply_update(&update), Err(ChannelError::BadSignature));
    }

    #[test]
    fn capacity_change_rejected() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        let mut update = p.pay_a_to_b(5).unwrap();
        update.balance_b += 1_000; // print money
        assert!(matches!(
            net.apply_update(&update),
            Err(ChannelError::BalanceMismatch)
        ));
    }

    #[test]
    fn cooperative_close_settles_current_state() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        net.apply_update(&p.pay_a_to_b(30).unwrap()).unwrap();
        let settlement = net.close_cooperative(p.id).unwrap();
        assert_eq!(settlement.payout_a.1, 70);
        assert_eq!(settlement.payout_b.1, 80);
        assert_eq!(settlement.onchain_txs, 2);
        assert_eq!(net.total_onchain_txs, 2);
        // Closed channel accepts nothing further.
        let update = p.pay_a_to_b(1).unwrap();
        assert_eq!(net.apply_update(&update), Err(ChannelError::NotOpen));
    }

    #[test]
    fn honest_forced_close_finalises_after_window() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        let latest = p.pay_a_to_b(20).unwrap();
        net.apply_update(&latest).unwrap();
        net.close_forced(p.id, p.party_a(), &latest, 1_000).unwrap();
        // Too early to finalise.
        assert_eq!(
            net.finalise_forced(p.id, 500),
            Err(ChannelError::ChallengeExpired)
        );
        let settlement = net.finalise_forced(p.id, 2_000).unwrap();
        assert_eq!(settlement.payout_a.1, 80);
        assert_eq!(settlement.payout_b.1, 70);
    }

    #[test]
    fn cheating_with_stale_state_forfeits_everything() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        let stale = p.pay_a_to_b(10).unwrap(); // A:90 B:60
        net.apply_update(&stale).unwrap();
        let latest = p.pay_a_to_b(50).unwrap(); // A:40 B:110
        net.apply_update(&latest).unwrap();
        // A posts the stale (better-for-A) state.
        net.close_forced(p.id, p.party_a(), &stale, 1_000).unwrap();
        // B challenges with the newer state before the deadline.
        let settlement = net.challenge(p.id, &latest, 500).unwrap();
        assert_eq!(settlement.payout_a.1, 0, "cheater forfeits");
        assert_eq!(settlement.payout_b.1, 150, "victim takes capacity");
    }

    #[test]
    fn late_challenge_rejected() {
        let mut net = ChannelNetwork::new();
        let mut p = pair(&mut net);
        let stale = p.pay_a_to_b(10).unwrap();
        net.apply_update(&stale).unwrap();
        let latest = p.pay_a_to_b(50).unwrap();
        net.apply_update(&latest).unwrap();
        net.close_forced(p.id, p.party_a(), &stale, 1_000).unwrap();
        assert_eq!(
            net.challenge(p.id, &latest, 5_000),
            Err(ChannelError::ChallengeExpired)
        );
    }

    #[test]
    fn routing_finds_multi_hop_path() {
        let mut net = ChannelNetwork::new();
        let a = Address::from_label("a");
        let b = Address::from_label("b");
        let c = Address::from_label("c");
        let d = Address::from_label("d");
        let key = PublicKey::default();
        let ab = net.open(a, key, 100, b, key, 100);
        let bc = net.open(b, key, 100, c, key, 100);
        let cd = net.open(c, key, 100, d, key, 100);
        let route = net.find_route(a, d, 50).unwrap();
        assert_eq!(route, vec![ab, bc, cd]);
        net.route_payment(a, &route, 50).unwrap();
        assert_eq!(net.channel(ab).unwrap().balance_a, 50);
        assert_eq!(net.channel(cd).unwrap().balance_of(&d), Some(150));
        assert_eq!(net.total_updates, 3);
    }

    #[test]
    fn routing_respects_capacity() {
        let mut net = ChannelNetwork::new();
        let a = Address::from_label("a");
        let b = Address::from_label("b");
        let c = Address::from_label("c");
        let key = PublicKey::default();
        net.open(a, key, 100, b, key, 0);
        net.open(b, key, 10, c, key, 0); // bottleneck: b can forward ≤10
        assert_eq!(net.find_route(a, c, 50), Err(ChannelError::NoRoute));
        assert!(net.find_route(a, c, 10).is_ok());
    }

    #[test]
    fn routing_around_a_depleted_channel() {
        let mut net = ChannelNetwork::new();
        let a = Address::from_label("a");
        let b = Address::from_label("b");
        let c = Address::from_label("c");
        let key = PublicKey::default();
        let _ab_dead = net.open(a, key, 0, b, key, 100); // a has nothing here
        let ac = net.open(a, key, 100, c, key, 0);
        let cb = net.open(c, key, 100, b, key, 0);
        let route = net.find_route(a, b, 40).unwrap();
        assert_eq!(route, vec![ac, cb]);
    }

    #[test]
    fn self_route_is_empty() {
        let net = ChannelNetwork::new();
        let a = Address::from_label("a");
        assert_eq!(net.find_route(a, a, 10), Ok(Vec::new()));
    }

    #[test]
    fn off_chain_volume_vs_onchain_cost() {
        // The §VI-A payoff: thousands of payments, two on-chain txs.
        let mut net = ChannelNetwork::new();
        let mut p = ChannelPair::open(&mut net, 7, 1_000, 0);
        for _ in 0..500 {
            let update = p.pay_a_to_b(1).unwrap();
            net.apply_update(&update).unwrap();
        }
        let settlement = net.close_cooperative(p.id).unwrap();
        assert_eq!(net.total_updates, 500);
        assert_eq!(settlement.onchain_txs, 2);
        assert_eq!(settlement.payout_b.1, 500);
    }
}
