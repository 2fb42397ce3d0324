//! The unified ledger abstraction and the identical-workload scenario
//! runner.
//!
//! The paper's method is to ask the *same* questions of three concrete
//! systems. [`DistributedLedger`] is that question set as a trait —
//! submit a transfer between workload actors, let simulated time pass,
//! ask about confirmation and ledger size — and the three adapters wrap
//! the reference implementations:
//!
//! * [`BitcoinAdapter`] — UTXO chain, 10-minute blocks, 1 MB capacity;
//! * [`EthereumAdapter`] — account chain, 15-second (or 4-second PoS)
//!   blocks, gas capacity;
//! * [`NanoAdapter`] — block-lattice, asynchronous sends/receives,
//!   vote-latency confirmation.
//!
//! [`run_workload`] drives any of them with a Poisson payment workload
//! and produces the [`WorkloadReport`] rows the §V/§VI experiments
//! print.

use dlt_blockchain::account::AccountTx;
use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::block::LedgerTx;
use dlt_blockchain::chain::ChainStore;
use dlt_blockchain::ethereum::{EthereumChain, EthereumParams};
use dlt_blockchain::mempool::Mempool;
use dlt_blockchain::utxo::{UtxoTx, Wallet};
use dlt_crypto::keys::Address;
use dlt_crypto::Digest;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::{Lattice, LatticeParams};
use dlt_sim::rng::SimRng;
use dlt_sim::time::SimTime;
use dlt_sim::trace::{TraceEvent, TraceLog};

/// Where a submitted transfer stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// Never seen (or dropped).
    Unknown,
    /// Waiting (mempool / unsettled).
    Pending,
    /// In the ledger but below the confirmation threshold.
    Included {
        /// Blockchain confirmations so far (1 = in the tip block).
        confirmations: u64,
    },
    /// Confirmed at the ledger's own threshold (§IV).
    Confirmed,
}

/// Point-in-time ledger statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerStats {
    /// Transfers accepted for processing.
    pub submitted: u64,
    /// Transfers confirmed at the ledger's threshold.
    pub confirmed: u64,
    /// Transfers still pending (mempool backlog / unsettled sends).
    pub pending: u64,
    /// Ledger size in bytes (what a historical node stores).
    pub ledger_bytes: usize,
    /// Blocks in the ledger (chain blocks or lattice blocks).
    pub blocks: u64,
}

/// A ledger that can run the comparison workload.
pub trait DistributedLedger {
    /// Human-readable name for report rows.
    fn name(&self) -> &'static str;

    /// Number of workload actors (funded identities).
    fn actor_count(&self) -> usize;

    /// Submits a transfer of `amount` from actor `from` to actor `to`.
    /// Returns a ticket to query [`DistributedLedger::status`] with, or
    /// `None` if the actor cannot currently pay (insufficient funds or
    /// spent key capacity).
    fn submit_transfer(&mut self, from: usize, to: usize, amount: u64) -> Option<Digest>;

    /// Advances simulated time: blocks get produced, votes circulate,
    /// receives are issued.
    fn advance(&mut self, dt: SimTime);

    /// Where a ticket stands.
    fn status(&self, ticket: &Digest) -> TxStatus;

    /// Current statistics.
    fn stats(&self) -> LedgerStats;
}

// ---------------------------------------------------------------------
// Shared blockchain status
// ---------------------------------------------------------------------

/// What both chain adapters answer `status`/`stats` from: the block
/// store's tx index, the mempool and the confirmation depth.
struct ChainView<'a, T> {
    store: &'a ChainStore<T>,
    mempool: &'a Mempool<T>,
    depth: u64,
}

impl<T: LedgerTx> ChainView<'_, T> {
    fn status(&self, ticket: &Digest) -> TxStatus {
        match self.store.tx_confirmations(ticket) {
            Some(confirmations) if confirmations >= self.depth => TxStatus::Confirmed,
            Some(confirmations) => TxStatus::Included { confirmations },
            None if self.mempool.contains(ticket) => TxStatus::Pending,
            None => TxStatus::Unknown,
        }
    }

    fn stats(&self, submitted: u64, tickets: &[Digest], ledger_bytes: usize) -> LedgerStats {
        let confirmed = tickets
            .iter()
            .filter(|t| self.status(t) == TxStatus::Confirmed)
            .count() as u64;
        LedgerStats {
            submitted,
            confirmed,
            pending: self.mempool.len() as u64,
            ledger_bytes,
            blocks: self.store.tip_height() + 1,
        }
    }
}

// ---------------------------------------------------------------------
// Bitcoin adapter
// ---------------------------------------------------------------------

/// [`DistributedLedger`] over the Bitcoin-like UTXO chain.
pub struct BitcoinAdapter {
    chain: BitcoinChain,
    wallets: Vec<Wallet>,
    actor_addresses: Vec<Vec<Address>>,
    miner: Address,
    elapsed: SimTime,
    next_block_at: SimTime,
    block_interval: SimTime,
    submitted: u64,
    tickets: Vec<Digest>,
}

impl BitcoinAdapter {
    /// Funds `actors` wallets with `outputs_per_actor` outputs of
    /// `funds_per_output` each, so several transfers can be in flight
    /// before the first block confirms change.
    pub fn new(
        params: BitcoinParams,
        block_interval: SimTime,
        actors: usize,
        outputs_per_actor: usize,
        funds_per_output: u64,
        seed: u64,
    ) -> Self {
        let mut wallets: Vec<Wallet> = (0..actors)
            .map(|i| Wallet::new(seed.wrapping_add(i as u64)))
            .collect();
        let mut allocations = Vec::new();
        let mut actor_addresses = vec![Vec::new(); actors];
        for (i, wallet) in wallets.iter_mut().enumerate() {
            for _ in 0..outputs_per_actor {
                let address = wallet.new_address();
                actor_addresses[i].push(address);
                allocations.push((address, funds_per_output));
            }
        }
        let chain = BitcoinChain::new(params, &allocations);
        BitcoinAdapter {
            chain,
            wallets,
            actor_addresses,
            miner: Address::from_label("workload-miner"),
            elapsed: SimTime::ZERO,
            next_block_at: block_interval,
            block_interval,
            submitted: 0,
            tickets: Vec::new(),
        }
    }

    /// The wrapped chain (post-run inspection).
    pub fn chain(&self) -> &BitcoinChain {
        &self.chain
    }

    fn view(&self) -> ChainView<'_, UtxoTx> {
        ChainView {
            store: self.chain.chain(),
            mempool: self.chain.mempool(),
            depth: self.chain.params().confirmation_depth,
        }
    }
}

impl DistributedLedger for BitcoinAdapter {
    fn name(&self) -> &'static str {
        "bitcoin-like"
    }

    fn actor_count(&self) -> usize {
        self.wallets.len()
    }

    fn submit_transfer(&mut self, from: usize, to: usize, amount: u64) -> Option<Digest> {
        let recipient = self.wallets[to].new_address();
        self.actor_addresses[to].push(recipient);
        let tx = self.wallets[from].build_transfer(self.chain.ledger(), recipient, amount, 1)?;
        let id = self.chain.submit_tx(tx)?;
        self.submitted += 1;
        self.tickets.push(id);
        Some(id)
    }

    fn advance(&mut self, dt: SimTime) {
        self.elapsed += dt;
        while self.elapsed >= self.next_block_at {
            self.chain
                .mine_block(self.miner, self.next_block_at.as_micros());
            self.next_block_at += self.block_interval;
        }
    }

    fn status(&self, ticket: &Digest) -> TxStatus {
        self.view().status(ticket)
    }

    fn stats(&self) -> LedgerStats {
        self.view().stats(
            self.submitted,
            &self.tickets,
            self.chain.chain().total_bytes(),
        )
    }
}

// ---------------------------------------------------------------------
// Ethereum adapter
// ---------------------------------------------------------------------

/// [`DistributedLedger`] over the Ethereum-like account chain.
pub struct EthereumAdapter {
    chain: EthereumChain,
    holders: Vec<dlt_blockchain::account::AccountHolder>,
    producer: Address,
    elapsed: SimTime,
    next_block_at: SimTime,
    block_interval: SimTime,
    submitted: u64,
    tickets: Vec<Digest>,
}

impl EthereumAdapter {
    /// Funds `actors` accounts with `funds_per_actor`; each account can
    /// sign up to `2^key_height` transfers.
    pub fn new(
        params: EthereumParams,
        block_interval: SimTime,
        actors: usize,
        funds_per_actor: u64,
        key_height: u32,
        seed: u64,
    ) -> Self {
        let holders: Vec<dlt_blockchain::account::AccountHolder> = (0..actors)
            .map(|i| {
                let mut account_seed = [0u8; 32];
                account_seed[..8].copy_from_slice(&seed.to_be_bytes());
                account_seed[8..16].copy_from_slice(&(i as u64).to_be_bytes());
                dlt_blockchain::account::AccountHolder::from_seed(account_seed, key_height)
            })
            .collect();
        let allocations: Vec<(Address, u64)> = holders
            .iter()
            .map(|h| (h.address(), funds_per_actor))
            .collect();
        let chain = EthereumChain::new(params, &allocations);
        EthereumAdapter {
            chain,
            holders,
            producer: Address::from_label("workload-validator"),
            elapsed: SimTime::ZERO,
            next_block_at: block_interval,
            block_interval,
            submitted: 0,
            tickets: Vec::new(),
        }
    }

    /// The wrapped chain (post-run inspection).
    pub fn chain(&self) -> &EthereumChain {
        &self.chain
    }

    fn view(&self) -> ChainView<'_, AccountTx> {
        ChainView {
            store: self.chain.chain(),
            mempool: self.chain.mempool(),
            depth: self.chain.params().confirmation_depth,
        }
    }
}

impl DistributedLedger for EthereumAdapter {
    fn name(&self) -> &'static str {
        "ethereum-like"
    }

    fn actor_count(&self) -> usize {
        self.holders.len()
    }

    fn submit_transfer(&mut self, from: usize, to: usize, amount: u64) -> Option<Digest> {
        if self.holders[from].remaining_signatures() == 0 {
            return None;
        }
        let to_address = self.holders[to].address();
        let tx = self.holders[from].transfer(to_address, amount, 1);
        let id = self.chain.submit_tx(tx)?;
        self.submitted += 1;
        self.tickets.push(id);
        Some(id)
    }

    fn advance(&mut self, dt: SimTime) {
        self.elapsed += dt;
        while self.elapsed >= self.next_block_at {
            self.chain
                .produce_block(self.producer, self.next_block_at.as_micros());
            self.next_block_at += self.block_interval;
        }
    }

    fn status(&self, ticket: &Digest) -> TxStatus {
        self.view().status(ticket)
    }

    fn stats(&self) -> LedgerStats {
        let ledger_bytes =
            self.chain.chain().total_bytes() + self.chain.state().trie().total_bytes();
        self.view()
            .stats(self.submitted, &self.tickets, ledger_bytes)
    }
}

// ---------------------------------------------------------------------
// Nano adapter
// ---------------------------------------------------------------------

/// A transfer in flight on the DAG: the send is in the ledger, the
/// receive is issued after the recipient's polling delay.
struct InFlight {
    send_hash: Digest,
    to: usize,
    amount: u64,
    receive_at: SimTime,
}

/// [`DistributedLedger`] over the Nano-like block-lattice.
///
/// Asynchrony model: the send block enters the ledger immediately (the
/// sender orders its own transactions); the recipient issues the
/// matching receive after `receive_delay`; the transfer counts as
/// *confirmed* once representatives' votes would have quorum —
/// `confirm_delay` after the receive (a constant standing in for the
/// measured vote round-trips of `e06`).
pub struct NanoAdapter {
    lattice: Lattice,
    accounts: Vec<NanoAccount>,
    elapsed: SimTime,
    receive_delay: SimTime,
    confirm_delay: SimTime,
    in_flight: Vec<InFlight>,
    /// ticket → the simulated time at which it is fully confirmed.
    confirmed_at: std::collections::HashMap<Digest, SimTime>,
    submitted: u64,
}

impl NanoAdapter {
    /// Funds `actors` accounts with `funds_per_actor` each from the
    /// genesis account. Each account signs up to `2^key_height` blocks.
    pub fn new(
        params: LatticeParams,
        actors: usize,
        funds_per_actor: u64,
        key_height: u32,
        receive_delay: SimTime,
        confirm_delay: SimTime,
        seed: u64,
    ) -> Self {
        let mut genesis_seed = [0u8; 32];
        genesis_seed[..8].copy_from_slice(&seed.to_be_bytes());
        genesis_seed[31] = 0xff;
        let supply = funds_per_actor * actors as u64 + 1;
        let mut genesis = NanoAccount::from_seed(
            genesis_seed,
            (actors + 2).next_power_of_two().trailing_zeros() + 1,
            params.work_difficulty_bits,
        );
        let mut lattice = Lattice::new(params, genesis.genesis_block(supply));

        let mut accounts = Vec::with_capacity(actors);
        for i in 0..actors {
            let mut account_seed = [0u8; 32];
            account_seed[..8].copy_from_slice(&seed.to_be_bytes());
            account_seed[8..16].copy_from_slice(&(i as u64).to_be_bytes());
            account_seed[31] = 0xaa;
            let mut account =
                NanoAccount::from_seed(account_seed, key_height, params.work_difficulty_bits);
            let send = genesis
                .send(account.address(), funds_per_actor)
                .expect("genesis funded");
            let send_hash = lattice.process(send).expect("genesis send applies");
            let receive = account
                .receive(send_hash, funds_per_actor)
                .expect("fresh key");
            lattice.process(receive).expect("funding receive applies");
            accounts.push(account);
        }
        NanoAdapter {
            lattice,
            accounts,
            elapsed: SimTime::ZERO,
            receive_delay,
            confirm_delay,
            in_flight: Vec::new(),
            confirmed_at: std::collections::HashMap::new(),
            submitted: 0,
        }
    }

    /// The wrapped lattice (post-run inspection).
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }
}

impl DistributedLedger for NanoAdapter {
    fn name(&self) -> &'static str {
        "nano-like"
    }

    fn actor_count(&self) -> usize {
        self.accounts.len()
    }

    fn submit_transfer(&mut self, from: usize, to: usize, amount: u64) -> Option<Digest> {
        let to_address = self.accounts[to].address();
        let send = self.accounts[from].send(to_address, amount).ok()?;
        let send_hash = self.lattice.process(send).ok()?;
        self.submitted += 1;
        self.in_flight.push(InFlight {
            send_hash,
            to,
            amount,
            receive_at: self.elapsed + self.receive_delay,
        });
        Some(send_hash)
    }

    fn advance(&mut self, dt: SimTime) {
        self.elapsed += dt;
        let due: Vec<InFlight> = {
            let elapsed = self.elapsed;
            let (ready, waiting): (Vec<InFlight>, Vec<InFlight>) = self
                .in_flight
                .drain(..)
                .partition(|f| f.receive_at <= elapsed);
            self.in_flight = waiting;
            ready
        };
        for flight in due {
            if let Ok(receive) = self.accounts[flight.to].receive(flight.send_hash, flight.amount) {
                if self.lattice.process(receive).is_ok() {
                    self.confirmed_at
                        .insert(flight.send_hash, self.elapsed + self.confirm_delay);
                }
            }
        }
    }

    fn status(&self, ticket: &Digest) -> TxStatus {
        match self.confirmed_at.get(ticket) {
            Some(at) if *at <= self.elapsed => TxStatus::Confirmed,
            Some(_) => TxStatus::Included { confirmations: 1 },
            None => {
                if self.lattice.contains(ticket) {
                    TxStatus::Pending // sent, unsettled
                } else {
                    TxStatus::Unknown
                }
            }
        }
    }

    fn stats(&self) -> LedgerStats {
        let confirmed = self
            .confirmed_at
            .values()
            .filter(|at| **at <= self.elapsed)
            .count() as u64;
        LedgerStats {
            submitted: self.submitted,
            confirmed,
            pending: (self.lattice.pending_count() + self.in_flight.len()) as u64,
            ledger_bytes: self.lattice.total_bytes(),
            blocks: self.lattice.block_count() as u64,
        }
    }
}

// ---------------------------------------------------------------------
// Workload runner
// ---------------------------------------------------------------------

/// Workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Offered load in transfers per second (Poisson arrivals).
    pub offered_tps: f64,
    /// Workload duration.
    pub duration: SimTime,
    /// Extra drain time after the last submission (lets blocks, votes
    /// and receives finish).
    pub drain: SimTime,
    /// Transfer amount.
    pub amount: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

/// The measured outcome of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Which ledger ran.
    pub ledger: &'static str,
    /// Transfers offered by the generator.
    pub offered: u64,
    /// Transfers the ledger accepted.
    pub submitted: u64,
    /// Transfers confirmed by the end of the drain.
    pub confirmed: u64,
    /// Confirmed transfers per second of workload time.
    pub confirmed_tps: f64,
    /// Ledger bytes at the end.
    pub ledger_bytes: usize,
    /// Marginal bytes per confirmed transfer.
    pub bytes_per_tx: f64,
    /// Backlog still pending at the end.
    pub backlog: u64,
    /// Blocks produced.
    pub blocks: u64,
}

/// Drives `ledger` with a Poisson workload of transfers between
/// uniformly random actor pairs and reports the §V/§VI metrics.
pub fn run_workload(ledger: &mut dyn DistributedLedger, config: &WorkloadConfig) -> WorkloadReport {
    run_workload_traced(ledger, config, None)
}

/// [`run_workload`] recording into a [`TraceLog`]: each rejected
/// submission and each sampling milestone emits a [`TraceEvent::Mark`].
/// The workload runs outside the discrete-event engine, so marks are
/// the only event kind it produces; pass `None` (or call
/// [`run_workload`]) to trace nothing at zero cost.
pub fn run_workload_traced(
    ledger: &mut dyn DistributedLedger,
    config: &WorkloadConfig,
    trace: Option<&TraceLog>,
) -> WorkloadReport {
    let mut rng = SimRng::new(config.seed);
    let actors = ledger.actor_count();
    assert!(actors >= 2, "workload needs at least two actors");
    let initial_bytes = ledger.stats().ledger_bytes;

    let step = SimTime::from_millis(100);
    let mut now = SimTime::ZERO;
    let mut offered = 0u64;
    while now < config.duration {
        let arrivals = rng.poisson(config.offered_tps * step.as_secs_f64());
        for _ in 0..arrivals {
            let from = rng.below(actors as u64) as usize;
            let mut to = rng.below(actors as u64 - 1) as usize;
            if to >= from {
                to += 1;
            }
            offered += 1;
            if ledger.submit_transfer(from, to, config.amount).is_none() {
                if let Some(log) = trace {
                    log.push(TraceEvent::Mark {
                        at: now,
                        label: "workload.rejected",
                        value: offered,
                    });
                }
            }
        }
        ledger.advance(step);
        now += step;
    }
    // Throughput is sampled at the end of the loaded interval — the
    // drain below exists to settle backlogs and in-flight receives for
    // the size/backlog statistics, and must not inflate the rate.
    let at_load_end = ledger.stats();
    if let Some(log) = trace {
        log.push(TraceEvent::Mark {
            at: now,
            label: "workload.offered",
            value: offered,
        });
        log.push(TraceEvent::Mark {
            at: now,
            label: "workload.confirmed_at_load_end",
            value: at_load_end.confirmed,
        });
    }
    let mut drained = SimTime::ZERO;
    while drained < config.drain {
        ledger.advance(step);
        drained += step;
    }
    if let Some(log) = trace {
        log.push(TraceEvent::Mark {
            at: now.saturating_add(drained),
            label: "workload.confirmed_after_drain",
            value: ledger.stats().confirmed,
        });
    }

    let stats = ledger.stats();
    let duration_secs = config.duration.as_secs_f64();
    WorkloadReport {
        ledger: ledger.name(),
        offered,
        submitted: stats.submitted,
        confirmed: stats.confirmed,
        confirmed_tps: at_load_end.confirmed as f64 / duration_secs,
        ledger_bytes: stats.ledger_bytes,
        bytes_per_tx: if stats.confirmed == 0 {
            0.0
        } else {
            (stats.ledger_bytes.saturating_sub(initial_bytes)) as f64 / stats.confirmed as f64
        },
        backlog: stats.pending,
        blocks: stats.blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_bitcoin(actors: usize) -> BitcoinAdapter {
        // Compressed timescale: 10-second blocks stand in for 10-minute
        // ones, and the 1 MB cap is scaled down in proportion (to ~8 KB
        // ≈ 3 WOTS-signed transactions) so the capacity-to-interval
        // ratio — which is what limits TPS — stays Bitcoin-shaped.
        BitcoinAdapter::new(
            BitcoinParams {
                confirmation_depth: 3,
                max_block_bytes: 8_000,
                ..BitcoinParams::default()
            },
            SimTime::from_secs(10),
            actors,
            6,
            10_000,
            7,
        )
    }

    fn fast_ethereum(actors: usize) -> EthereumAdapter {
        EthereumAdapter::new(
            EthereumParams {
                confirmation_depth: 3,
                ..EthereumParams::default()
            },
            SimTime::from_secs(1),
            actors,
            10_000_000,
            7,
            7,
        )
    }

    fn fast_nano(actors: usize) -> NanoAdapter {
        NanoAdapter::new(
            LatticeParams {
                work_difficulty_bits: 2,
                ..Default::default()
            },
            actors,
            1_000_000,
            7,
            SimTime::from_millis(200),
            SimTime::from_millis(300),
            7,
        )
    }

    fn config(tps: f64, secs: u64) -> WorkloadConfig {
        WorkloadConfig {
            offered_tps: tps,
            duration: SimTime::from_secs(secs),
            drain: SimTime::from_secs(60),
            amount: 5,
            seed: 99,
        }
    }

    #[test]
    fn bitcoin_adapter_processes_workload() {
        let mut ledger = fast_bitcoin(4);
        let report = run_workload(&mut ledger, &config(0.5, 60));
        assert!(report.submitted > 0, "report {report:?}");
        assert!(report.confirmed > 0, "report {report:?}");
        assert!(report.ledger_bytes > 0);
        assert!(report.blocks > 3);
    }

    #[test]
    fn ethereum_adapter_processes_workload() {
        let mut ledger = fast_ethereum(4);
        let report = run_workload(&mut ledger, &config(1.0, 30));
        assert!(report.confirmed > 10, "report {report:?}");
        assert!(report.bytes_per_tx > 0.0);
    }

    #[test]
    fn traced_workload_emits_marks_and_matches_untraced_report() {
        let mut plain = fast_bitcoin(4);
        let untraced = run_workload(&mut plain, &config(0.5, 60));
        let log = TraceLog::new();
        let mut traced_ledger = fast_bitcoin(4);
        let traced = run_workload_traced(&mut traced_ledger, &config(0.5, 60), Some(&log));
        // Tracing is pure observation: the report is identical.
        assert_eq!(traced.offered, untraced.offered);
        assert_eq!(traced.confirmed, untraced.confirmed);
        let marks: Vec<&'static str> = log
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Mark { label, .. } => Some(*label),
                _ => None,
            })
            .collect();
        assert!(marks.contains(&"workload.offered"));
        assert!(marks.contains(&"workload.confirmed_at_load_end"));
        assert!(marks.contains(&"workload.confirmed_after_drain"));
    }

    #[test]
    fn nano_adapter_processes_workload() {
        let mut ledger = fast_nano(4);
        let report = run_workload(&mut ledger, &config(1.0, 30));
        assert!(report.confirmed > 10, "report {report:?}");
        // Asynchronous settlement: near-zero backlog after drain.
        assert_eq!(report.backlog, 0, "report {report:?}");
    }

    #[test]
    fn statuses_progress_to_confirmed() {
        let mut ledger = fast_ethereum(2);
        let ticket = ledger.submit_transfer(0, 1, 10).unwrap();
        assert_eq!(ledger.status(&ticket), TxStatus::Pending);
        ledger.advance(SimTime::from_secs(1));
        assert!(matches!(
            ledger.status(&ticket),
            TxStatus::Included { confirmations: 1 }
        ));
        ledger.advance(SimTime::from_secs(5));
        assert_eq!(ledger.status(&ticket), TxStatus::Confirmed);
    }

    #[test]
    fn nano_status_lifecycle() {
        let mut ledger = fast_nano(2);
        let ticket = ledger.submit_transfer(0, 1, 10).unwrap();
        assert_eq!(ledger.status(&ticket), TxStatus::Pending);
        ledger.advance(SimTime::from_millis(250)); // receive issued
        assert!(matches!(ledger.status(&ticket), TxStatus::Included { .. }));
        ledger.advance(SimTime::from_millis(400)); // votes confirm
        assert_eq!(ledger.status(&ticket), TxStatus::Confirmed);
    }

    #[test]
    fn unknown_ticket_is_unknown() {
        let ledger = fast_nano(2);
        assert_eq!(
            ledger.status(&dlt_crypto::sha256::sha256(b"nothing")),
            TxStatus::Unknown
        );
    }

    #[test]
    fn bitcoin_saturates_ethereum_keeps_up() {
        // The §VI shape at compressed scale: identical offered load,
        // Bitcoin's slow blocks leave a backlog, Ethereum's frequent
        // blocks absorb it.
        let cfg = config(2.0, 60);
        let mut bitcoin = fast_bitcoin(6);
        let mut ethereum = fast_ethereum(6);
        let btc_report = run_workload(&mut bitcoin, &cfg);
        let eth_report = run_workload(&mut ethereum, &cfg);
        assert!(
            eth_report.confirmed > btc_report.confirmed,
            "eth {} vs btc {}",
            eth_report.confirmed,
            btc_report.confirmed
        );
    }

    #[test]
    fn nano_bytes_per_tx_counts_two_blocks() {
        // A transfer is a send + receive: bytes/tx ≈ 2 lattice blocks.
        let mut ledger = fast_nano(4);
        let report = run_workload(&mut ledger, &config(1.0, 20));
        let block_bytes = 2.0 * 2_400.0; // ~2.4 KB per MSS-signed block
        assert!(
            report.bytes_per_tx > block_bytes * 0.5 && report.bytes_per_tx < block_bytes * 2.5,
            "bytes/tx {}",
            report.bytes_per_tx
        );
    }
}
