//! Protocol configuration: memory mode and lock-propagation variants.

use std::fmt;

/// Which memory consistency protocol the DSM runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mode {
    /// Pipelined RAM (Lipton–Sandberg): full replication, FIFO update
    /// broadcast, apply-on-receipt, local reads. No vector timestamps on
    /// the wire (Section 6: the overhead "can be avoided" for PRAM).
    Pram,
    /// Causal memory (Ahamad et al.): updates carry vector timestamps and
    /// are applied in causal order; every read is causal.
    Causal,
    /// Mixed consistency: the causal substrate with per-read labels —
    /// causal reads wait for the reader's causal cut, PRAM reads return
    /// the most recent local value immediately (Section 6).
    Mixed,
    /// Sequentially consistent baseline: a central memory server; every
    /// read and write is a blocking RPC. This is the high-latency
    /// comparison point of the paper's introduction.
    Sc,
}

impl Mode {
    /// All modes, for sweeps.
    pub const ALL: [Mode; 4] = [Mode::Pram, Mode::Causal, Mode::Mixed, Mode::Sc];

    /// Returns `true` for the fully replicated (non-server) modes.
    pub fn is_replicated(self) -> bool {
        !matches!(self, Mode::Sc)
    }

    /// Returns `true` if update messages carry vector timestamps.
    pub fn carries_vectors(self) -> bool {
        matches!(self, Mode::Causal | Mode::Mixed)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Pram => write!(f, "pram"),
            Mode::Causal => write!(f, "causal"),
            Mode::Mixed => write!(f, "mixed"),
            Mode::Sc => write!(f, "sc"),
        }
    }
}

/// When critical-section updates are propagated to the next lock holder
/// (Section 6's three implementations of lock/unlock).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockPropagation {
    /// *Eager*: the releaser broadcasts a flush and collects
    /// acknowledgements before the lock is released; the grantee never
    /// stalls on data.
    Eager,
    /// *Lazy*: the release carries the releaser's knowledge vector; the
    /// grant completes only once the grantee's replica has applied it.
    Lazy,
    /// *Demand-driven*: the release ships the set of variables written
    /// before it; the grantee's reads of exactly those variables block
    /// until the corresponding updates arrive.
    DemandDriven,
}

impl LockPropagation {
    /// All variants, for sweeps.
    pub const ALL: [LockPropagation; 3] =
        [LockPropagation::Eager, LockPropagation::Lazy, LockPropagation::DemandDriven];
}

impl fmt::Display for LockPropagation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockPropagation::Eager => write!(f, "eager"),
            LockPropagation::Lazy => write!(f, "lazy"),
            LockPropagation::DemandDriven => write!(f, "demand"),
        }
    }
}

/// When buffered updates are force-flushed into an
/// [`UpdateBatch`](crate::Msg::UpdateBatch), beyond the mandatory
/// flush-before-sync points (lock release, barrier arrival, blocking
/// await). Batching exploits the FIFO-channel assumption the protocol
/// already relies on: a batch applied atomically at the receiver is
/// indistinguishable from its member updates delivered back to back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchPolicy {
    /// Flush once this many (coalesced) entries are buffered.
    pub max_updates: usize,
    /// Flush at most this long (virtual time in the simulator, wall
    /// clock in the live executor) after the first buffered update —
    /// the liveness backstop for processes that stop writing without
    /// synchronizing.
    pub max_delay_micros: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_updates: 16, max_delay_micros: 25 }
    }
}

impl BatchPolicy {
    /// A policy with no delay window: updates buffer only until the
    /// next scheduling point (the flush timer is armed at zero delay).
    /// Useful for exploration, where virtual-time windows would hide
    /// interleavings behind the end of the program.
    pub fn immediate() -> Self {
        BatchPolicy { max_delay_micros: 0, ..BatchPolicy::default() }
    }
}

/// Sharded interest-based partial replication: the address space is
/// partitioned into `nshards` shards (`shard(loc) = loc mod nshards`)
/// and every process declares an *interest set* — the shards it
/// subscribes to. Updates multicast only to subscribers, and dependency
/// clocks travel as sparse per-shard entries, so wire clock width is
/// O(interested replicas) instead of O(cluster). This generalizes the
/// paper's Section 6 demand-driven variant from lock-protected data to
/// the whole address space: a replica pulls (subscribes to) exactly the
/// state it touches instead of receiving every write pushed everywhere.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardConfig {
    /// Number of address-space shards.
    pub nshards: usize,
    /// Per-process interest sets: `interest[p]` lists the shards process
    /// `p` subscribes to (sorted and deduplicated by the constructor).
    pub interest: Vec<Vec<usize>>,
    /// Subscribe-on-first-touch fallback: an access to a shard outside
    /// the static interest set blocks while the process subscribes
    /// through the directory, instead of being rejected.
    pub dynamic: bool,
}

impl ShardConfig {
    /// A shard map with explicit per-process interest sets.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` is zero or any interest entry names an
    /// out-of-range shard.
    pub fn new(nshards: usize, interest: Vec<Vec<usize>>) -> Self {
        assert!(nshards >= 1, "at least one shard");
        let interest = interest
            .into_iter()
            .map(|mut set| {
                assert!(
                    set.iter().all(|&s| s < nshards),
                    "interest set names a shard >= nshards ({nshards})"
                );
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        ShardConfig { nshards, interest, dynamic: false }
    }

    /// Every process interested in every shard (full replication
    /// expressed through the sharded machinery; useful as a conformance
    /// baseline).
    pub fn full(nshards: usize, nprocs: usize) -> Self {
        ShardConfig::new(nshards, vec![(0..nshards).collect(); nprocs])
    }

    /// Enables (or disables) the subscribe-on-first-touch fallback.
    pub fn with_dynamic(mut self, dynamic: bool) -> Self {
        self.dynamic = dynamic;
        self
    }

    /// The shard owning `loc`.
    pub fn shard_of(&self, loc: mc_model::Loc) -> usize {
        loc.index() % self.nshards
    }

    /// Whether process `p` statically subscribes to `shard`.
    pub fn subscribed(&self, p: mc_model::ProcId, shard: usize) -> bool {
        self.interest[p.index()].binary_search(&shard).is_ok()
    }
}

/// Configuration of a [`Dsm`](crate::Dsm) instance.
#[derive(Clone, Debug)]
pub struct DsmConfig {
    /// Number of application processes (replica `i` hosts process `i`;
    /// node `nprocs` is the manager/server).
    pub nprocs: usize,
    /// The memory protocol.
    pub mode: Mode,
    /// The lock-propagation variant.
    pub lock_propagation: LockPropagation,
    /// Barrier participant subsets (Section 3.1.2's parenthetical:
    /// "a barrier can also be defined for a subset of processes").
    /// Barrier objects absent from this map involve every process.
    pub barrier_groups: std::collections::HashMap<mc_model::BarrierId, Vec<mc_model::ProcId>>,
    /// Number of manager nodes. Section 6 maps *every lock* and *every
    /// barrier* "to a process"; with more than one shard, objects are
    /// distributed over manager nodes round-robin by id, spreading
    /// synchronization traffic across links.
    pub manager_shards: usize,
    /// Run the reliable-delivery session layer (see [`crate::session`])
    /// under the protocol: per-link sequencing, acknowledgements, and
    /// retransmission. Off by default — the quiet simulated network
    /// already provides FIFO channels; turn it on when a
    /// [`FaultPlan`](mc_sim::FaultPlan) attacks them.
    pub reliable: bool,
    /// Batched/coalesced update propagation. `None` (the default)
    /// broadcasts one [`Msg::Update`](crate::Msg::Update) per write, as
    /// in the paper's Section 6 sketch; `Some` buffers and coalesces
    /// writes per the policy, flushing before every synchronization
    /// message so the `↦lock`/`↦bar` orders of Definitions 2–4 are
    /// preserved by construction.
    pub batch: Option<BatchPolicy>,
    /// Number of shared-memory locations the application uses, used to
    /// pre-size replica stores so the hot read path needs no growth
    /// checks. Accesses beyond this hint still work (the store grows on
    /// the write path).
    pub locations: usize,
    /// Durable crash recovery (see [`crate::durability`]). `None` (the
    /// default) keeps the paper's amnesia crash model; `Some` gives
    /// every replica a write-ahead log with append-before-ack for own
    /// writes plus compacted snapshots per the policy, so a
    /// crash-recover fault rebuilds the replica from disk and fetches
    /// only the missing delta from peers.
    pub durability: Option<crate::durability::DurabilityPolicy>,
    /// Per-process consistency-model assignment (the ordering-property
    /// lattice; see [`mc_model::spec`]): each process's reads follow its
    /// assigned point. [`DsmConfig::new`] assigns every process the
    /// point its mode implements; [`DsmConfig::with_models`] sets an
    /// explicit assignment and derives `mode` as its *substrate*.
    pub models: mc_model::ModelAssignment,
    /// Sharded interest-based partial replication. `None` (the default)
    /// keeps full replication: every write broadcast to every peer.
    /// `Some` routes each update only to the subscribers of its shard
    /// and switches dependency tracking to sparse per-shard clocks.
    /// Only meaningful on the replicated modes (the SC substrate's
    /// central server is untouched); locks and barriers are not yet
    /// supported together with sharding.
    pub sharding: Option<ShardConfig>,
}

impl DsmConfig {
    /// A configuration with the given process count and mode, lazy locks.
    /// Every process is assigned the lattice point `mode` implements:
    /// PRAM, causal, per-read labels (Definition 4) or SC.
    pub fn new(nprocs: usize, mode: Mode) -> Self {
        use mc_model::{ModelAssignment, ModelSpec};
        let models = match mode {
            Mode::Pram => ModelAssignment::uniform(nprocs, ModelSpec::PRAM),
            Mode::Causal => ModelAssignment::uniform(nprocs, ModelSpec::CAUSAL),
            Mode::Mixed => ModelAssignment::mixed(nprocs),
            Mode::Sc => ModelAssignment::uniform(nprocs, ModelSpec::SC),
        };
        DsmConfig {
            nprocs,
            mode,
            lock_propagation: LockPropagation::Lazy,
            barrier_groups: std::collections::HashMap::new(),
            manager_shards: 1,
            reliable: false,
            batch: None,
            locations: 64,
            durability: None,
            models,
            sharding: None,
        }
    }

    /// Enables (`Some`) or disables (`None`) sharded interest-based
    /// partial replication.
    ///
    /// # Panics
    ///
    /// Panics if the interest table's process count differs from
    /// `nprocs`.
    pub fn with_sharding(mut self, sharding: Option<ShardConfig>) -> Self {
        if let Some(sc) = &sharding {
            assert_eq!(sc.interest.len(), self.nprocs, "one interest set per process");
        }
        self.sharding = sharding;
        self
    }

    /// Assigns a consistency-model lattice point to every process and
    /// derives the protocol substrate that implements the assignment:
    ///
    /// * any total-store-order point (`sc`) requires the central-server
    ///   substrate and must be uniform — replicated points cannot share
    ///   a run with a serialization guarantee;
    /// * any point needing causal knowledge (writes-follow-reads, full
    ///   synchronization visibility, or coherence tags) selects the
    ///   vector-carrying [`Mode::Mixed`] substrate;
    /// * otherwise the plain FIFO [`Mode::Pram`] substrate suffices.
    ///
    /// Reads are then labeled per process by
    /// [`DsmConfig::read_policy`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment's process count differs from `nprocs`,
    /// or if it mixes `sc` with non-`sc` points.
    pub fn with_models(mut self, models: mc_model::ModelAssignment) -> Self {
        assert_eq!(models.len(), self.nprocs, "one model per process");
        self.mode = if models.any_tso() {
            assert!(
                models.all_tso(),
                "a total-store-order point cannot mix with replicated lattice points"
            );
            Mode::Sc
        } else {
            let needs_vectors = models.iter().any(|m| match m {
                mc_model::ProcModel::ByLabel => true,
                mc_model::ProcModel::Fixed(s) => {
                    s.writes_follow_reads || s.coherence || s.sync == mc_model::SyncScope::Full
                }
            });
            if needs_vectors {
                Mode::Mixed
            } else {
                Mode::Pram
            }
        };
        self.models = models;
        self
    }

    /// The effective label of a read issued by `proc` with program label
    /// `label`: `ByLabel` processes keep their program labels and
    /// `Fixed` processes read causally exactly when their point includes
    /// writes-follow-reads.
    pub fn read_policy(
        &self,
        proc: mc_model::ProcId,
        label: mc_model::ReadLabel,
    ) -> mc_model::ReadLabel {
        self.models.judged_as(proc, label)
    }

    /// Enables or disables the reliable-delivery session layer.
    pub fn with_reliable(mut self, reliable: bool) -> Self {
        self.reliable = reliable;
        self
    }

    /// Enables (`Some`) or disables (`None`) durable crash recovery.
    pub fn with_durability(mut self, policy: Option<crate::durability::DurabilityPolicy>) -> Self {
        self.durability = policy;
        self
    }

    /// Enables (`Some`) or disables (`None`) batched update propagation.
    pub fn with_batching(mut self, batch: Option<BatchPolicy>) -> Self {
        self.batch = batch;
        self
    }

    /// Distributes lock and barrier managers over `shards` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_manager_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one manager shard");
        self.manager_shards = shards;
        self
    }

    /// Sets the lock-propagation variant.
    pub fn with_lock_propagation(mut self, p: LockPropagation) -> Self {
        self.lock_propagation = p;
        self
    }

    /// Restricts a barrier object to a subset of processes.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty or mentions an unknown process.
    pub fn with_barrier_group(
        mut self,
        barrier: mc_model::BarrierId,
        group: Vec<mc_model::ProcId>,
    ) -> Self {
        assert!(!group.is_empty(), "barrier group must be non-empty");
        assert!(
            group.iter().all(|p| p.index() < self.nprocs),
            "barrier group mentions an unknown process"
        );
        self.barrier_groups.insert(barrier, group);
        self
    }

    /// The participants of a barrier object.
    pub fn barrier_participants(&self, barrier: mc_model::BarrierId) -> Vec<mc_model::ProcId> {
        self.barrier_groups
            .get(&barrier)
            .cloned()
            .unwrap_or_else(|| (0..self.nprocs as u32).map(mc_model::ProcId).collect())
    }

    /// Total network nodes: one replica per process plus the manager
    /// shards.
    pub fn nnodes(&self) -> usize {
        self.nprocs + self.manager_shards
    }

    /// The first manager node (shard 0; also the SC server).
    pub fn manager_node(&self) -> mc_sim::NodeId {
        mc_sim::NodeId(self.nprocs as u32)
    }

    /// The manager node owning lock `lock`.
    pub fn lock_manager_node(&self, lock: mc_model::LockId) -> mc_sim::NodeId {
        mc_sim::NodeId((self.nprocs + lock.index() % self.manager_shards) as u32)
    }

    /// The manager node owning barrier object `barrier`.
    pub fn barrier_manager_node(&self, barrier: mc_model::BarrierId) -> mc_sim::NodeId {
        mc_sim::NodeId((self.nprocs + barrier.index() % self.manager_shards) as u32)
    }

    /// Returns `true` if `node` is a manager shard.
    pub fn is_manager_node(&self, node: mc_sim::NodeId) -> bool {
        node.index() >= self.nprocs && node.index() < self.nnodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_properties() {
        assert!(Mode::Pram.is_replicated());
        assert!(!Mode::Sc.is_replicated());
        assert!(Mode::Mixed.carries_vectors());
        assert!(Mode::Causal.carries_vectors());
        assert!(!Mode::Pram.carries_vectors());
        assert_eq!(Mode::ALL.len(), 4);
        assert_eq!(Mode::Mixed.to_string(), "mixed");
        assert_eq!(LockPropagation::Eager.to_string(), "eager");
        assert_eq!(LockPropagation::ALL.len(), 3);
    }

    #[test]
    fn config_layout() {
        let c = DsmConfig::new(4, Mode::Mixed).with_lock_propagation(LockPropagation::DemandDriven);
        assert_eq!(c.nnodes(), 5);
        assert_eq!(c.manager_node(), mc_sim::NodeId(4));
        assert_eq!(c.lock_propagation, LockPropagation::DemandDriven);
    }

    #[test]
    fn shard_config_normalizes_and_maps() {
        let sc = ShardConfig::new(4, vec![vec![2, 0, 2], vec![1, 3]]);
        assert_eq!(sc.interest[0], vec![0, 2], "sorted and deduplicated");
        assert!(sc.subscribed(mc_model::ProcId(0), 2));
        assert!(!sc.subscribed(mc_model::ProcId(0), 1));
        assert_eq!(sc.shard_of(mc_model::Loc(6)), 2);
        let full = ShardConfig::full(3, 2);
        assert!((0..3).all(|s| full.subscribed(mc_model::ProcId(1), s)));
        assert!(!sc.dynamic);
        assert!(sc.with_dynamic(true).dynamic);
        let cfg = DsmConfig::new(2, Mode::Causal).with_sharding(Some(ShardConfig::full(3, 2)));
        assert_eq!(cfg.sharding.as_ref().unwrap().nshards, 3);
    }

    #[test]
    #[should_panic(expected = "one interest set per process")]
    fn sharding_interest_must_cover_every_process() {
        let _ = DsmConfig::new(3, Mode::Causal).with_sharding(Some(ShardConfig::full(2, 2)));
    }

    #[test]
    fn batch_policy_defaults() {
        let c = DsmConfig::new(2, Mode::Causal);
        assert_eq!(c.batch, None, "batching is opt-in");
        let c = c.with_batching(Some(BatchPolicy::default()));
        let p = c.batch.unwrap();
        assert!(p.max_updates > 1);
        assert!(p.max_delay_micros > 0);
        assert_eq!(BatchPolicy::immediate().max_delay_micros, 0);
        assert_eq!(BatchPolicy::immediate().max_updates, p.max_updates);
    }
}
