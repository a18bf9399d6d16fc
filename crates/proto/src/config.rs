//! Protocol configuration: the per-process consistency-model
//! assignment, the protocol substrate derived from it, and the
//! lock-propagation variants.

use std::fmt;

use mc_model::{ModelAssignment, ModelSpec, ProcModel, SyncScope};

/// The protocol machinery an assignment runs on: derived from it by
/// [`Substrate::of`], since each ordering property names the metadata it
/// needs, and never chosen by hand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Substrate {
    /// A central memory server; every access is a blocking RPC.
    Server,
    /// FIFO update broadcast applied on receipt, with no vector
    /// timestamps on the wire (Section 6).
    Fifo,
    /// Vector-timestamped updates applied in causal order (Section 6).
    Vectors,
}

impl Substrate {
    /// The substrate that implements `models`: the central server for
    /// `sc` (total store order), which must then be uniform; vectors if
    /// any point needs causal knowledge (writes-follow-reads, full
    /// synchronization visibility, coherence tags or per-read labels);
    /// FIFO broadcast otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the assignment mixes `sc` with non-`sc` points.
    pub fn of(models: &ModelAssignment) -> Substrate {
        if models.any_tso() {
            assert!(
                models.all_tso(),
                "a total-store-order point cannot mix with replicated lattice points"
            );
            return Substrate::Server;
        }
        let needs_vectors = models.iter().any(|m| match m {
            ProcModel::ByLabel => true,
            ProcModel::Fixed(s) => {
                s.writes_follow_reads || s.coherence || s.sync == SyncScope::Full
            }
        });
        if needs_vectors {
            Substrate::Vectors
        } else {
            Substrate::Fifo
        }
    }

    /// Returns `true` for the fully replicated (non-server) substrates.
    pub fn is_replicated(self) -> bool {
        self != Substrate::Server
    }

    /// Returns `true` if update messages carry vector timestamps.
    pub fn carries_vectors(self) -> bool {
        self == Substrate::Vectors
    }
}

/// A model decision: one lattice point for every process
/// ([`ProcModel`], [`ModelSpec`]) or one per process
/// ([`ModelAssignment`], which panics unless it names `nprocs`).
pub trait IntoModels {
    /// The per-process assignment for `nprocs` processes.
    fn into_models(self, nprocs: usize) -> ModelAssignment;
}

impl IntoModels for ProcModel {
    fn into_models(self, nprocs: usize) -> ModelAssignment {
        match self {
            ProcModel::Fixed(spec) => ModelAssignment::uniform(nprocs, spec),
            ProcModel::ByLabel => ModelAssignment::mixed(nprocs),
        }
    }
}

impl IntoModels for ModelSpec {
    fn into_models(self, nprocs: usize) -> ModelAssignment {
        ModelAssignment::uniform(nprocs, self)
    }
}

impl IntoModels for ModelAssignment {
    fn into_models(self, nprocs: usize) -> ModelAssignment {
        assert_eq!(self.len(), nprocs, "one model per process");
        self
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

/// Batched update propagation: a process's writes buffer, coalesced per
/// location, into one [`UpdateBatch`](crate::Msg::UpdateBatch) per peer.
/// Batching exploits the FIFO-channel assumption the protocol already
/// relies on: a batch applied atomically at the receiver is
/// indistinguishable from its member updates delivered back to back.
///
/// The batch closes on link state, not on a count or a clock (Nagle's
/// rule without the delayed-ACK timer, RFC 896): at an operation's entry
/// once every peer link is idle ([`ProcNode::enter`](crate::ProcNode::enter)),
/// whenever an operation parks, before every synchronization send (lock
/// release, barrier arrival, eager unlock, recovery), when its writes,
/// coalesced or not, reach [`BUF_CHUNK`](crate::wire::BUF_CHUNK) bytes,
/// and when the process exits. A lone write on an idle link leaves at
/// the next operation; under load the batch grows while the previous
/// frame is on the wire. There is nothing to tune.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BatchPolicy {}

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
    models: ModelAssignment,
    substrate: Substrate,
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
    /// Sharded interest-based partial replication. `None` (the default)
    /// keeps full replication: every write broadcast to every peer.
    /// `Some` routes each update only to the subscribers of its shard
    /// and switches dependency tracking to sparse per-shard clocks.
    /// Only meaningful on the replicated substrates (the SC server is
    /// untouched); locks and barriers are not yet
    /// supported together with sharding.
    pub sharding: Option<ShardConfig>,
}

impl DsmConfig {
    /// A configuration of `nprocs` processes under `models`, with lazy
    /// locks; the substrate is derived here, once ([`Substrate::of`]).
    pub fn new(nprocs: usize, models: impl IntoModels) -> Self {
        let models = models.into_models(nprocs);
        DsmConfig {
            substrate: Substrate::of(&models),
            models,
            lock_propagation: LockPropagation::Lazy,
            barrier_groups: std::collections::HashMap::new(),
            manager_shards: 1,
            reliable: false,
            batch: None,
            locations: 64,
            durability: None,
            sharding: None,
        }
    }

    /// Number of application processes, one per model of the assignment
    /// (replica `i` hosts process `i`; node `nprocs` is the first manager).
    pub fn nprocs(&self) -> usize {
        self.models.len()
    }

    /// The per-process lattice points (see [`mc_model::spec`]).
    pub fn models(&self) -> &ModelAssignment {
        &self.models
    }

    /// The protocol substrate the assignment runs on.
    pub fn substrate(&self) -> Substrate {
        self.substrate
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
            assert_eq!(sc.interest.len(), self.nprocs(), "one interest set per process");
        }
        self.sharding = sharding;
        self
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
            group.iter().all(|p| p.index() < self.nprocs()),
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
            .unwrap_or_else(|| (0..self.nprocs() as u32).map(mc_model::ProcId).collect())
    }

    /// Total network nodes: one replica per process plus the manager
    /// shards.
    pub fn nnodes(&self) -> usize {
        self.nprocs() + self.manager_shards
    }

    /// The first manager node (shard 0; also the SC server).
    pub fn manager_node(&self) -> mc_sim::NodeId {
        mc_sim::NodeId(self.nprocs() as u32)
    }

    /// The manager node owning lock `lock`.
    pub fn lock_manager_node(&self, lock: mc_model::LockId) -> mc_sim::NodeId {
        mc_sim::NodeId((self.nprocs() + lock.index() % self.manager_shards) as u32)
    }

    /// The manager node owning barrier object `barrier`.
    pub fn barrier_manager_node(&self, barrier: mc_model::BarrierId) -> mc_sim::NodeId {
        mc_sim::NodeId((self.nprocs() + barrier.index() % self.manager_shards) as u32)
    }

    /// Returns `true` if `node` is a manager shard.
    pub fn is_manager_node(&self, node: mc_sim::NodeId) -> bool {
        node.index() >= self.nprocs() && node.index() < self.nnodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_properties() {
        assert!(Substrate::Fifo.is_replicated());
        assert!(!Substrate::Server.is_replicated());
        assert!(Substrate::Vectors.carries_vectors());
        assert!(!Substrate::Fifo.carries_vectors());
        assert!(!Substrate::Server.carries_vectors());
        assert_eq!(LockPropagation::Eager.to_string(), "eager");
        assert_eq!(LockPropagation::ALL.len(), 3);
    }

    /// The one derivation: every lattice point, uniform, and the
    /// heterogeneous cases.
    #[test]
    fn the_assignment_derives_the_substrate() {
        let expected = |m: ProcModel| match m.name() {
            "sc" => Substrate::Server,
            "causal" | "processor" | "weak" | "mixed" => Substrate::Vectors,
            "pram" | "slow" => Substrate::Fifo,
            other => panic!("no expectation for {other}"),
        };
        for &m in ProcModel::ALL {
            let cfg = DsmConfig::new(3, m);
            assert_eq!(cfg.substrate(), expected(m), "{m}");
            assert_eq!(*cfg.models(), ModelAssignment::per_proc(vec![m; 3]), "{m}");
        }
        let slow_causal = ModelAssignment::per_proc(vec![
            ProcModel::Fixed(ModelSpec::SLOW),
            ProcModel::Fixed(ModelSpec::CAUSAL),
        ]);
        assert_eq!(DsmConfig::new(2, slow_causal).substrate(), Substrate::Vectors);
        assert_eq!(DsmConfig::new(2, ModelSpec::SLOW).substrate(), Substrate::Fifo);
    }

    #[test]
    #[should_panic(expected = "cannot mix with replicated lattice points")]
    fn sc_does_not_mix_with_a_replicated_point() {
        let models = ModelAssignment::per_proc(vec![
            ProcModel::Fixed(ModelSpec::SC),
            ProcModel::Fixed(ModelSpec::PRAM),
        ]);
        let _ = DsmConfig::new(2, models);
    }

    #[test]
    #[should_panic(expected = "one model per process")]
    fn an_explicit_assignment_names_every_process() {
        let _ = DsmConfig::new(3, ModelAssignment::mixed(2));
    }

    #[test]
    fn config_layout() {
        let c = DsmConfig::new(4, ProcModel::ByLabel)
            .with_lock_propagation(LockPropagation::DemandDriven);
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
        let cfg = DsmConfig::new(2, ModelSpec::CAUSAL).with_sharding(Some(ShardConfig::full(3, 2)));
        assert_eq!(cfg.sharding.as_ref().unwrap().nshards, 3);
    }

    #[test]
    #[should_panic(expected = "one interest set per process")]
    fn sharding_interest_must_cover_every_process() {
        let _ = DsmConfig::new(3, ModelSpec::CAUSAL).with_sharding(Some(ShardConfig::full(2, 2)));
    }

    #[test]
    fn batch_policy_defaults() {
        let c = DsmConfig::new(2, ModelSpec::CAUSAL);
        assert_eq!(c.batch, None, "batching is opt-in");
        let c = c.with_batching(Some(BatchPolicy::default()));
        assert_eq!(c.batch, Some(BatchPolicy {}));
    }
}
